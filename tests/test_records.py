"""Record semantics: the package's result records compare and hash by
value, print in the ``Name(field=value, ...)`` form and cannot be assigned
to.  Most are NamedTuples; ``Tree`` and ``DualTree`` are slotted classes,
and ``Tree`` validates through its ``__post_init__`` hook.
"""

import pytest

from outerpath.chords import ChordStats, SidePartition
from outerpath.constructions import ConstructionSpec
from outerpath.dual import DualTree, Tree
from outerpath.outerplanar import OuterEmbedding
from outerpath.paths import PathCount
from outerpath.search import SearchReport, _Sweep
from outerpath.verify import CheckResult, VerifyReport


def _side() -> SidePartition:
    return SidePartition(
        x=0, y=3, seq=(0, 1, 2, 3), ox=(1,), oy=(2,), s1=1, s2=0, p1=1, p2=0,
        a_set=frozenset(), b1_set=frozenset(), b2_set=frozenset(),
        d1_set=frozenset({1}), d2_set=frozenset({2}), v_ell=None,
    )


def _check() -> CheckResult:
    return CheckResult(name="fib", claim="C3", passed=True, observed=5, expected=5, elapsed=0.0)


# Each record as a fresh instance built from the same field values, and one
# of its fields.
RECORDS = {
    "OuterEmbedding": (lambda: OuterEmbedding((2, 0, 1)), "order"),
    "PathCount": (lambda: PathCount(3, 5), "copies"),
    "ConstructionSpec": (lambda: ConstructionSpec("star", n=5), "n"),
    "SearchReport": (lambda: SearchReport(5, 3, 6, ("D??",), 640, 5, 0.0), "max_copies"),
    "_Sweep": (lambda: _Sweep((0, 1), ((), ()), memoryview(b"\x01")), "best"),
    "SidePartition": (_side, "s1"),
    "ChordStats": (lambda: ChordStats(_side(), _side()), "up"),
    "CheckResult": (_check, "passed"),
    "VerifyReport": (lambda: VerifyReport([_check()]), "checks"),
    "Tree": (lambda: Tree(3, ((0, 1), (1, 2))), "edges"),
    "DualTree": (lambda: DualTree(((0, 1, 2),), (), {}), "nodes"),
}


@pytest.mark.parametrize("name", RECORDS)
def test_equal_fields_give_equal_records(name):
    make, _ = RECORDS[name]
    a, b = make(), make()
    assert a is not b and a == b and not a != b
    if name != "VerifyReport":  # its checks are a list
        assert hash(a) == hash(b)


@pytest.mark.parametrize("name", RECORDS)
def test_fields_cannot_be_assigned(name):
    make, field = RECORDS[name]
    record = make()
    before = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    assert getattr(record, field) is before


@pytest.mark.parametrize(
    "record, text",
    [
        (PathCount(3, 5), "PathCount(k=3, copies=5)"),
        (ConstructionSpec("star", n=5), "ConstructionSpec(kind='star', n=5, t=None)"),
        (OuterEmbedding((2, 0, 1)), "OuterEmbedding(order=(2, 0, 1))"),
        (
            VerifyReport([_check()]),
            "VerifyReport(checks=[CheckResult(name='fib', claim='C3', passed=True, "
            "observed=5, expected=5, elapsed=0.0)])",
        ),
        (Tree(3, ((0, 1), (1, 2))), "Tree(n=3, edges=((0, 1), (1, 2)))"),
        (
            DualTree(((0, 1, 2), (0, 2, 3)), ((0, 1),), {(0, 1): (0, 2)}),
            "DualTree(nodes=((0, 1, 2), (0, 2, 3)), edges=((0, 1),), shared_edge={(0, 1): (0, 2)})",
        ),
    ],
)
def test_repr_names_every_field(record, text):
    assert repr(record) == text


def test_named_tuple_records_are_tuples():
    assert PathCount(3, 5) == (3, 5)
    k, copies = PathCount(3, 5)
    assert (k, copies) == (3, 5) and len(ConstructionSpec("star")) == 3


def test_tree_validates_once_and_the_fast_path_never(monkeypatch):
    calls = []
    validate = Tree.__post_init__

    def counted(self):
        calls.append(self.n)
        validate(self)

    monkeypatch.setattr(Tree, "__post_init__", counted)
    t = Tree(3, ((0, 1), (1, 2)))
    assert calls == [3]
    assert Tree._unchecked(3, ((0, 1), (1, 2))) == t
    assert calls == [3]


def test_trees_differ_by_class_and_fields():
    t = Tree(2, ((0, 1),))
    assert t != Tree(2, ((1, 0),)) and t != (2, ((0, 1),))
    with pytest.raises(AttributeError):
        del t.n


def test_dual_trees_ignore_the_shared_edge_map():
    a = DualTree(((0, 1, 2), (0, 2, 3)), ((0, 1),), {(0, 1): (0, 2)})
    b = DualTree(((0, 1, 2), (0, 2, 3)), ((0, 1),), {})
    assert a == b and hash(a) == hash(b)
    assert a != DualTree(((0, 1, 2), (0, 2, 3)), (), {(0, 1): (0, 2)})
