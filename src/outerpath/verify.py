"""One-shot verification suite over every claim the toolkit can check.

Each check is declared once, by ``@_check(name, claim)`` on a body that
returns ``(passed, observed, expected)``, and registered in ``ALL_CHECKS``
in report order; the CLI renders the results as a JSON report whose exit
status is 0 only when every check passes.  Checks are deterministic:
sampling uses fixed seeds and timing information is kept out of the
payload unless requested.

The chord-crossing-suite check is expected to FAIL: the four second-order
side inequalities (s2/p2/t2/q2 against d-1+a+1) have genuine small
counterexamples whenever the two endpoint neighborhoods share their
boundary vertex and that vertex has extra interior adjacencies.  The
check reports the exact violation counts; see the README for the
smallest instance.
"""

from __future__ import annotations

import functools
import json
import random
import time
from math import comb
from typing import Callable, Iterator, NamedTuple

from .chords import _FIRST_ORDER, _SECOND_ORDER, chord_instances, partition_is_complete, side_inequalities
from .constructions import (
    ConstructionSpec,
    build,
    double_star_p4_count,
    fib,
    h_count,
    lower_bound_value,
)
from .dual import Tree, balanced_edge_cut
from .graph import SCHEMA, Graph, canonical_form
from .graph6 import from_graph6, to_graph6
from .outerplanar import OuterEmbedding
from .paths import count_induced_p3_closed_form, count_induced_paths
from .polygon import (
    catalan,
    cycle_edges,
    dihedral_orbits,
    enumerate_triangulations,
    random_outerplanar,
    triangulation_chord_sets,
)
from .search import endpoint_pair_maxima, extremal_value

_SEED = 20240801


class CheckResult(NamedTuple):
    name: str
    claim: str
    passed: bool
    observed: object
    expected: object
    elapsed: float

    def to_json_dict(self, timing: bool = False) -> dict:
        return {
            "name": self.name,
            "paper_ref": self.claim,
            "status": "pass" if self.passed else "fail",
            "observed": self.observed,
            "expected": self.expected,
            "elapsed": round(self.elapsed, 3) if timing else None,
        }


class VerifyReport(NamedTuple):
    checks: list[CheckResult]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json_dict(self, timing: bool = False) -> dict:
        failed = sum(not c.passed for c in self.checks)
        return {
            "schema": SCHEMA,
            "checks": [c.to_json_dict(timing) for c in self.checks],
            "summary": {
                "total": len(self.checks),
                "passed": len(self.checks) - failed,
                "failed": failed,
            },
        }


def random_bounded_degree_tree(n: int, k: int, rng: random.Random) -> Tree:
    """Uniform-attachment random tree with maximum degree at most k.

    Edge i is (parent, i + 1) with parent < i + 1.  The parent is drawn
    from the nodes still below degree k with the draws of
    ``rng.randrange(len(available))``, inlined as the rejection loop over
    ``getrandbits`` that ``random.Random`` runs for it.
    """
    if n <= 1:
        return Tree(n, ())
    getrandbits = rng.getrandbits
    edges = []
    # each node but the root joins with the edge to its parent
    deg = [1] * n
    deg[0] = 0
    available = [0]
    m = 1
    for v in range(1, n):
        bits = m.bit_length()
        i = getrandbits(bits)
        while i >= m:
            i = getrandbits(bits)
        parent = available[i]
        edges.append((parent, v))
        deg[parent] += 1
        if deg[parent] >= k:
            available[i] = available[-1]
            available[-1] = v
        else:
            available.append(v)
            m += 1
    # each node attaches to one placed before it, so this is a tree
    return Tree._unchecked(n, tuple(edges))


def _canon(kind: str, n: int | None = None) -> str:
    """Canonical graph6 of a named construction, as witnesses are listed."""
    return canonical_form(build(ConstructionSpec(kind, n=n))[0])


# -- the checks ---------------------------------------------------------------

ALL_CHECKS: list[tuple[str, Callable[[int], CheckResult]]] = []


def _check(name: str, claim: str):
    """Register a body as check ``name`` of ``claim``: the registered function
    passes the worker count on if the body takes it, and times the body."""

    def register(body):
        takes_jobs = body.__code__.co_argcount > 0

        @functools.wraps(body)
        def run(jobs: int = 1) -> CheckResult:
            t0 = time.perf_counter()
            passed, observed, expected = body(jobs) if takes_jobs else body()
            return CheckResult(name, claim, passed, observed, expected, time.perf_counter() - t0)

        ALL_CHECKS.append((name, run))
        return run

    return register


@_check("p3-extremal-table", "C1")
def check_p3_extremal_table(jobs: int):
    """Exact induced-3-path extremal values for n = 4..8, with witnesses."""
    expected_values = {4: 4, 5: 6, 6: 10, 7: 15, 8: 21}
    observed: dict = {}
    ok = True
    for n in range(4, 9):
        report = extremal_value(n, 3, jobs=jobs)
        observed[str(n)] = report.max_copies
        if report.max_copies != expected_values[n]:
            ok = False
        if n >= 7:
            if report.max_copies != comb(n - 1, 2):
                ok = False
            # equality only for the star from n = 7 on
            if report.witnesses != (_canon("star", n),):
                ok = False
        if n == 4 and _canon("cycle", 4) not in report.witnesses:
            ok = False
        if n == 5 and _canon("cycle_pendant", 5) not in report.witnesses:
            ok = False
    return ok, observed, {str(n): v for n, v in expected_values.items()}


@_check("p3-witnesses-n6", "C2")
def check_p3_witnesses_n6(jobs: int):
    """n = 6 extremal witnesses include the star and the long-chord hexagon."""
    report = extremal_value(6, 3, jobs=jobs)
    star6 = _canon("star", 6)
    hexchord = _canon("c6_chord")
    ok = star6 in report.witnesses and hexchord in report.witnesses
    return ok, {"witnesses": list(report.witnesses)}, {"must_include": sorted([star6, hexchord])}


@_check("fibonacci-path-recurrence", "C3")
def check_fibonacci_recurrence():
    """End-to-end path counts of the gadget family equal Fibonacci numbers."""
    observed = {str(t): h_count(t) for t in range(2, 13)}
    expected = {str(t): fib(t) for t in range(2, 13)}
    return observed == expected, observed, expected


@_check("endpoint-path-bound", "C4")
def check_endpoint_bound(jobs: int):
    """Between any vertex pair, induced m-path counts never exceed fib(m)."""
    observed: dict = {}
    ok = True
    for n in range(3, 9):
        rows = endpoint_pair_maxima(n, jobs=jobs).tolist()
        per_len = {}
        for m in range(2, n + 1):
            worst = max(row[m] for row in rows)
            per_len[str(m)] = worst
            if worst > fib(m):
                ok = False
        observed[str(n)] = per_len
    return ok, observed, {"cap": {str(m): fib(m) for m in range(2, 9)}}


@_check("path-count-sandwich", "C5")
def check_sandwich(jobs: int):
    """Quadratic lower bound <= extremal value <= fib(k+1) * C(n, 2)."""
    rows = []
    ok = True
    for k in range(1, 6):
        for n in range(k + 2, 9):
            report = extremal_value(n, k + 1, jobs=jobs)
            upper = fib(k + 1) * comb(n, 2)
            row = {"k": k, "n": n, "extremal": report.max_copies, "upper": upper}
            if report.max_copies > upper:
                ok = False
            if k >= 2 and n >= 2 * k:
                low = lower_bound_value(k, n)
                row["lower"] = str(low)
                if report.max_copies < low:
                    ok = False
            rows.append(row)
    return ok, {"rows": rows}, {"note": "lower <= extremal <= upper on every row"}


@_check("construction-lower-bound", "C6")
def check_construction_strength():
    """Leaf-fanned gadgets reach fib(k-1)(n-2k+3)^2/4 induced (k+1)-paths."""
    rows = []
    ok = True
    for k in (3, 4, 5, 6):
        for n in (20, 30, 40):
            g, _ = build(ConstructionSpec("g_t_prime", t=k - 1, n=n))
            copies = count_induced_paths(g, k + 1).copies
            bound = lower_bound_value(k, n)
            rows.append({"k": k, "n": n, "copies": copies, "bound": str(bound)})
            if copies < bound:
                ok = False
    return ok, {"rows": rows}, {"note": "copies >= bound on every row"}


@_check("tree-edge-cut", "C7")
def check_tree_edge_cut():
    """500 random bounded-degree trees per cap: a (n-1)/k balanced edge exists."""
    rng = random.Random(_SEED)
    failures = 0
    trials = 0
    max_n = 0
    for k in range(3, 9):
        for _ in range(500):
            n = rng.randint(2, 2000)
            max_n = max(max_n, n)
            t = random_bounded_degree_tree(n, k, rng)
            trials += 1
            try:
                cut = balanced_edge_cut(t, k)
            except RuntimeError:
                failures += 1
                continue
            if not _cut_is_balanced(t, k, cut):
                failures += 1
    return failures == 0, {"trials": trials, "failures": failures, "max_n": max_n}, {"failures": 0}


def _cut_is_balanced(t: Tree, k: int, cut: tuple[int, int]) -> bool:
    """Whether ``cut`` is a tree edge leaving >= (n-1)/k nodes on each side.

    Counts the sides itself instead of trusting the cut search: the edges
    of a :class:`Tree` are (parent, child) pairs in connected order, so one
    pass over them in reverse finishes every subtree before adding it to
    its parent's.  ``cut`` may name its ends in either order, as
    :func:`~outerpath.dual.balanced_edge_cut` returns (low, high).
    """
    n = t.n
    parent = [-1] * n
    sub = [1] * n
    for p, c in reversed(t.edges):
        parent[c] = p
        sub[p] += sub[c]
    u, v = cut
    if parent[u] == v:
        u, v = v, u
    return parent[v] == u and k * min(sub[v], n - sub[v]) >= n - 1


def chord_suite_counts(n_max: int = 8) -> dict:
    """Violation counts for the crossing-bound suite on the 2-connected corpus.

    Returns counts for: the six-product bound on phi, the quadratic bound,
    partition completeness, the first-order side lines (s1/p1/t1/q1 plus
    both size sums) and the second-order side lines (s2/p2/t2/q2),
    together with the instance total, over every chord of the n-cycle plus
    each dissection of the n-gon (:func:`~outerpath.polygon.dissections`),
    3 <= n <= ``n_max``: each 2-connected outerplanar graph with outer
    cycle 0..n-1 once.

    The corpus is walked one dissection per rotation/reflection orbit, and
    each chord instance counts once per dissection in its orbit.  That is
    exact: a rotation or reflection carries each instance onto one of the
    representative's, and may swap the chord's two sides, its two
    endpoints, or both, which maps each count's set of lines onto itself.
    Single lines, such as s2 alone, are not preserved and are not reported.
    """
    counts = {
        "instances": 0,
        "phi_six_product": 0,
        "phi_quadratic": 0,
        "partition": 0,
        "first_order_lines": 0,
        "second_order_lines": 0,
    }
    for n in range(3, n_max + 1):
        cycle = cycle_edges(n)
        emb = OuterEmbedding.identity(n)
        for chords, weight in dihedral_orbits(n):
            g = Graph(n, cycle + list(chords))
            for st, crossing in chord_instances(g, emb):
                rep = side_inequalities(st)
                counts["instances"] += weight
                counts["phi_six_product"] += weight * (crossing > st.six_product_bound)
                counts["phi_quadratic"] += weight * (crossing > st.quadratic_bound)
                counts["first_order_lines"] += weight * sum(not rep[x] for x in _FIRST_ORDER)
                counts["second_order_lines"] += weight * sum(not rep[x] for x in _SECOND_ORDER)
                counts["partition"] += weight * sum(not partition_is_complete(side) for side in (st.u, st.up))
    return counts


@_check("chord-crossing-suite", "C8")
def check_chord_suite():
    """Crossing bounds, side accounting and partition completeness, n <= 8.

    Known to fail: the second-order side lines have counterexamples (the
    first appears at n = 5), documented in the README.  Everything else
    holds with zero violations.
    """
    counts = chord_suite_counts(8)
    expected = {key: 0 for key in counts if key != "instances"}
    return all(counts[key] == 0 for key in expected), counts, expected


@_check("p3-oracle-agreement", "C9")
def check_p3_oracle_agreement():
    """Closed-form and enumerative 3-path counts agree on 1000 random graphs."""
    rng = random.Random(_SEED)
    disagreements = 0
    for _ in range(1000):
        g = random_outerplanar(rng.randint(3, 16), rng)
        if count_induced_p3_closed_form(g) != count_induced_paths(g, 3).copies:
            disagreements += 1
    return disagreements == 0, {"trials": 1000, "disagreements": disagreements}, {"disagreements": 0}


@_check("p4-extremal-report", "C10")
def check_p4_extremal_report(jobs: int):
    """Exact induced-4-path extremal values, at least the double-star count."""
    rows = []
    ok = True
    for n in range(4, 9):
        report = extremal_value(n, 4, jobs=jobs)
        floor = double_star_p4_count(n)
        rows.append({"n": n, "extremal": report.max_copies, "double_star": floor})
        if report.max_copies < floor:
            ok = False
    return ok, {"rows": rows}, {"note": "extremal >= double_star on every row"}


@_check("graph6-roundtrip", "C11")
def check_graph6_roundtrip():
    """Encode/decode identity across constructions, enumerations and randoms."""
    graphs = list(_roundtrip_graphs())
    bad = sum(from_graph6(to_graph6(g)) != g for g in graphs)
    return bad == 0, {"graphs": len(graphs), "failures": bad}, {"failures": 0}


def _roundtrip_graphs() -> Iterator[Graph]:
    """The graphs C11's codec round-trip checks."""
    for spec in (
        ConstructionSpec("star", n=13),
        ConstructionSpec("cycle", n=9),
        ConstructionSpec("cycle_pendant", n=8),
        ConstructionSpec("c6_chord"),
        ConstructionSpec("double_star", n=17),
        ConstructionSpec("g_t", t=9),
        ConstructionSpec("g_t_prime", t=5, n=31),
    ):
        yield build(spec)[0]
    # every edge subset of every pentagon triangulation, repeats included
    for tri in enumerate_triangulations(5):
        edges = list(tri.edges())
        for subset in range(1 << len(edges)):
            yield Graph(5, [e for i, e in enumerate(edges) if subset >> i & 1])
    yield from enumerate_triangulations(9)
    rng = random.Random(_SEED)
    for _ in range(200):
        n = rng.randint(1, 62)
        yield Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.2])


@_check("triangulation-counts", "C11")
def check_triangulation_counts():
    """Triangulation streams have Catalan(n-2) members for n <= 12."""
    observed = {}
    ok = True
    for n in range(3, 13):
        count = sum(1 for _ in triangulation_chord_sets(n))
        observed[str(n)] = count
        if count != catalan(n - 2):
            ok = False
    return ok, observed, {str(n): catalan(n - 2) for n in range(3, 13)}


@_check("parallel-determinism", "C11")
def check_parallel_determinism():
    """Search reports are byte-identical for 1, 2 and 8 workers."""
    ok = True
    for n, k in ((7, 3), (6, 4)):
        payloads = {
            w: json.dumps(extremal_value(n, k, jobs=w).to_json_dict(), sort_keys=False)
            for w in (1, 2, 8)
        }
        if len(set(payloads.values())) != 1:
            ok = False
    return ok, {"worker_counts": [1, 2, 8]}, {"identical": True}


def run_verify(only: str | None = None, jobs: int = 1) -> VerifyReport:
    return VerifyReport([fn(jobs) for name, fn in ALL_CHECKS if not only or only in name])
