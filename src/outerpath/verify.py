"""One-shot verification suite over every claim the toolkit can check.

Each check is a named function returning a :class:`CheckResult`; the CLI
renders the collection as a JSON report whose exit status is 0 only when
every check passes.  Checks are deterministic: sampling uses fixed seeds
and timing information is kept out of the payload unless requested.

The chord-crossing-suite check is expected to FAIL: the four second-order
side inequalities (s2/p2/t2/q2 against d-1+a+1) have genuine small
counterexamples whenever the two endpoint neighborhoods share their
boundary vertex and that vertex has extra interior adjacencies.  The
check reports the exact violation counts; see the README for the
smallest instance.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Callable, Iterator

from .chords import chord_instances, partition_is_complete, side_inequalities
from .constructions import (
    ConstructionSpec,
    build,
    double_star_p4_count,
    fib,
    h_count,
    lower_bound_value,
)
from .dual import Tree, balanced_edge_cut
from .graph import Graph, canonical_form
from .graph6 import from_graph6, to_graph6
from .outerplanar import OuterEmbedding
from .paths import count_induced_p3_closed_form, count_induced_paths
from .search import (
    catalan,
    endpoint_pair_maxima,
    extremal_value,
    owned_chord_subsets,
    random_outerplanar,
    triangulation_chord_sets,
)

_SEED = 20240801


@dataclass
class CheckResult:
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


@dataclass
class VerifyReport:
    checks: list[CheckResult]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json_dict(self, timing: bool = False) -> dict:
        failed = sum(not c.passed for c in self.checks)
        return {
            "schema": "outerpath/1",
            "checks": [c.to_json_dict(timing) for c in self.checks],
            "summary": {
                "total": len(self.checks),
                "passed": len(self.checks) - failed,
                "failed": failed,
            },
        }


def two_connected_corpus(n: int) -> Iterator[tuple[Graph, OuterEmbedding]]:
    """Distinct labeled 2-connected outerplanar graphs: full cycle + chords."""
    cyc = [(i, (i + 1) % n) for i in range(n)]
    emb = OuterEmbedding.identity(n)
    for _, owned in owned_chord_subsets(n):
        for chords in owned:
            yield Graph(n, cyc + list(chords)), emb


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
    parents = []
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
        parents.append(parent)
        deg[parent] += 1
        if deg[parent] >= k:
            available[i] = available[-1]
            available[-1] = v
        else:
            available.append(v)
            m += 1
    # each node attaches to one placed before it, so this is a tree
    return Tree._unchecked(n, tuple(zip(parents, range(1, n))))


def _star(n: int) -> Graph:
    return Graph(n, [(0, v) for v in range(1, n)])


def _canon(g: Graph) -> str:
    return canonical_form(g).decode("ascii")


# -- the checks ---------------------------------------------------------------


def check_p3_extremal_table(jobs: int = 1) -> CheckResult:
    """Exact induced-3-path extremal values for n = 4..8, with witnesses."""
    t0 = time.perf_counter()
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
            if report.witnesses != (_canon(_star(n)),):
                ok = False
        if n == 4 and _canon(Graph(4, [(i, (i + 1) % 4) for i in range(4)])) not in report.witnesses:
            ok = False
        if n == 5:
            pendant = Graph(5, [(i, (i + 1) % 4) for i in range(4)] + [(0, 4)])
            if _canon(pendant) not in report.witnesses:
                ok = False
    return CheckResult(
        "p3-extremal-table",
        "C1",
        ok,
        observed,
        {str(n): v for n, v in expected_values.items()},
        time.perf_counter() - t0,
    )


def check_p3_witnesses_n6(jobs: int = 1) -> CheckResult:
    """n = 6 extremal witnesses include the star and the long-chord hexagon."""
    t0 = time.perf_counter()
    report = extremal_value(6, 3, jobs=jobs)
    star6 = _canon(_star(6))
    hexchord = _canon(build(ConstructionSpec("c6_chord"))[0])
    ok = star6 in report.witnesses and hexchord in report.witnesses
    return CheckResult(
        "p3-witnesses-n6",
        "C2",
        ok,
        {"witnesses": list(report.witnesses)},
        {"must_include": sorted([star6, hexchord])},
        time.perf_counter() - t0,
    )


def check_fibonacci_recurrence(jobs: int = 1) -> CheckResult:
    """End-to-end path counts of the gadget family equal Fibonacci numbers."""
    t0 = time.perf_counter()
    observed = {str(t): h_count(t) for t in range(2, 13)}
    expected = {str(t): fib(t) for t in range(2, 13)}
    return CheckResult(
        "fibonacci-path-recurrence",
        "C3",
        observed == expected,
        observed,
        expected,
        time.perf_counter() - t0,
    )


def check_endpoint_bound(jobs: int = 1) -> CheckResult:
    """Between any vertex pair, induced m-path counts never exceed fib(m)."""
    t0 = time.perf_counter()
    observed: dict = {}
    ok = True
    for n in range(3, 9):
        maxima = endpoint_pair_maxima(n, jobs=jobs)
        per_len = {}
        for m in range(2, min(n, 8) + 1):
            worst = int(maxima[:, m].max())
            per_len[str(m)] = worst
            if worst > fib(m):
                ok = False
        observed[str(n)] = per_len
    return CheckResult(
        "endpoint-path-bound",
        "C4",
        ok,
        observed,
        {"cap": {str(m): fib(m) for m in range(2, 9)}},
        time.perf_counter() - t0,
    )


def check_sandwich(jobs: int = 1) -> CheckResult:
    """Quadratic lower bound <= extremal value <= fib(k+1) * C(n, 2)."""
    t0 = time.perf_counter()
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
                if Fraction(report.max_copies) < low:
                    ok = False
            rows.append(row)
    return CheckResult(
        "path-count-sandwich",
        "C5",
        ok,
        {"rows": rows},
        {"note": "lower <= extremal <= upper on every row"},
        time.perf_counter() - t0,
    )


def check_construction_strength(jobs: int = 1) -> CheckResult:
    """Leaf-fanned gadgets reach fib(k-1)(n-2k+3)^2/4 induced (k+1)-paths."""
    t0 = time.perf_counter()
    rows = []
    ok = True
    for k in (3, 4, 5, 6):
        for n in (20, 30, 40):
            g, _ = build(ConstructionSpec("g_t_prime", t=k - 1, n=n))
            copies = count_induced_paths(g, k + 1).copies
            bound = lower_bound_value(k, n)
            rows.append({"k": k, "n": n, "copies": copies, "bound": str(bound)})
            if Fraction(copies) < bound:
                ok = False
    return CheckResult(
        "construction-lower-bound",
        "C6",
        ok,
        {"rows": rows},
        {"note": "copies >= bound on every row"},
        time.perf_counter() - t0,
    )


def check_tree_edge_cut(jobs: int = 1) -> CheckResult:
    """500 random bounded-degree trees per cap: a (n-1)/k balanced edge exists."""
    t0 = time.perf_counter()
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
    return CheckResult(
        "tree-edge-cut",
        "C7",
        failures == 0,
        {"trials": trials, "failures": failures, "max_n": max_n},
        {"failures": 0},
        time.perf_counter() - t0,
    )


def _cut_is_balanced(t: Tree, k: int, cut: tuple[int, int]) -> bool:
    """Whether ``cut`` is a tree edge leaving >= (n-1)/k nodes on each side.

    Counts the sides itself instead of trusting the cut search.  The tree
    must be shaped as :func:`random_bounded_degree_tree` emits it: edge i
    is (parent, i + 1) with parent < i + 1, so one pass over the edges in
    reverse finishes every subtree before adding it to its parent's.
    """
    n = t.n
    parent = [-1] * n
    sub = [1] * n
    for p, c in reversed(t.edges):
        parent[c] = p
        sub[p] += sub[c]
    u, v = cut
    return parent[v] == u and k * min(sub[v], n - sub[v]) >= n - 1


def chord_suite_counts(n_max: int = 8) -> dict:
    """Violation counts for the crossing-bound suite on the 2-connected corpus.

    Returns counts for: the six-product bound on phi, the quadratic bound,
    partition completeness, the first-order side lines (s1/p1/t1/q1 plus
    both size sums) and the second-order side lines (s2/p2/t2/q2),
    together with the instance total.
    """
    first_order = ("size_sum", "s1", "p1", "size_sum_prime", "t1", "q1")
    second_order = ("s2", "p2", "t2", "q2")
    counts = {
        "instances": 0,
        "phi_six_product": 0,
        "phi_quadratic": 0,
        "partition": 0,
        "first_order_lines": 0,
        "second_order_lines": 0,
    }
    for n in range(3, n_max + 1):
        for g, emb in two_connected_corpus(n):
            for st, crossing, sides in chord_instances(g, emb):
                counts["instances"] += 1
                counts["phi_six_product"] += crossing > st.six_product_bound
                counts["phi_quadratic"] += crossing > st.quadratic_bound
                rep = side_inequalities(st)
                counts["first_order_lines"] += sum(not rep[x] for x in first_order)
                counts["second_order_lines"] += sum(not rep[x] for x in second_order)
                counts["partition"] += sum(not partition_is_complete(side) for side in sides)
    return counts


def check_chord_suite(jobs: int = 1) -> CheckResult:
    """Crossing bounds, side accounting and partition completeness, n <= 8.

    Known to fail: the second-order side lines have counterexamples (the
    first appears at n = 5), documented in the README.  Everything else
    holds with zero violations.
    """
    t0 = time.perf_counter()
    counts = chord_suite_counts(8)
    expected = {key: 0 for key in counts if key != "instances"}
    ok = all(counts[key] == 0 for key in expected)
    return CheckResult(
        "chord-crossing-suite",
        "C8",
        ok,
        counts,
        expected,
        time.perf_counter() - t0,
    )


def check_p3_oracle_agreement(jobs: int = 1) -> CheckResult:
    """Closed-form and enumerative 3-path counts agree on 1000 random graphs."""
    t0 = time.perf_counter()
    rng = random.Random(_SEED)
    disagreements = 0
    for _ in range(1000):
        g = random_outerplanar(rng.randint(3, 16), rng)
        if count_induced_p3_closed_form(g) != count_induced_paths(g, 3).copies:
            disagreements += 1
    return CheckResult(
        "p3-oracle-agreement",
        "C9",
        disagreements == 0,
        {"trials": 1000, "disagreements": disagreements},
        {"disagreements": 0},
        time.perf_counter() - t0,
    )


def check_p4_extremal_report(jobs: int = 1) -> CheckResult:
    """Exact induced-4-path extremal values, at least the double-star count."""
    t0 = time.perf_counter()
    rows = []
    ok = True
    for n in range(4, 9):
        report = extremal_value(n, 4, jobs=jobs)
        floor = double_star_p4_count(n)
        rows.append({"n": n, "extremal": report.max_copies, "double_star": floor})
        if report.max_copies < floor:
            ok = False
    return CheckResult(
        "p4-extremal-report",
        "C10",
        ok,
        {"rows": rows},
        {"note": "extremal >= double_star on every row"},
        time.perf_counter() - t0,
    )


def check_graph6_roundtrip(jobs: int = 1) -> CheckResult:
    """Encode/decode identity across constructions, enumerations and randoms."""
    t0 = time.perf_counter()
    rng = random.Random(_SEED)
    bad = 0
    total = 0

    def probe(g: Graph) -> None:
        nonlocal bad, total
        total += 1
        if from_graph6(to_graph6(g)) != g:
            bad += 1

    for spec in (
        ConstructionSpec("star", n=13),
        ConstructionSpec("cycle", n=9),
        ConstructionSpec("cycle_pendant", n=8),
        ConstructionSpec("c6_chord"),
        ConstructionSpec("double_star", n=17),
        ConstructionSpec("g_t", t=9),
        ConstructionSpec("g_t_prime", t=5, n=31),
    ):
        probe(build(spec)[0])
    from .search import enumerate_outerplanar, enumerate_triangulations

    for g in enumerate_outerplanar(5):
        probe(g)
    for g in enumerate_triangulations(9):
        probe(g)
    for _ in range(200):
        n = rng.randint(1, 62)
        edges = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if rng.random() < 0.2
        ]
        probe(Graph(n, edges))
    return CheckResult(
        "graph6-roundtrip",
        "C11",
        bad == 0,
        {"graphs": total, "failures": bad},
        {"failures": 0},
        time.perf_counter() - t0,
    )


def check_triangulation_counts(jobs: int = 1) -> CheckResult:
    """Triangulation streams have Catalan(n-2) members for n <= 12."""
    t0 = time.perf_counter()
    observed = {}
    ok = True
    for n in range(3, 13):
        count = sum(1 for _ in triangulation_chord_sets(n))
        observed[str(n)] = count
        if count != catalan(n - 2):
            ok = False
    return CheckResult(
        "triangulation-counts",
        "C11",
        ok,
        observed,
        {str(n): catalan(n - 2) for n in range(3, 13)},
        time.perf_counter() - t0,
    )


def check_parallel_determinism(jobs: int = 1) -> CheckResult:
    """Search reports are byte-identical for 1, 2 and 8 workers."""
    import json

    t0 = time.perf_counter()
    ok = True
    for n, k in ((7, 3), (6, 4)):
        payloads = {
            w: json.dumps(extremal_value(n, k, jobs=w).to_json_dict(), sort_keys=False)
            for w in (1, 2, 8)
        }
        if len(set(payloads.values())) != 1:
            ok = False
    return CheckResult(
        "parallel-determinism",
        "C11",
        ok,
        {"worker_counts": [1, 2, 8]},
        {"identical": True},
        time.perf_counter() - t0,
    )


ALL_CHECKS: list[tuple[str, Callable[[int], CheckResult]]] = [
    ("p3-extremal-table", check_p3_extremal_table),
    ("p3-witnesses-n6", check_p3_witnesses_n6),
    ("fibonacci-path-recurrence", check_fibonacci_recurrence),
    ("endpoint-path-bound", check_endpoint_bound),
    ("path-count-sandwich", check_sandwich),
    ("construction-lower-bound", check_construction_strength),
    ("tree-edge-cut", check_tree_edge_cut),
    ("chord-crossing-suite", check_chord_suite),
    ("p3-oracle-agreement", check_p3_oracle_agreement),
    ("p4-extremal-report", check_p4_extremal_report),
    ("graph6-roundtrip", check_graph6_roundtrip),
    ("triangulation-counts", check_triangulation_counts),
    ("parallel-determinism", check_parallel_determinism),
]


def run_verify(only: str | None = None, jobs: int = 1) -> VerifyReport:
    checks = []
    for name, fn in ALL_CHECKS:
        if only and only not in name:
            continue
        checks.append(fn(jobs))
    return VerifyReport(checks)
