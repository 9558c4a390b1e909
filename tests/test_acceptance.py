"""Acceptance suite: one test per release criterion, one printed line each.

Criterion 8 pins the chord suite's second-order failure rather than
asserting it away.  The four second-order side-accounting lines
(s2 <= d1 - 1 + a + 1 and its mirrors) have genuine counterexamples, the
smallest on the fan-triangulated pentagon; ``verify-paper`` keeps failing
that check as written.  The test asserts the documented violation count,
that every violation sits on a side whose endpoint neighborhoods share
their boundary vertex and exceeds its line by exactly 1, and that the
line corrected by that shared-vertex term holds everywhere.  The other
parts of the criterion hold with zero violations.  See the README.
"""

import json
import time
from collections import Counter
from fractions import Fraction
from math import comb

from outerpath import (
    ConstructionSpec,
    Graph,
    build,
    canonical_form,
    count_induced_paths,
    count_induced_paths_between,
    double_star_p4_count,
    fib,
    h_count,
    lower_bound_value,
)
from outerpath.chords import chord_instances, partition_is_complete, side_inequalities
from outerpath.polygon import catalan, triangulation_chord_sets
from outerpath.search import endpoint_pair_maxima, extremal_value
from outerpath.verify import (
    check_graph6_roundtrip,
    check_tree_edge_cut,
    chord_suite_counts,
)

from helpers import brute_side_p3_counts, enumerate_outerplanar, two_connected_corpus


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num:02d} [{'pass' if ok else 'FAIL'}]: {detail}")


def test_criterion_01_p3_extremal_table():
    t0 = time.perf_counter()
    expected = {4: 4, 5: 6, 6: 10, 7: 15, 8: 21}
    observed = {}
    witnesses = {}
    for n in range(4, 9):
        rep = extremal_value(n, 3)
        observed[n] = rep.max_copies
        witnesses[n] = rep.witnesses
    elapsed = time.perf_counter() - t0
    ok = observed == expected and elapsed < 120
    # small-case witnesses match the stated extremal graphs
    ok &= witnesses[4] == (canonical_form(Graph(4, [(i, (i + 1) % 4) for i in range(4)])),)
    pendant5 = Graph(5, [(i, (i + 1) % 4) for i in range(4)] + [(0, 4)])
    ok &= canonical_form(pendant5) in witnesses[5]
    # uniqueness of the star from n = 7 on, and the binomial formula
    for n in (7, 8):
        star = Graph(n, [(0, v) for v in range(1, n)])
        ok &= witnesses[n] == (canonical_form(star),)
        ok &= observed[n] == comb(n - 1, 2)
    _report(1, ok, f"values {observed} in {elapsed:.1f}s")
    assert observed == expected
    assert elapsed < 120
    assert ok


def test_criterion_02_witness_sets_n6():
    rep = extremal_value(6, 3)
    star6 = canonical_form(Graph(6, [(0, v) for v in range(1, 6)]))
    hexchord = canonical_form(build(ConstructionSpec("c6_chord"))[0])
    ok = star6 in rep.witnesses and hexchord in rep.witnesses
    _report(2, ok, f"n=6 witness classes found: {list(rep.witnesses)}")
    assert ok


def test_criterion_03_fibonacci_recurrence():
    t0 = time.perf_counter()
    observed = {t: h_count(t) for t in range(2, 13)}
    elapsed = time.perf_counter() - t0
    ok = all(observed[t] == fib(t) for t in range(2, 13)) and elapsed < 10
    _report(3, ok, f"h(2..12) = {list(observed.values())} in {elapsed:.2f}s")
    assert ok


def test_criterion_04_endpoint_bound():
    violations = 0
    worst = {}
    # class-complete sweep for every n <= 8 via the subset census
    for n in range(3, 9):
        rows = endpoint_pair_maxima(n).tolist()
        for m in range(2, n + 1):
            observed = max(row[m] for row in rows)
            worst[m] = max(worst.get(m, 0), observed)
            if observed > fib(m):
                violations += 1
    # direct route on the full small enumeration, per the operation itself
    for n in (4, 5):
        for g in enumerate_outerplanar(n):
            for x in range(n):
                for y in range(x + 1, n):
                    for m in range(2, n + 1):
                        if count_induced_paths_between(g, x, y, m) > fib(m):
                            violations += 1
    ok = violations == 0
    _report(4, ok, f"max per length {worst} all within fib; violations={violations}")
    assert ok


def test_criterion_05_sandwich():
    rows = 0
    violations = []
    for k in range(1, 6):
        for n in range(k + 2, 9):
            ex = extremal_value(n, k + 1).max_copies
            if ex > fib(k + 1) * comb(n, 2):
                violations.append(("upper", k, n))
            if k >= 2 and n >= 2 * k:
                if Fraction(ex) < lower_bound_value(k, n):
                    violations.append(("lower", k, n))
            rows += 1
    ok = not violations
    _report(5, ok, f"{rows} (k, n) rows checked; violations={violations}")
    assert ok


def test_criterion_06_construction_strength():
    ok = True
    details = []
    for k in (3, 4, 5, 6):
        for n in (20, 30, 40):
            t0 = time.perf_counter()
            g, _ = build(ConstructionSpec("g_t_prime", t=k - 1, n=n))
            copies = count_induced_paths(g, k + 1).copies
            elapsed = time.perf_counter() - t0
            bound = lower_bound_value(k, n)
            if Fraction(copies) < bound or elapsed >= 60:
                ok = False
            details.append(f"k={k},n={n}:{copies}>={float(bound):.1f}")
    _report(6, ok, "; ".join(details))
    assert ok


def test_criterion_07_tree_edge_cut():
    result = check_tree_edge_cut()
    _report(7, result.passed, f"{result.observed}")
    assert result.passed
    assert result.observed == {"trials": 3000, "failures": 0, "max_n": 1999}


def test_criterion_08_chord_inequality_suite():
    counts = chord_suite_counts(8)
    # One more pass, over every labeled graph of the corpus, recounts the
    # totals that chord_suite_counts weights by orbit size, profiles each
    # second-order violation and checks s2/p2/t2/q2 against a naive recount.
    first_order = ("size_sum", "s1", "p1", "size_sum_prime", "t1", "q1")
    labeled = dict.fromkeys(counts, 0)
    per_line = Counter()
    excess = Counter()
    unshared = 0
    corrected = 0
    oracle_misses = 0
    first_n = None
    for n in range(3, 9):
        for g, emb in two_connected_corpus(n):
            for e, (st, crossing) in zip(g.edges(), chord_instances(g, emb)):
                u, up = st.u, st.up
                second = {"s2": u.s2, "p2": u.p2, "t2": up.s2, "q2": up.p2}
                if brute_side_p3_counts(g, emb.order, e) != second:
                    oracle_misses += 1
                written = side_inequalities(st)
                labeled["instances"] += 1
                labeled["phi_six_product"] += crossing > st.six_product_bound
                labeled["phi_quadratic"] += crossing > st.quadratic_bound
                labeled["partition"] += sum(not partition_is_complete(side) for side in (u, up))
                labeled["first_order_lines"] += sum(not written[x] for x in first_order)
                labeled["second_order_lines"] += sum(not written[x] for x in second)
                for name, cap, shared in (
                    ("s2", len(u.d1_set) + len(u.a_set), u.v_ell is not None),
                    ("p2", len(u.d2_set) + len(u.a_set), u.v_ell is not None),
                    ("t2", len(up.d1_set) + len(up.a_set), up.v_ell is not None),
                    ("q2", len(up.d2_set) + len(up.a_set), up.v_ell is not None),
                ):
                    assert written[name] == (second[name] <= cap)
                    if second[name] > cap:
                        per_line[name] += 1
                        excess[second[name] - cap] += 1
                        unshared += not shared
                        first_n = first_n or n
                    # the written line plus one for a shared boundary vertex
                    if second[name] > cap + shared:
                        corrected += 1
    # The second-order lines are false as written (README, "A failing
    # check, on purpose"), and verify-paper keeps failing C8 for them.
    # Here the failure is pinned exactly: its documented size, its
    # smallest n, and its cause, a shared boundary vertex v_ell worth
    # exactly one.
    observed = {
        **counts,
        "labeled_pass": labeled,
        "second_order_profile": sum(per_line.values()),
        "excess": set(excess),
        "first_n": first_n,
        "off_shared_v_ell": unshared,
        "corrected_lines": corrected,
        "naive_recount_misses": oracle_misses,
    }
    expected = {
        "instances": 12739,
        "phi_six_product": 0,
        "phi_quadratic": 0,
        "partition": 0,
        "first_order_lines": 0,
        "second_order_lines": 1274,
        "second_order_profile": 1274,
        "excess": {1},
        "first_n": 5,
        "off_shared_v_ell": 0,
        "corrected_lines": 0,
        "naive_recount_misses": 0,
    }
    # the orbit-weighted totals equal those of the labeled pass
    expected["labeled_pass"] = {key: expected[key] for key in counts}
    ok = observed == expected
    _report(
        8,
        ok,
        f"{counts['instances']} chord instances; violations: "
        f"six-product={counts['phi_six_product']}, quadratic={counts['phi_quadratic']}, "
        f"partition={counts['partition']}, first-order={counts['first_order_lines']}, "
        f"second-order={counts['second_order_lines']} "
        f"({', '.join(f'{k}={per_line[k]}' for k in ('s2', 'p2', 't2', 'q2'))}; "
        f"excess {sorted(excess)}; off a shared v_ell {unshared}; first at n={first_n}); "
        f"corrected line +[v_ell shared] violations={corrected}; "
        f"naive recount mismatches={oracle_misses}",
    )
    assert observed == expected


def test_criterion_09_oracle_equivalence():
    import random

    from outerpath import count_induced_p3_closed_form
    from outerpath.polygon import random_outerplanar

    rng = random.Random(20240801)
    bad = 0
    for _ in range(1000):
        g = random_outerplanar(rng.randint(3, 16), rng)
        if count_induced_p3_closed_form(g) != count_induced_paths(g, 3).copies:
            bad += 1
    _report(9, bad == 0, f"1000 random graphs n<=16; disagreements={bad}")
    assert bad == 0


def test_criterion_10_p4_report():
    rows = {}
    ok = True
    for n in range(4, 9):
        ex = extremal_value(n, 4).max_copies
        rows[n] = ex
        if ex < double_star_p4_count(n):
            ok = False
    _report(10, ok, f"exact induced-P4 extremal values {rows}, all >= double-star count")
    assert ok


def test_criterion_11_infrastructure():
    roundtrip = check_graph6_roundtrip()
    tri_ok = all(
        sum(1 for _ in triangulation_chord_sets(n)) == catalan(n - 2) for n in range(3, 13)
    )
    payloads = {
        jobs: json.dumps(extremal_value(7, 3, jobs=jobs).to_json_dict())
        for jobs in (1, 2, 8)
    }
    workers_ok = len(set(payloads.values())) == 1
    ok = roundtrip.passed and tri_ok and workers_ok
    _report(
        11,
        ok,
        f"graph6 roundtrip {roundtrip.observed}; Catalan counts n<=12 ok={tri_ok}; "
        f"1/2/8-worker reports identical={workers_ok}",
    )
    assert ok
