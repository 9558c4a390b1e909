from itertools import combinations, permutations

import pytest

from outerpath import (
    Graph,
    OuterEmbedding,
    check_crossing_bound,
    check_quadratic_bound,
    chord_stats,
    partition_is_complete,
    phi,
    side_inequalities,
    side_partition,
    split_by_chord,
)
from outerpath.verify import two_connected_corpus

from helpers import brute_side_classes, side_arc


def cycle(n):
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def brute_phi(g, emb, chord, k):
    """Independent crossing count: scan all ordered k-tuples."""
    u, up = split_by_chord(g, emb, chord)
    strict_u = u & ~(1 << chord[0]) & ~(1 << chord[1])
    strict_up = up & ~(1 << chord[0]) & ~(1 << chord[1])
    count = 0
    for verts in combinations(range(g.n), k):
        for order in permutations(verts):
            if order[0] > order[-1]:
                continue
            if all(
                g.has_edge(order[i], order[j]) == (j == i + 1)
                for i in range(k)
                for j in range(i + 1, k)
            ):
                pm = sum(1 << v for v in order)
                if pm & strict_u and pm & strict_up:
                    count += 1
    return count


class TestChordStats:
    def test_c6_long_chord_neighbor_counts(self):
        g = cycle(6).with_edges([(0, 3)])
        st = chord_stats(g, OuterEmbedding.identity(6), (0, 3))
        assert (st.n1, st.n2) == (4, 4)
        assert (st.s1, st.p1, st.t1, st.q1) == (1, 1, 1, 1)

    def test_side_sizes_sum(self):
        for n in (5, 6, 7):
            for g, emb in two_connected_corpus(n):
                for e in g.edges():
                    st = chord_stats(g, emb, e)
                    assert st.n1 + st.n2 == n + 2

    def test_degenerate_cycle_edge_side(self):
        g = cycle(6)
        st = chord_stats(g, OuterEmbedding.identity(6), (0, 1))
        assert st.n1 == 2
        assert (st.s1, st.s2, st.p1, st.p2) == (0, 0, 0, 0)

    def test_non_edge_rejected(self):
        with pytest.raises(ValueError):
            chord_stats(cycle(6), OuterEmbedding.identity(6), (0, 2))

    def test_requires_two_connected(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3)])
        with pytest.raises(ValueError):
            chord_stats(g, OuterEmbedding.identity(4), (0, 1))

    def test_d_sizes_odd_or_zero(self):
        for n in range(3, 8):
            for g, emb in two_connected_corpus(n):
                for e in g.edges():
                    st = chord_stats(g, emb, e)
                    for d in (st.d1, st.d2, st.d1_prime, st.d2_prime):
                        assert d == 0 or d % 2 == 1


class TestFacts:
    def test_fact1_neighbor_orderings_never_interleave(self):
        # x-neighbors precede y-neighbors along each side arc
        for n in range(4, 8):
            for g, emb in two_connected_corpus(n):
                for e in g.edges():
                    for primed in (False, True):
                        part = side_partition(g, emb, e, primed)
                        arc_pos = {v: i for i, v in enumerate(part.seq)}
                        if part.ox and part.oy:
                            assert arc_pos[part.oy[0]] >= arc_pos[part.ox[-1]]

    def test_fact3_one_double_contributor_per_gap(self):
        for n in range(5, 8):
            for g, emb in two_connected_corpus(n):
                for e in g.edges():
                    for primed in (False, True):
                        part = side_partition(g, emb, e, primed)
                        x = part.x
                        interior = set(part.seq[1:-1])
                        arc_pos = {v: i for i, v in enumerate(part.seq)}
                        for c, cnext in zip(part.ox, part.ox[1:]):
                            gap = [
                                w
                                for w in interior
                                if arc_pos[c] < arc_pos[w] < arc_pos[cnext]
                            ]
                            doubles = [
                                w
                                for w in gap
                                if not g.has_edge(x, w)
                                and sum(g.has_edge(w, o) for o in part.ox) >= 2
                            ]
                            assert len(doubles) <= 1


class TestPartition:
    def test_complete_on_corpus(self):
        for n in range(3, 8):
            for g, emb in two_connected_corpus(n):
                for e in g.edges():
                    for primed in (False, True):
                        assert partition_is_complete(side_partition(g, emb, e, primed))

    def test_classes_agree_with_naive_definitions(self):
        for n in range(3, 8):
            for g, emb in two_connected_corpus(n):
                for e in g.edges():
                    for primed, step in ((False, 1), (True, -1)):
                        part = side_partition(g, emb, e, primed)
                        seq = side_arc(emb.order, e, step)
                        assert part.seq == tuple(seq)
                        classes = (part.a_set, part.b1_set, part.b2_set, part.d1_set, part.d2_set)
                        assert list(brute_side_classes(g, seq).values()) == list(classes)

    def test_reversed_chord_mirrors_the_side(self):
        # walking the same arc from y swaps the roles of x and y
        for n in range(3, 8):
            for g, emb in two_connected_corpus(n):
                for x, y in g.edges():
                    u = side_partition(g, emb, (x, y))
                    m = side_partition(g, emb, (y, x), True)
                    assert m.seq == u.seq[::-1]
                    assert (m.ox, m.oy) == (u.oy[::-1], u.ox[::-1])
                    assert (m.s1, m.s2, m.p1, m.p2) == (u.p1, u.p2, u.s1, u.s2)
                    assert (m.b1_set, m.b2_set, m.d1_set, m.d2_set) == (u.b2_set, u.b1_set, u.d2_set, u.d1_set)
                    assert (m.a_set, m.v_ell) == (u.a_set, u.v_ell)

    def test_shared_vertex_lives_in_both_d_classes(self):
        g = cycle(6).with_edges([(0, 3), (1, 3), (0, 4)])
        part = side_partition(g, OuterEmbedding.identity(6), (0, 4))
        assert part.v_ell == 3
        assert 3 in part.d1_set and 3 in part.d2_set


class TestPhi:
    def test_agrees_with_brute_classification(self):
        g = cycle(6).with_edges([(0, 3)])
        emb = OuterEmbedding.identity(6)
        assert phi(g, emb, (0, 3)) == brute_phi(g, emb, (0, 3), 4)

    def test_diamond_has_no_induced_p4(self):
        g = cycle(4).with_edges([(0, 2)])
        emb = OuterEmbedding.identity(4)
        for e in g.edges():
            assert phi(g, emb, e) == 0

    def test_agrees_with_brute_on_corpus_n6(self):
        for g, emb in two_connected_corpus(6):
            for e in g.edges():
                assert phi(g, emb, e) == brute_phi(g, emb, e, 4)

    def test_triangle_has_no_p4_at_all(self):
        g = cycle(3)
        assert phi(g, OuterEmbedding.identity(3), (0, 1)) == 0


class TestInequalities:
    def test_eq1_holds_on_corpus(self):
        for n in range(3, 8):
            for g, emb in two_connected_corpus(n):
                for e in g.edges():
                    assert check_crossing_bound(g, emb, e)

    def test_quadratic_bound_holds_on_corpus(self):
        for n in range(3, 8):
            for g, emb in two_connected_corpus(n):
                for e in g.edges():
                    assert check_quadratic_bound(g, emb, e)

    def test_neighbor_count_lines_hold_on_corpus(self):
        # the s1/p1/t1/q1 lines and both size sums are identities of the
        # partition; the s2/p2/t2/q2 lines fail as written, and the
        # acceptance suite pins their violation count and cause
        solid = ("size_sum", "s1", "p1", "size_sum_prime", "t1", "q1")
        for n in range(3, 8):
            for g, emb in two_connected_corpus(n):
                for e in g.edges():
                    rep = side_inequalities(chord_stats(g, emb, e))
                    assert all(rep[name] for name in solid)

    def test_known_s2_family_counterexample(self):
        # smallest-style instance where the second-order side accounting
        # fails: the shared vertex 3 is adjacent to two earlier interior
        # vertices, giving p2 = 2 against the claimed cap of 1
        g = cycle(6).with_edges([(0, 3), (1, 3), (0, 4)])
        st = chord_stats(g, OuterEmbedding.identity(6), (0, 4))
        assert st.p2 == 2
        assert st.d2 - 1 + st.a + 1 == 1
        assert not side_inequalities(st)["p2"]

    def test_readme_pentagon_fan_counterexample(self):
        # the README's smallest counterexample: vertex 4 joined to every
        # other pentagon vertex, split along (0, 1).  The big side, walked
        # 0, 4, 3, 2, 1, has 4 as the single 0-neighbor and the first
        # 1-neighbor (a shared v_ell'), and 0-4-3, 0-4-2 give t2 = 2
        # against d1' - 1 + a' + 1 = 1
        g = cycle(5).with_edges([(4, 1), (4, 2)])
        st = chord_stats(g, OuterEmbedding.identity(5), (0, 1))
        assert (st.n1, st.n2) == (2, 5)
        assert st.t2 == 2
        assert (st.d1_prime, st.a_prime) == (1, 0)
        assert st.has_v_ell_prime
        assert not side_inequalities(st)["t2"]
