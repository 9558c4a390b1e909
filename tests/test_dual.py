import random
from collections import Counter
from fractions import Fraction
from itertools import combinations

import pytest

from outerpath import (
    Graph,
    OuterEmbedding,
    Tree,
    balanced_edge_cut,
    maximal_completion,
    verify,
    weak_dual,
)
from outerpath.chords import chord_stats
from outerpath.polygon import random_outerplanar, triangulation_chord_sets


def cycle(n):
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def triangles(g):
    # every 3-clique, in ascending order
    return tuple(t for t in combinations(range(g.n), 3) if all(g.has_edge(u, v) for u, v in combinations(t, 2)))


def path_tree(n):
    return Tree(n, tuple((i, i + 1) for i in range(n - 1)))


def max_degree(t):
    return max(Counter(v for e in t.edges for v in e).values(), default=0)


def component(t, start, cut):
    # nodes reachable from start once the edge cut is removed
    neigh = {i: [] for i in range(t.n)}
    for a, b in t.edges:
        if {a, b} != set(cut):
            neigh[a].append(b)
            neigh[b].append(a)
    seen = {start}
    stack = [start]
    while stack:
        w = stack.pop()
        for z in neigh[w]:
            if z not in seen:
                seen.add(z)
                stack.append(z)
    return seen


def random_bounded_degree_tree(n, k, rng):
    # reference for outerpath.verify.random_bounded_degree_tree, which
    # must make the same draws and return the same edges
    edges = []
    deg = [0] * n
    available = [0]
    for v in range(1, n):
        i = rng.randrange(len(available))
        parent = available[i]
        edges.append((parent, v))
        deg[parent] += 1
        deg[v] += 1
        if deg[parent] >= k:
            available[i] = available[-1]
            available.pop()
        available.append(v)
    return Tree(n, tuple(edges))


class TestTree:
    def test_validates_shape(self):
        with pytest.raises(ValueError):
            Tree(3, ((0, 1),))
        with pytest.raises(ValueError):
            Tree(3, ((0, 1), (0, 1)))
        with pytest.raises(ValueError):
            Tree(4, ((0, 1), (2, 3), (0, 1)))
        with pytest.raises(ValueError):
            Tree(0, ())
        with pytest.raises(ValueError):
            Tree(3, ((0, 1), (1, 5)))
        with pytest.raises(ValueError):
            Tree(3, ((0, 1), (-1, 2)))
        with pytest.raises(ValueError):
            Tree(2, ((0, 0),))
        # edges come parent-first, in connected order from the root
        with pytest.raises(ValueError):
            Tree(3, ((1, 2), (0, 1)))
        with pytest.raises(ValueError):
            Tree(3, ((0, 1), (2, 1)))

    def test_single_node(self):
        assert Tree(1, ()).edges == ()
        with pytest.raises(ValueError):
            balanced_edge_cut(Tree(1, ()), 3)


class TestWeakDual:
    def test_triangle_is_single_node(self):
        dual = weak_dual(cycle(3), OuterEmbedding.identity(3))
        assert dual.nodes == ((0, 1, 2),)
        assert dual.edges == ()

    def test_pentagon_fan_is_dual_path(self):
        g = cycle(5).with_edges([(0, 2), (0, 3)])
        dual = weak_dual(g, OuterEmbedding.identity(5))
        assert dual.nodes == ((0, 1, 2), (0, 2, 3), (0, 3, 4))
        assert dual.edges == ((0, 1), (1, 2))
        assert dual.shared_edge[(0, 1)] == (0, 2)
        assert dual.shared_edge[(1, 2)] == (0, 3)

    def test_rejects_non_maximal(self):
        with pytest.raises(ValueError):
            weak_dual(cycle(5), OuterEmbedding.identity(5))

    def test_every_triangulation_gives_tree_with_max_degree_3(self):
        for n in range(3, 9):
            cyc = [(i, (i + 1) % n) for i in range(n)]
            for chords in triangulation_chord_sets(n):
                dual = weak_dual(Graph(n, cyc + list(chords)), OuterEmbedding.identity(n))
                assert len(dual.nodes) == n - 2
                t = dual.to_tree()
                assert max_degree(t) <= 3
                assert sorted(tuple(sorted(e)) for e in t.edges) == list(dual.edges)
                # interior host edges (the chords) each back exactly one dual edge
                hosts = sorted(dual.shared_edge.values())
                assert hosts == sorted(chords)

    def test_nodes_are_the_triangles_of_every_triangulation(self):
        # in a maximal outerplanar graph every triangle is a bounded face
        for n in range(3, 10):
            cyc = [(i, (i + 1) % n) for i in range(n)]
            for chords in triangulation_chord_sets(n):
                g = Graph(n, cyc + list(chords))
                assert weak_dual(g, OuterEmbedding.identity(n)).nodes == triangles(g)

    def test_nodes_are_the_triangles_of_completed_random_graphs(self):
        rng = random.Random(8)
        for _ in range(300):
            g = random_outerplanar(rng.randint(3, 16), rng)
            emb = OuterEmbedding.identity(g.n)
            full = maximal_completion(g, emb)
            assert weak_dual(full, emb).nodes == triangles(full)

    def test_completion_then_dual(self):
        g = maximal_completion(cycle(6), OuterEmbedding.identity(6))
        dual = weak_dual(g, OuterEmbedding.identity(6))
        assert len(dual.nodes) == 4


class TestBalancedEdgeCut:
    def test_star_boundary_case(self):
        t = Tree(4, ((0, 1), (0, 2), (0, 3)))
        edge = balanced_edge_cut(t, 3)
        assert edge in {(0, 1), (0, 2), (0, 3)}

    def test_path7_middle_edge(self):
        edge = balanced_edge_cut(path_tree(7), 3)
        assert edge in {(2, 3), (3, 4)}
        sides = sorted((min(edge) + 1, 7 - min(edge) - 1))
        assert sides == [3, 4]

    def test_ties_go_to_the_smallest_edge(self):
        assert balanced_edge_cut(path_tree(7), 3) == (2, 3)
        assert balanced_edge_cut(Tree(4, ((0, 1), (0, 2), (0, 3))), 3) == (0, 1)
        # the search meets these edges largest first
        assert balanced_edge_cut(Tree(4, ((3, 0), (3, 1), (3, 2))), 3) == (0, 3)

    def test_degree_cap_enforced(self):
        t = Tree(5, ((0, 1), (0, 2), (0, 3), (0, 4)))
        with pytest.raises(ValueError):
            balanced_edge_cut(t, 3)
        assert balanced_edge_cut(t, 4) in {(0, i) for i in range(1, 5)}

    def test_random_trees_meet_threshold(self):
        rng = random.Random(1717)
        for _ in range(300):
            k = rng.randint(3, 8)
            n = rng.randint(2, 400)
            t = random_bounded_degree_tree(n, k, rng)
            u, v = balanced_edge_cut(t, k)
            # recount both sides independently of the implementation
            seen = component(t, u, (u, v))
            small = min(len(seen), n - len(seen))
            assert Fraction(small) >= Fraction(n - 1, k)
            if n > 120:
                continue  # the recount below is quadratic in n
            # the rule itself: the largest smaller side, then the smallest edge
            sides = {}
            for a, b in t.edges:
                size = len(component(t, a, (a, b)))
                sides[min(a, b), max(a, b)] = min(size, n - size)
            largest = max(sides.values())
            assert small == largest
            assert (u, v) == min(e for e, side in sides.items() if side == largest)


class TestTreeEdgeCutCheck:
    def test_generator_keeps_the_random_stream(self):
        for n in (1, 2, 3, 50, 2000):
            for k in range(3, 9):
                seed = 1000 * n + k
                ref_rng, rng = random.Random(seed), random.Random(seed)
                expected = random_bounded_degree_tree(n, k, ref_rng)
                assert verify.random_bounded_degree_tree(n, k, rng).edges == expected.edges
                assert rng.getstate() == ref_rng.getstate()

    def test_generator_output_passes_the_public_checks(self):
        # the generator builds its trees without Tree's validation
        for n in (1, 2, 50, 2000):
            for k in range(3, 9):
                t = verify.random_bounded_degree_tree(n, k, random.Random(31 * n + k))
                assert Tree(t.n, t.edges) == t
                assert max_degree(t) <= k

    def test_recount_accepts_tree_edges_in_either_order(self):
        assert verify._cut_is_balanced(path_tree(7), 3, (2, 3))
        assert verify._cut_is_balanced(path_tree(7), 3, (3, 2))
        assert verify._cut_is_balanced(path_tree(7), 3, (3, 4))
        assert verify._cut_is_balanced(Tree(4, ((0, 1), (0, 2), (0, 3))), 3, (2, 0))
        t = path_tree(3)
        assert verify._cut_is_balanced(t, 3, (0, 1))
        assert verify._cut_is_balanced(t, 3, (1, 0))
        assert not verify._cut_is_balanced(t, 3, (0, 2))
        assert not verify._cut_is_balanced(t, 3, (2, 0))

    def test_recount_accepts_the_cut_search_where_parents_are_above_children(self):
        # balanced_edge_cut returns (low, high), here (child, parent)
        star = Tree(4, ((3, 0), (3, 1), (3, 2)))
        path = Tree(5, ((4, 3), (3, 2), (2, 1), (1, 0)))
        for t, cut in ((star, (0, 3)), (path, (1, 2))):
            assert balanced_edge_cut(t, 3) == cut
            assert verify._cut_is_balanced(t, 3, cut)

    def test_recount_rejects_unbalanced_edges(self):
        t = path_tree(20)
        for k in range(3, 9):
            assert not verify._cut_is_balanced(t, k, (0, 1))
            assert not verify._cut_is_balanced(t, k, (18, 19))
        assert verify._cut_is_balanced(t, 3, (6, 7))
        assert not verify._cut_is_balanced(t, 3, (5, 6))
        assert not verify._cut_is_balanced(t, 3, (13, 14))

    def test_recount_agrees_with_a_search_of_the_cut_tree(self):
        rng = random.Random(4242)
        for _ in range(200):
            k = rng.randint(3, 8)
            n = rng.randint(2, 60)
            t = random_bounded_degree_tree(n, k, rng)
            for u, v in t.edges:
                seen = component(t, u, (u, v))
                assert verify._cut_is_balanced(t, k, (u, v)) == (
                    k * min(len(seen), n - len(seen)) >= n - 1
                )


def side_face_counts(t, cut):
    """Face counts of the two components of the dual tree ``t`` minus the edge ``cut``."""
    side = len(component(t, cut[0], cut))
    return side, t.n - side


class TestDualCutBridge:
    def test_cut_chord_balances_faces(self):
        # dual edge chosen by the tree cut maps to a chord whose sides both
        # hold at least (f-1)/3 faces, f = n-2
        for n in range(5, 9):
            cyc = [(i, (i + 1) % n) for i in range(n)]
            emb = OuterEmbedding.identity(n)
            for chords in triangulation_chord_sets(n):
                g = Graph(n, cyc + list(chords))
                dual = weak_dual(g, emb)
                t = dual.to_tree()
                cut = balanced_edge_cut(t, 3)
                f1, f2 = side_face_counts(t, cut)
                f = n - 2
                assert 3 * min(f1, f2) >= f - 1
                # the host edge of the cut splits vertices consistently
                host = dual.shared_edge[cut]
                st = chord_stats(g, emb, host)
                assert {len(st.u.seq), len(st.up.seq)} == {f1 + 2, f2 + 2}
