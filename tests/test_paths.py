import random
from collections import Counter

import pytest

from outerpath import (
    ConstructionSpec,
    Graph,
    build,
    count_induced_p3_closed_form,
    count_induced_paths,
    count_induced_paths_between,
    iter_induced_paths,
)
from outerpath.polygon import random_outerplanar

from helpers import (
    brute_count_between,
    brute_count_induced_paths,
    middle_edge_p4_count,
    random_edges,
    random_graph,
    random_outerplanar_edges,
)


def cycle(n):
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def star(n):
    return Graph(n, [(0, v) for v in range(1, n)])


class TestCountInducedPaths:
    def test_known_small_values(self):
        assert count_induced_paths(star(7), 3).copies == 15
        assert count_induced_paths(cycle(4), 3).copies == 4
        assert count_induced_paths(cycle(6).with_edges([(0, 3)]), 3).copies == 10
        # the 5-vertex pendant cycle: C4 plus one leaf
        c4_pendant = Graph(5, [(i, (i + 1) % 4) for i in range(4)] + [(0, 4)])
        assert count_induced_paths(c4_pendant, 3).copies == 6
        # value frozen from the permutation-scan oracle
        assert count_induced_paths(cycle(6), 4).copies == 6

    def test_k1_and_k2(self):
        rng = random.Random(8)
        for _ in range(30):
            g = random_graph(rng.randint(1, 10), rng.random(), rng)
            assert count_induced_paths(g, 1).copies == g.n
            if g.n >= 2:
                assert count_induced_paths(g, 2).copies == g.edge_count()

    def test_out_of_range_k(self):
        with pytest.raises(ValueError):
            count_induced_paths(cycle(4), 0)
        with pytest.raises(ValueError):
            count_induced_paths(cycle(4), 5)

    def test_matches_brute_force(self):
        rng = random.Random(21)
        for _ in range(60):
            n = rng.randint(2, 8)
            g = random_graph(n, rng.uniform(0.2, 0.9), rng)
            for k in range(2, n + 1):
                assert count_induced_paths(g, k).copies == brute_count_induced_paths(g, k)

    def test_p4_matches_the_middle_edge_count_on_outerplanar_graphs(self):
        # beyond the brute force's reach, at and above the benchmark's sizes
        rng = random.Random(4004)
        for _ in range(300):
            n = rng.randint(4, 30)
            edges = random_outerplanar_edges(n, rng)
            assert count_induced_paths(Graph(n, edges), 4).copies == middle_edge_p4_count(n, edges)

    def test_p4_matches_the_middle_edge_count_on_random_graphs(self):
        rng = random.Random(4005)
        for _ in range(300):
            n = rng.randint(4, 20)
            edges = random_edges(n, rng.uniform(0.05, 0.9), rng)
            assert count_induced_paths(Graph(n, edges), 4).copies == middle_edge_p4_count(n, edges)

    def test_triangle_has_no_induced_p3(self):
        assert count_induced_paths(Graph(3, [(0, 1), (1, 2), (0, 2)]), 3).copies == 0


class TestClosedFormOracle:
    def test_known_values(self):
        assert count_induced_p3_closed_form(Graph(3, [(0, 1), (1, 2), (0, 2)])) == 0
        assert count_induced_p3_closed_form(star(7)) == 15

    def test_agrees_with_enumeration_on_random_outerplanar(self):
        rng = random.Random(314)
        for _ in range(300):
            g = random_outerplanar(rng.randint(3, 16), rng)
            assert count_induced_p3_closed_form(g) == count_induced_paths(g, 3).copies

    def test_agrees_on_arbitrary_graphs_too(self):
        rng = random.Random(2718)
        for _ in range(150):
            g = random_graph(rng.randint(3, 10), rng.random(), rng)
            assert count_induced_p3_closed_form(g) == count_induced_paths(g, 3).copies


class TestCountBetween:
    def test_c6_antipodal_arcs(self):
        assert count_induced_paths_between(cycle(6), 0, 3, 4) == 2

    def test_edge_pairs(self):
        g = cycle(5)
        assert count_induced_paths_between(g, 0, 1, 2) == 1
        assert count_induced_paths_between(g, 0, 2, 2) == 0

    def test_g4_endpoints(self):
        g, _ = build(ConstructionSpec("g_t", t=4))
        assert count_induced_paths_between(g, 0, 3, 4) == 3

    def test_matches_brute_force(self):
        rng = random.Random(55)
        for _ in range(40):
            n = rng.randint(3, 7)
            g = random_graph(n, rng.uniform(0.2, 0.9), rng)
            for k in range(2, n + 1):
                for x in range(n):
                    for y in range(x + 1, n):
                        assert count_induced_paths_between(g, x, y, k) == brute_count_between(
                            g, x, y, k
                        )

    def test_endpoint_sum_identity(self):
        rng = random.Random(808)
        for _ in range(40):
            g = random_outerplanar(rng.randint(3, 8), rng)
            for k in range(2, min(g.n, 6) + 1):
                total = sum(
                    count_induced_paths_between(g, x, y, k)
                    for x in range(g.n)
                    for y in range(x + 1, g.n)
                )
                assert total == count_induced_paths(g, k).copies

    def test_rejects_bad_arguments(self):
        g = cycle(4)
        with pytest.raises(ValueError):
            count_induced_paths_between(g, 0, 0, 3)
        with pytest.raises(ValueError):
            count_induced_paths_between(g, 0, 9, 3)
        with pytest.raises(ValueError):
            count_induced_paths_between(g, 0, 1, 1)


class TestIterInducedPaths:
    def test_paths_are_induced_and_unique(self):
        rng = random.Random(99)
        for _ in range(30):
            g = random_graph(rng.randint(2, 8), rng.uniform(0.3, 0.8), rng)
            for k in range(2, min(g.n, 5) + 1):
                paths = list(iter_induced_paths(g, k))
                for path in paths:
                    assert path[0] < path[-1]
                    for i in range(k):
                        for j in range(i + 1, k):
                            assert g.has_edge(path[i], path[j]) == (j == i + 1)
                # an induced path is fixed by its vertex set
                assert len({frozenset(path) for path in paths}) == len(paths)
                assert len(paths) == brute_count_induced_paths(g, k)

    def test_ends_agree_with_the_endpoint_counter(self):
        # two separate walkers, past the brute force's reach
        rng = random.Random(1717)
        for _ in range(40):
            n = rng.randint(9, 16)
            g = Graph(n, random_outerplanar_edges(n, rng))
            for k in range(3, 8):
                ends = Counter((path[0], path[-1]) for path in iter_induced_paths(g, k))
                for x in range(n):
                    for y in range(x + 1, n):
                        assert ends[x, y] == count_induced_paths_between(g, x, y, k)
