import random

import networkx as nx
import pytest

from outerpath import (
    Graph,
    UnsupportedSizeError,
    blocks,
    canonical_form,
    cut_vertices,
    induced_subgraph,
    is_connected,
    is_two_connected,
    to_dot,
    vertex_set,
)

from helpers import brute_cut_vertices, brute_is_two_connected, random_graph, relabel


def cycle(n):
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def star(n):
    return Graph(n, [(0, v) for v in range(1, n)])


class TestConstruction:
    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            Graph(0)
        with pytest.raises(ValueError):
            Graph(65)

    def test_rejects_loops_and_range(self):
        with pytest.raises(ValueError):
            Graph(3, [(1, 1)])
        with pytest.raises(ValueError):
            Graph(3, [(0, 3)])

    def test_symmetry_and_value_semantics(self):
        g = Graph(4, [(0, 1), (2, 1)])
        assert g.has_edge(1, 0) and g.has_edge(1, 2)
        assert g == Graph(4, [(1, 2), (1, 0)])
        assert hash(g) == hash(Graph(4, [(1, 2), (0, 1)]))

    def test_handshake(self):
        rng = random.Random(7)
        for _ in range(50):
            g = random_graph(rng.randint(1, 12), rng.random(), rng)
            assert sum(g.degree(v) for v in range(g.n)) == 2 * g.edge_count()


class TestInducedSubgraph:
    def test_consecutive_cycle_vertices_give_path(self):
        h = induced_subgraph(cycle(6), vertex_set([0, 1, 2]))
        assert h.n == 3 and sorted(h.edges()) == [(0, 1), (1, 2)]

    def test_full_set_is_identity(self):
        g = cycle(6)
        assert induced_subgraph(g, g.full_mask) == g

    def test_star_leaves_are_independent(self):
        h = induced_subgraph(star(7), vertex_set([1, 3, 5]))
        assert h.n == 3 and h.edge_count() == 0

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError):
            induced_subgraph(cycle(4), 0)

    def test_intersection_composition(self):
        rng = random.Random(11)
        for _ in range(30):
            g = random_graph(8, 0.5, rng)
            s = rng.randrange(1, 256)
            t = rng.randrange(1, 256)
            if s & t == 0:
                continue
            once = induced_subgraph(g, s & t)
            inner = induced_subgraph(g, s)
            verts = [v for v in range(8) if s >> v & 1]
            translated = vertex_set(i for i, v in enumerate(verts) if t >> v & 1)
            assert induced_subgraph(inner, translated) == once


class TestConnectivity:
    def test_c6(self):
        g = cycle(6)
        assert is_connected(g) and is_two_connected(g) and cut_vertices(g) == 0

    def test_c5_with_pendant(self):
        g = Graph(6, [(i, (i + 1) % 5) for i in range(5)] + [(0, 5)])
        assert is_connected(g)
        assert not is_two_connected(g)
        assert cut_vertices(g) == vertex_set([0])

    def test_two_disjoint_edges(self):
        g = Graph(4, [(0, 1), (2, 3)])
        assert not is_connected(g)

    def test_small_and_disconnected_blocks(self):
        # bridges are blocks, isolated vertices lie in none
        assert blocks(Graph(1)) == [] and cut_vertices(Graph(1)) == 0
        assert blocks(Graph(2)) == [] and not is_two_connected(Graph(2))
        assert blocks(Graph(2, [(0, 1)])) == [0b11] and not is_two_connected(Graph(2, [(0, 1)]))
        triangle_plus_isolated = Graph(4, [(0, 1), (1, 2), (0, 2)])
        assert blocks(triangle_plus_isolated) == [0b111]
        assert not is_two_connected(triangle_plus_isolated)
        bowtie = Graph(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)])
        assert sorted(blocks(bowtie)) == [0b00111, 0b11100]
        assert cut_vertices(bowtie) == vertex_set([2])

    def test_blocks_agree_with_removal_scan_and_networkx(self):
        rng = random.Random(2026)
        for _ in range(1500):
            n = rng.randint(1, 12)
            g = random_graph(n, rng.choice((0.1, 0.25, 0.5)), rng)
            ng = nx.Graph()
            ng.add_nodes_from(range(n))
            ng.add_edges_from(g.edges())
            assert sorted(blocks(g)) == sorted(vertex_set(c) for c in nx.biconnected_components(ng))
            assert cut_vertices(g) == brute_cut_vertices(g) == vertex_set(nx.articulation_points(ng))
            assert is_two_connected(g) == brute_is_two_connected(g)
            assert is_two_connected(g) == (n >= 3 and nx.is_biconnected(ng))

    def test_degree_example(self):
        assert star(7).degree(0) == 6
        assert all(cycle(6).degree(v) == 2 for v in range(6))


class TestCanonicalForm:
    def test_isomorphism_invariance_random(self):
        rng = random.Random(12345)
        for _ in range(200):
            n = rng.randint(1, 7)
            g = random_graph(n, rng.random(), rng)
            base = canonical_form(g)
            for _ in range(5):
                perm = list(range(n))
                rng.shuffle(perm)
                assert canonical_form(relabel(g, perm)) == base

    def test_distinguishes_c4_and_p4(self):
        c4 = cycle(4)
        p4 = Graph(4, [(0, 1), (1, 2), (2, 3)])
        assert canonical_form(c4) != canonical_form(p4)

    def test_star_has_single_form(self):
        rng = random.Random(5)
        forms = set()
        for _ in range(10):
            perm = list(range(7))
            rng.shuffle(perm)
            forms.add(canonical_form(relabel(star(7), perm)))
        assert len(forms) == 1

    def test_size_cap(self):
        with pytest.raises(UnsupportedSizeError):
            canonical_form(Graph(10))

    def test_all_four_vertex_classes(self):
        # 11 isomorphism classes of simple graphs on 4 vertices
        forms = set()
        for mask in range(1 << 6):
            pairs = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
            g = Graph(4, [pairs[i] for i in range(6) if mask >> i & 1])
            forms.add(canonical_form(g))
        assert len(forms) == 11


def test_dot_export_lists_all_vertices_and_edges():
    g = Graph(3, [(0, 2)])
    dot = to_dot(g)
    assert "0 -- 2;" in dot and "1;" in dot and dot.startswith("graph G {")
