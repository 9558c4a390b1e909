import random

import networkx as nx
import pytest

from outerpath import (
    Graph,
    UnsupportedSizeError,
    blocks,
    canonical_form,
    from_graph6,
    graph,
    is_two_connected,
    polygon,
    search,
    to_dot,
    vertex_set,
)

from helpers import (
    brute_canonical_graph6,
    brute_is_two_connected,
    random_forest,
    random_graph,
    reference_brute_form,
    relabel,
)


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


class TestConnectivity:
    def test_c6(self):
        g = cycle(6)
        assert is_two_connected(g) and blocks(g) == [g.full_mask]

    def test_c5_with_pendant(self):
        g = Graph(6, [(i, (i + 1) % 5) for i in range(5)] + [(0, 5)])
        assert not is_two_connected(g)
        # the pendant edge is a block of its own, meeting the 5-cycle at 0
        assert sorted(blocks(g)) == [vertex_set(range(5)), vertex_set([0, 5])]

    def test_two_disjoint_edges(self):
        g = Graph(4, [(0, 1), (2, 3)])
        assert sorted(blocks(g)) == [0b0011, 0b1100]
        assert not is_two_connected(g)

    def test_small_and_disconnected_blocks(self):
        # bridges are blocks, isolated vertices lie in none
        assert blocks(Graph(1)) == [] and not is_two_connected(Graph(1))
        assert blocks(Graph(2)) == [] and not is_two_connected(Graph(2))
        assert blocks(Graph(2, [(0, 1)])) == [0b11] and not is_two_connected(Graph(2, [(0, 1)]))
        triangle_plus_isolated = Graph(4, [(0, 1), (1, 2), (0, 2)])
        assert blocks(triangle_plus_isolated) == [0b111]
        assert not is_two_connected(triangle_plus_isolated)
        bowtie = Graph(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)])
        assert sorted(blocks(bowtie)) == [0b00111, 0b11100]
        assert not is_two_connected(bowtie)

    def test_blocks_agree_with_removal_scan_and_networkx(self):
        rng = random.Random(2026)
        for _ in range(1500):
            n = rng.randint(1, 12)
            g = random_graph(n, rng.choice((0.1, 0.25, 0.5)), rng)
            ng = nx.Graph()
            ng.add_nodes_from(range(n))
            ng.add_edges_from(g.edges())
            assert sorted(blocks(g)) == sorted(vertex_set(c) for c in nx.biconnected_components(ng))
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

    def test_atlas_graphs_match_a_scan_of_all_permutations(self):
        rng = random.Random(6)
        graphs = [Graph(h.number_of_nodes(), h.edges()) for h in nx.graph_atlas_g()[1:]]
        graphs = [g for g in graphs if g.n <= 6]
        # graphs on 1..6 vertices up to isomorphism (OEIS A000088)
        assert len(graphs) == 1 + 2 + 4 + 11 + 34 + 156
        for g in graphs:
            perm = list(range(g.n))
            rng.shuffle(perm)
            expected = brute_canonical_graph6(g)
            assert canonical_form(g) == canonical_form(relabel(g, perm)) == expected

    def test_branch_and_bound_matches_the_reference_node(self):
        # the search node against its earlier form, kept in helpers: random
        # graphs from sparse to dense on 1..9 vertices, then outerplanar ones
        rng = random.Random(2718)
        graphs = [random_graph(rng.randint(1, 9), rng.uniform(0.1, 0.9), rng) for _ in range(2000)]
        graphs += [polygon.random_outerplanar(rng.randint(3, 9), rng) for _ in range(1000)]
        for g in graphs:
            assert graph._brute_form(g) == reference_brute_form(g)

    def test_sweep_witnesses_match_a_scan_of_all_permutations(self):
        witnesses = {
            w for n in range(4, 8) for k in range(2, n + 1) for w in search.extremal_value(n, k).witnesses
        }
        assert len(witnesses) == 28
        for w in witnesses:
            assert brute_canonical_graph6(from_graph6(w)) == w


def _atlas_forests():
    for h in nx.graph_atlas_g():
        if h.number_of_nodes() and nx.is_forest(h):
            yield Graph(h.number_of_nodes(), h.edges())


class TestForestForm:
    def test_atlas_forests_match_a_scan_of_all_permutations(self):
        forests = list(_atlas_forests())
        # forests on 1..7 vertices (OEIS A005195)
        assert len(forests) == 1 + 2 + 3 + 6 + 10 + 20 + 37
        rng = random.Random(2024)
        for g in forests:
            expected = brute_canonical_graph6(g)
            for _ in range(20):
                perm = list(range(g.n))
                rng.shuffle(perm)
                assert canonical_form(relabel(g, perm)) == expected

    def test_same_form_as_the_branch_and_bound_alone(self):
        rng = random.Random(77)
        for n in (8, 9):
            for _ in range(25):
                g = random_forest(n, rng)
                assert canonical_form(g) == graph._brute_form(g)

    def test_relabel_is_idempotent_and_shared_by_isomorphic_forests(self):
        rng = random.Random(8)
        for n in range(1, 10):
            for _ in range(20):
                g = random_forest(n, rng)
                form = graph._forest_relabel(g)
                assert graph._forest_relabel(form) == form
                assert nx.is_isomorphic(nx.Graph(list(g.edges())), nx.Graph(list(form.edges())))
                assert form.edge_count() == g.edge_count()
                perm = list(range(n))
                rng.shuffle(perm)
                assert graph._forest_relabel(relabel(g, perm)) == form

    def test_path_cell_runs_the_brute_search_once(self, monkeypatch):
        # the 50 maximisers of the n = 9, k = 9 cell, over the orbit
        # representatives, are all P9
        brute = graph._brute_form
        searched = []

        def counted(g):
            searched.append(g)
            return brute(g)

        monkeypatch.setattr(graph, "_brute_form", counted)
        canonical_form.cache_clear()
        report = search.extremal_value(9, 9)
        assert len(searched) == 1
        assert report.witnesses == ("H??XQa_",)


def test_dot_export_lists_all_vertices_and_edges():
    g = Graph(3, [(0, 2)])
    dot = to_dot(g)
    assert "0 -- 2;" in dot and "1;" in dot and dot.startswith("graph G {")
