import random
from itertools import combinations

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from outerpath import (
    Graph,
    OuterEmbedding,
    is_outerplanar,
    is_two_connected,
    maximal_completion,
    outer_cycle,
    outerplanar,
    verify_embedding,
)
from outerpath.graph import bits, blocks, vertex_set

from helpers import orders_cross, outerplanar_by_order_search, random_graph, relabel, two_connected_corpus

K4 = Graph(4, [(a, b) for a in range(4) for b in range(a + 1, 4)])
K23 = Graph(5, [(a, b) for a in (0, 1) for b in (2, 3, 4)])


def cycle(n):
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def c6_chord():
    return cycle(6).with_edges([(0, 3)])


def apex_planarity_oracle(g: Graph) -> bool:
    """g is outerplanar iff g plus a vertex adjacent to everything is planar."""
    h = nx.Graph()
    h.add_nodes_from(range(g.n + 1))
    h.add_edges_from(g.edges())
    h.add_edges_from((g.n, v) for v in range(g.n))
    return nx.check_planarity(h)[0]


def glued_blocks(n: int, rng: random.Random, crossing_share: float) -> tuple[Graph, bool]:
    """Random polygon blocks and bridges glued at cut vertices, n vertices in all.

    Each block gets a random set of pairwise non-crossing diagonals; with
    probability ``crossing_share`` a block of 4 or more vertices also gets
    two crossing diagonals, which make it a K4 subdivision.  Returns the
    randomly relabelled graph and whether no block was given a crossing.
    """
    edges = []
    size, outer = 1, True
    while size < n:
        s = min(rng.randint(2, 9), n - size + 1)
        ring = [rng.randrange(size)] + list(range(size, size + s - 1))
        size += s - 1
        edges += [(ring[i], ring[(i + 1) % s]) for i in range(s if s > 2 else 1)]
        keep = rng.random()
        chosen = []
        diagonals = [(a, b) for a in range(s) for b in range(a + 2, s) if b - a < s - 1]
        rng.shuffle(diagonals)
        for a, b in diagonals:
            if rng.random() < keep and not any(a < c < b < d or c < a < d < b for c, d in chosen):
                chosen.append((a, b))
        if s >= 4 and rng.random() < crossing_share:
            i, j, k, l = sorted(rng.sample(range(s), 4))
            chosen += [(i, k), (j, l)]
            outer = False
        edges += [(ring[a], ring[b]) for a, b in chosen]
    perm = list(range(n))
    rng.shuffle(perm)
    return relabel(Graph(n, edges), perm), outer


class TestIsOuterplanar:
    def test_forbidden_patterns(self):
        assert not is_outerplanar(K4)
        assert not is_outerplanar(K23)

    def test_c6_with_long_chord(self):
        assert is_outerplanar(c6_chord())

    def test_edge_bound_fast_reject(self):
        g = Graph(6, [(a, b) for a in range(6) for b in range(a + 1, 6)])
        assert not is_outerplanar(g)

    def test_small_graphs_always(self):
        assert is_outerplanar(Graph(1))
        assert is_outerplanar(Graph(3, [(0, 1), (1, 2), (0, 2)]))

    def test_agreement_with_apex_planarity_n17_to_40(self):
        # glued blocks: several non-trivial blocks per graph, and about half
        # of the graphs have K4-subdivided blocks under the 2n-3 edge bound
        rng = random.Random(1979)
        for n in range(17, 41):
            for _ in range(8):
                g, outer = glued_blocks(n, rng, crossing_share=0.15)
                assert is_outerplanar(g) == apex_planarity_oracle(g) == outer
        # one failing block among passing ones: a triangle, a hexagon with
        # its long chord, a K2,3 and a heptagon with a fan, chained at cut
        # vertices 2, 7 and 11; dropping one K2,3 edge makes it outerplanar
        good = [(0, 1), (1, 2), (0, 2), (7, 2), (2, 5), (17, 11), (11, 13), (11, 14)]
        good += [(i, i + 1) for i in (2, 3, 4, 5, 6, 11, 12, 13, 14, 15, 16)]
        k23 = [(a, b) for a in (7, 8) for b in (9, 10, 11)]
        for _ in range(20):
            perm = list(range(18))
            rng.shuffle(perm)
            bad = relabel(Graph(18, good + k23), perm)
            fixed = relabel(Graph(18, good + k23[:-1]), perm)
            assert not is_outerplanar(bad) and not apex_planarity_oracle(bad)
            assert is_outerplanar(fixed) and apex_planarity_oracle(fixed)

    def test_exhaustive_agreement_n5(self):
        # all labeled graphs on 5 vertices against the order-search oracle
        pairs = list(combinations(range(5), 2))
        for mask in range(1 << 10):
            g = Graph(5, [pairs[i] for i in range(10) if mask >> i & 1])
            assert is_outerplanar(g) == outerplanar_by_order_search(g)

    def test_sampled_agreement_with_order_search_n6(self):
        rng = random.Random(2024)
        for _ in range(150):
            g = random_graph(6, rng.uniform(0.2, 0.8), rng)
            assert is_outerplanar(g) == outerplanar_by_order_search(g)

    def test_sampled_agreement_with_apex_planarity(self):
        rng = random.Random(625)
        for _ in range(300):
            n = rng.randint(4, 12)
            g = random_graph(n, rng.uniform(0.1, 0.6), rng)
            assert is_outerplanar(g) == apex_planarity_oracle(g)


class TestVerifyEmbedding:
    def test_c6_chord_natural_order(self):
        assert verify_embedding(c6_chord(), OuterEmbedding.identity(6))

    def test_k4_crosses_in_every_order(self):
        from itertools import permutations

        for perm in permutations(range(4)):
            assert not verify_embedding(K4, OuterEmbedding(perm))

    def test_fan_hexagon(self):
        g = cycle(6).with_edges([(0, 2), (0, 3), (0, 4)])
        assert verify_embedding(g, OuterEmbedding.identity(6))

    def test_crossing_detected(self):
        g = cycle(6).with_edges([(0, 3), (1, 4)])
        assert not verify_embedding(g, OuterEmbedding.identity(6))

    def test_non_permutation_rejected(self):
        with pytest.raises(ValueError):
            verify_embedding(cycle(4), OuterEmbedding((0, 1, 2, 2)))

    def test_nested_chords_sharing_endpoints(self):
        # (0,2), (2,4) and (0,4) pairwise share an endpoint, and all nest in (0,5)
        g = cycle(6).with_edges([(0, 2), (2, 4), (0, 4)])
        assert verify_embedding(g, OuterEmbedding.identity(6))

    def test_crossing_pair_depends_on_order(self):
        g = Graph(4, [(0, 2), (1, 3)])
        assert not verify_embedding(g, OuterEmbedding.identity(4))
        assert verify_embedding(g, OuterEmbedding((0, 2, 1, 3)))

    def test_agrees_with_all_pairs_oracle(self):
        rng = random.Random(20261018)
        verdicts = set()
        for n in range(1, 13):
            for _ in range(120):
                g = random_graph(n, rng.uniform(0.05, 0.7), rng)
                order = list(range(n))
                rng.shuffle(order)
                expected = not orders_cross(g, tuple(order))
                assert verify_embedding(g, OuterEmbedding(tuple(order))) == expected, (list(g.edges()), order)
                verdicts.add(expected)
        assert verdicts == {True, False}

    def test_order_string_round_trip(self):
        emb = OuterEmbedding.from_string("2,0,1")
        assert emb.order == (2, 0, 1)
        assert emb.to_string() == "2,0,1"


class TestOuterCycle:
    def test_c6_chord_recovers_cycle_order(self):
        emb = outer_cycle(c6_chord())
        assert emb.order == tuple(range(6))

    def test_c4_is_its_own_order(self):
        assert outer_cycle(cycle(4)).order == (0, 1, 2, 3)

    def test_fan_hexagon(self):
        g = cycle(6).with_edges([(0, 2), (0, 3), (0, 4)])
        emb = outer_cycle(g)
        assert emb.order == tuple(range(6))
        assert verify_embedding(g, emb)

    def test_rejects_non_two_connected(self):
        with pytest.raises(ValueError):
            outer_cycle(Graph(4, [(0, 1), (1, 2), (2, 3)]))

    def test_rejects_k4(self):
        with pytest.raises(ValueError):
            outer_cycle(K4)

    def test_unique_hamiltonian_cycle_exhaustive(self):
        # 2-connected outerplanar graphs on n <= 8: exactly one cycle up to
        # rotation and reflection, i.e. two directed traversals from a
        # fixed start.  outer_cycle finds it as the corpus's identity
        # order, and after a random relabelling as the relabelled cycle
        # with 0 first and its smaller neighbor second
        def directed_ham_cycles(g):
            # grow paths from 0 along edges only; each one that covers
            # every vertex and closes back to 0 is one directed cycle
            adj = [[w for w in range(g.n) if g.has_edge(v, w)] for v in range(g.n)]

            def extend(v, used, length):
                if length == g.n:
                    return int(g.has_edge(v, 0))
                return sum(
                    extend(w, used | 1 << w, length + 1) for w in adj[v] if not used >> w & 1
                )

            return extend(0, 1, 1)

        def cycle_edges(order):
            return {frozenset((order[i - 1], order[i])) for i in range(len(order))}

        rng = random.Random(1979)
        for n in (5, 6, 7, 8):
            for g, _ in two_connected_corpus(n):
                assert is_two_connected(g)
                assert directed_ham_cycles(g) == 2
                assert outer_cycle(g).order == tuple(range(n))
                perm = rng.sample(range(n), n)
                order = outer_cycle(relabel(g, perm)).order
                assert order[0] == 0 and order[1] < order[-1]
                assert cycle_edges(order) == cycle_edges(perm)


@pytest.fixture
def ascending_peel(monkeypatch):
    # a peel that trusts the input: each block's vertices in ascending order,
    # which is a Hamiltonian cycle of the graphs below, crossing chords and all
    monkeypatch.setattr(outerplanar, "_peel_cycle", lambda adj, block: list(bits(block)))


class TestCertificateCheck:
    """A peeled cycle is only a candidate; recognition must certify it."""

    # C6 plus the interleaving chords (0, 3) and (1, 4): a K4 subdivision
    crossed = cycle(6).with_edges([(0, 3), (1, 4)])

    def test_whole_graph_block(self, ascending_peel):
        assert not is_outerplanar(self.crossed)
        assert is_outerplanar(c6_chord())

    def test_block_beside_a_cut_vertex(self, ascending_peel):
        # vertex 0 hangs off the block 1..6, which is checked on the graph's own rows
        def pendant_c6(chords):
            return Graph(7, [(0, 1)] + [(1 + i, 1 + (i + 1) % 6) for i in range(6)] + chords)

        assert not is_outerplanar(pendant_c6([(1, 4), (2, 5)]))
        assert is_outerplanar(pendant_c6([(1, 4)]))

    def test_scan_reads_only_edges_among_the_listed_vertices(self):
        # the block 0..3 with chord (1, 3), and the pendant edge (2, 4) that leaves it
        g = Graph(5, [(0, 1), (1, 2), (2, 3), (0, 3), (1, 3), (2, 4)])
        assert outerplanar._crossing_free(g.adj, [0, 1, 2, 3])
        assert not outerplanar._crossing_free(g.with_edges([(0, 2)]).adj, [0, 1, 2, 3])

    def test_outer_cycle(self, ascending_peel):
        with pytest.raises(ValueError):
            outer_cycle(self.crossed)
        assert outer_cycle(c6_chord()).order == tuple(range(6))


@st.composite
def drawn_graph(draw):
    """A graph on 3..9 vertices with a drawn edge list, from empty to complete."""
    n = draw(st.integers(3, 9))
    pairs = list(combinations(range(n), 2))
    return Graph(n, draw(st.lists(st.sampled_from(pairs), unique=True)))


class TestPeelCycle:
    """The crossing scan reads positions only for the vertices its order
    lists, so recognition relies on each peeled cycle listing its block."""

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(drawn_graph())
    def test_cycle_lists_each_block_vertex_once(self, g):
        for block in blocks(g):
            if block.bit_count() < 3:
                continue
            cycle = outerplanar._peel_cycle(g.adj, block)
            if cycle is not None:
                assert len(cycle) == block.bit_count() and vertex_set(cycle) == block, (g.adj, block)


class TestMaximalCompletion:
    def test_c4_gets_one_chord(self):
        g = maximal_completion(cycle(4), OuterEmbedding.identity(4))
        assert g.edge_count() == 5

    def test_hexagon_has_nine_edges_and_triangular_faces(self):
        from outerpath import weak_dual

        g = maximal_completion(cycle(6), OuterEmbedding.identity(6))
        assert g.edge_count() == 9
        dual = weak_dual(g, OuterEmbedding.identity(6))
        assert all(len(face) == 3 for face in dual.nodes)

    def test_regions_fan_from_their_first_position_as_split(self):
        # the chord (1, 5) splits the octagon into 1..5 and 5, 6, 7, 0, 1;
        # the second region fans from 5, not from its lowest position 0
        g = cycle(8).with_edges([(1, 5)])
        done = maximal_completion(g, OuterEmbedding.identity(8))
        assert set(done.edges()) - set(g.edges()) == {(0, 5), (1, 3), (1, 4), (5, 7)}

    def test_fixed_point_and_idempotence(self):
        rng = random.Random(31)
        from outerpath.polygon import random_outerplanar

        for _ in range(100):
            g = random_outerplanar(rng.randint(3, 12), rng)
            emb = OuterEmbedding.identity(g.n)
            done = maximal_completion(g, emb)
            assert done.edge_count() == 2 * g.n - 3
            assert verify_embedding(done, emb)
            assert maximal_completion(done, emb) == done
            # contains g
            assert all(done.has_edge(u, v) for u, v in g.edges())

    def test_embedding_agnostic_edge_bound(self):
        rng = random.Random(77)
        from outerpath.polygon import random_outerplanar

        for _ in range(200):
            g = random_outerplanar(rng.randint(3, 14), rng)
            assert g.edge_count() <= 2 * g.n - 3

    def test_invalid_embedding_rejected(self):
        g = cycle(6).with_edges([(0, 3)])
        bad = OuterEmbedding((0, 3, 1, 4, 2, 5))
        with pytest.raises(ValueError):
            maximal_completion(g, bad)
