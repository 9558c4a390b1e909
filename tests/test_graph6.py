import random

import networkx as nx
import pytest

from outerpath import Graph, Graph6Error, UnsupportedSizeError, from_graph6, to_graph6

from helpers import random_graph


def test_c4_round_trip():
    c4 = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert from_graph6(to_graph6(c4)) == c4


def test_round_trip_random_up_to_62():
    rng = random.Random(99)
    for _ in range(300):
        n = rng.randint(1, 62)
        g = random_graph(n, rng.random() * 0.3, rng)
        assert from_graph6(to_graph6(g)) == g


def test_round_trip_63_and_64():
    rng = random.Random(3)
    for n in (63, 64):
        g = random_graph(n, 0.05, rng)
        assert from_graph6(to_graph6(g)) == g


def test_known_five_vertex_string_is_a_star():
    # cross-checked against an independent decoder below as well
    g = from_graph6("D?{")
    assert g.n == 5
    assert sorted(g.edges()) == [(0, 4), (1, 4), (2, 4), (3, 4)]


def test_agrees_with_networkx_decoder():
    rng = random.Random(4242)
    for _ in range(100):
        n = rng.randint(2, 30)
        g = random_graph(n, rng.random() * 0.5, rng)
        ref = nx.from_graph6_bytes(to_graph6(g).encode())
        assert ref.number_of_nodes() == g.n
        assert {tuple(sorted(e)) for e in ref.edges()} == set(g.edges())


def test_agrees_with_networkx_encoder():
    rng = random.Random(777)
    for _ in range(100):
        n = rng.randint(2, 30)
        g = random_graph(n, rng.random() * 0.5, rng)
        ref = nx.Graph()
        ref.add_nodes_from(range(n))
        ref.add_edges_from(g.edges())
        text = nx.to_graph6_bytes(ref, header=False).decode().strip()
        assert from_graph6(text) == g


class TestErrors:
    def test_empty_graph_rejected(self):
        with pytest.raises(Graph6Error):
            from_graph6("?")

    def test_empty_input(self):
        with pytest.raises(Graph6Error) as exc:
            from_graph6("")
        assert exc.value.offset == 0

    def test_bad_byte_offset(self):
        # below the range, and a non-ASCII character above it
        for text in ("D\x1f{{", "D\u00e9{{"):
            with pytest.raises(Graph6Error) as exc:
                from_graph6(text)
            assert exc.value.offset == 1

    def test_body_too_short(self):
        with pytest.raises(Graph6Error):
            from_graph6("D?")

    def test_trailing_bytes(self):
        with pytest.raises(Graph6Error) as exc:
            from_graph6("D?{?")
        assert exc.value.offset == 3

    def test_nonzero_padding(self):
        # n=3 uses 3 of 6 body bits; the low padding bit is set here
        with pytest.raises(Graph6Error):
            from_graph6("B" + chr(63 + 1))

    def test_long_header_for_a_short_count(self):
        # the 4-byte form of n = 5; "Dg?" is the one encoding of that graph
        assert from_graph6("Dg?").n == 5
        with pytest.raises(Graph6Error) as exc:
            from_graph6("~??D" + "g?")
        assert exc.value.offset == 1

    def test_oversized_count(self):
        # 4-byte header encoding n=192
        with pytest.raises(UnsupportedSizeError):
            from_graph6("~?B?")
