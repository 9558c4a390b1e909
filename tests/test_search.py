import hashlib
import json
import multiprocessing
import os
import random
import time
from collections import Counter
from itertools import combinations
from math import comb
from pathlib import Path

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from outerpath import (
    Graph,
    UnsupportedSizeError,
    canonical_form,
    count_induced_paths,
    count_induced_paths_between,
    fib,
    from_graph6,
    is_outerplanar,
    iter_induced_paths,
    search,
    to_graph6,
)
from outerpath.polygon import (
    catalan,
    dihedral_orbits,
    dissections,
    enumerate_triangulations,
    random_outerplanar,
    triangulation_chord_sets,
)
from outerpath.search import (
    _add,
    _argmax,
    _chunked,
    _path_cubes,
    _pool_map,
    endpoint_pair_maxima,
    extremal_value,
)

from helpers import brute_count_induced_paths, enumerate_outerplanar

# Results recorded by the benchmark; read here, never written.
SEARCH_REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference" / "search.json"


def _tag_with_pid(block):
    return [(a, os.getpid()) for a in block]


def _raise_at(block):
    for value, bad in block:
        if value == bad:
            raise ValueError(f"block with {value} failed")
    if any(bad == 0 for _, bad in block):
        # a child still running when the caller's own block raises
        time.sleep(30)
    return [value for value, _ in block]


class TestPoolMap:
    """The sweep's split and fan-out: ``_chunked`` makes at most ``jobs``
    blocks, and ``_pool_map`` runs one block per process."""

    @pytest.mark.parametrize("jobs", [2, 3, 8])
    @pytest.mark.parametrize("count", [2, 3, 5, 8, 11])
    def test_results_in_argument_order(self, jobs, count):
        args = list(range(count))
        blocks = _chunked(args, jobs)
        assert 2 <= len(blocks) <= jobs
        assert sum(blocks, []) == args
        out = _pool_map(_tag_with_pid, blocks)
        assert [[a for a, _ in part] for part in out] == blocks
        assert multiprocessing.active_children() == []
        # the caller runs the first block; each other block has its own process
        pids = [{pid for _, pid in part} for part in out]
        assert pids[0] == {os.getpid()}
        assert all(len(p) == 1 for p in pids)
        assert len(set().union(*pids)) == len(blocks)

    def test_serial_runs_in_the_caller(self):
        assert _chunked([1, 2, 3], 1) == [[1, 2, 3]]
        assert _pool_map(_tag_with_pid, [[1, 2, 3]]) == [[(a, os.getpid()) for a in (1, 2, 3)]]
        assert _chunked([7], 4) == [[7]]
        assert _pool_map(_tag_with_pid, [[7]]) == [[(7, os.getpid())]]
        assert _pool_map(_tag_with_pid, []) == []
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("bad", [5, 9])
    def test_child_exception_reaches_the_caller(self, bad):
        # blocks of 3 over 0..9: 5 fails in the second block, 9 in the last
        blocks = _chunked([(v, bad) for v in range(10)], 4)
        assert [len(b) for b in blocks] == [3, 3, 3, 1]
        with pytest.raises(ValueError, match=f"block with {bad} failed"):
            _pool_map(_raise_at, blocks)
        assert multiprocessing.active_children() == []

    def test_inline_exception_reaches_the_caller_and_stops_the_children(self):
        t0 = time.perf_counter()
        with pytest.raises(ValueError, match="block with 0 failed"):
            _pool_map(_raise_at, [[(v, 0)] for v in range(4)])
        # the children would sleep 30 s; they are terminated instead
        assert time.perf_counter() - t0 < 20
        assert multiprocessing.active_children() == []


class TestTriangulations:
    def test_counts_match_catalan(self):
        for n in range(3, 11):
            assert sum(1 for _ in triangulation_chord_sets(n)) == catalan(n - 2)

    def test_each_has_2n_minus_3_edges_and_is_outerplanar(self):
        for n in range(3, 8):
            for g in enumerate_triangulations(n):
                assert g.edge_count() == 2 * n - 3
                assert is_outerplanar(g)

    def test_distinct(self):
        for n in range(3, 9):
            seen = set(triangulation_chord_sets(n))
            assert len(seen) == catalan(n - 2)

    def test_range_checked(self):
        # one range check serves triangulations, dissections and random draws
        for n in (2, 17):
            with pytest.raises(ValueError):
                list(triangulation_chord_sets(n))
            with pytest.raises(ValueError):
                list(dissections(n))
            with pytest.raises(ValueError):
                random_outerplanar(n, random.Random(0))


def path_cubes(n, chords):
    """The sweep's path rows over ``chords``, with each cube's bit S for cycle-edge subset S."""
    bits = [sum(1 << s for s in range(1 << n) if s >> i & 1) for i in range(n)]
    return _path_cubes(n, chords, bits, (1 << (1 << n)) - 1)


def crosses(a, b):
    (i, j), (k, l) = a, b
    return i < k < j < l or k < i < l < j


def dihedral_maps(n):
    """The 2n rotations and reflections of the cycle 0..n-1, as vertex maps."""
    return [[(r + sign * v) % n for v in range(n)] for r in range(n) for sign in (1, -1)]


def noncrossing_diagonal_sets(n):
    """Every subset of the n-gon's diagonals with no crossing pair, as a sorted tuple."""
    diagonals = [(i, j) for i in range(n) for j in range(i + 2, n) if (i, j) != (0, n - 1)]
    # a set with diagonal i has no crossing pair iff the set without i has
    # none and no member crosses i
    masks = [0]
    for i, d in enumerate(diagonals):
        crossed = sum(1 << j for j, e in enumerate(diagonals) if crosses(d, e))
        masks += [mask | 1 << i for mask in masks if not mask & crossed]
    return [tuple(d for i, d in enumerate(diagonals) if mask >> i & 1) for mask in masks]


class TestDissections:
    def test_counts_are_little_schroeder_numbers(self):
        # OEIS A001003: dissections of the n-gon by non-crossing diagonals
        little_schroeder = [1, 3, 11, 45, 197, 903, 4279, 20793]
        for n, expected in zip(range(3, 11), little_schroeder):
            listed = list(dissections(n))
            assert len(listed) == expected
            assert len(set(listed)) == expected

    def test_equal_to_brute_force_filter(self):
        for n in range(3, 9):
            assert sorted(dissections(n)) == sorted(noncrossing_diagonal_sets(n))


class TestOrbitRepresentatives:
    def test_orbits_partition_the_dissections(self):
        # C8 weights each representative by its reported orbit size
        reps_count = [1, 2, 3, 9, 20, 75, 262, 1117, 4783]
        little_schroeder = [1, 3, 11, 45, 197, 903, 4279, 20793, 103049]
        for n, n_reps, n_dissections in zip(range(3, 12), reps_count, little_schroeder):
            orbits = list(dihedral_orbits(n))
            assert len(orbits) == n_reps
            images = [
                {tuple(sorted(tuple(sorted((p[u], p[v]))) for u, v in rep)) for p in dihedral_maps(n)}
                for rep, _ in orbits
            ]
            for (rep, size), orbit in zip(orbits, images):
                assert rep == min(orbit)
                assert size == len(orbit)
            assert sum(size for _, size in orbits) == n_dissections
            # disjoint orbits that together hold every dissection
            union = set().union(*images)
            assert len(union) == n_dissections
            assert union == set(dissections(n))

    def test_candidate_rows_are_the_induced_paths_of_each_subset(self):
        # the rows whose cube holds subset S, per (length, start, end),
        # against the lister's induced paths of the cycle edges in S plus
        # the chords
        graphs = 0
        for n in range(3, 8):
            cycle = [(i, (i + 1) % n) for i in range(n)]
            for chords, _ in dihedral_orbits(n):
                rows = path_cubes(n, chords)
                for s in range(1 << n):
                    kept = Counter(row[:3] for row in rows if row[3] >> s & 1)
                    g = Graph(n, [e for i, e in enumerate(cycle) if s >> i & 1] + list(chords))
                    paths = Counter(
                        (k, p[0], p[-1]) for k in range(2, n + 1) for p in iter_induced_paths(g, k)
                    )
                    assert kept == paths, (n, chords, s)
                    graphs += 1
        assert graphs == 3272

    def test_census_is_dihedrally_symmetric(self):
        for n in range(3, 9):
            rows = endpoint_pair_maxima(n).tolist()
            for p in dihedral_maps(n):
                for x, y in combinations(range(n), 2):
                    a, b = sorted((p[x], p[y]))
                    assert rows[a * n + b] == rows[x * n + y]


@st.composite
def drawn_dissection(draw, sizes):
    """n from ``sizes`` and a dissection of the n-gon drawn chord by chord."""
    n = draw(sizes)
    diagonals = [(i, j) for i in range(n) for j in range(i + 2, n) if (i, j) != (0, n - 1)]
    chords = []
    for d in draw(st.lists(st.sampled_from(diagonals), max_size=n)) if diagonals else []:
        if d not in chords and not any(crosses(d, c) for c in chords):
            chords.append(d)
    return n, chords


class TestBitsetKernel:
    """The sweep's kernel: bit S of a 2^n-bit int stands for cycle-edge subset S."""

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(drawn_dissection(st.integers(8, 9)), st.data())
    def test_path_cubes_match_the_lister_at_n8_and_n9(self, dissection, data):
        # test_candidate_rows_are_the_induced_paths_of_each_subset stops at
        # n = 7; this oracle draws dissections and subsets of the two
        # largest sweeps
        n, chords = dissection
        cycle = [(i, (i + 1) % n) for i in range(n)]
        rows = path_cubes(n, chords)
        for s in data.draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=8)):
            kept = Counter(row[:3] for row in rows if row[3] >> s & 1)
            g = Graph(n, [e for i, e in enumerate(cycle) if s >> i & 1] + chords)
            paths = Counter(
                (k, p[0], p[-1]) for k in range(2, n + 1) for p in iter_induced_paths(g, k)
            )
            assert kept == paths, (n, chords, s)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(
        st.integers(0, 5).flatmap(
            lambda n: st.tuples(st.just(n), st.lists(st.integers(1, (1 << (1 << n)) - 1), max_size=40))
        )
    )
    def test_counter_add_and_argmax_equal_sum_and_max(self, case):
        # a multiset of non-empty subset sets, as the kernel adds subcubes
        n, cubes = case
        everyone = (1 << (1 << n)) - 1
        planes: list[int] = []
        for cube in cubes:
            _add(planes, cube)
        counts = [sum(cube >> s & 1 for cube in cubes) for s in range(1 << n)]
        read = [sum((plane >> s & 1) << j for j, plane in enumerate(planes)) for s in range(1 << n)]
        assert read == counts
        best = max(counts)
        # as many planes as the largest count has bits, so a one-plane
        # counter has maximum 1
        assert len(planes) == best.bit_length()
        tied = sum(1 << s for s, c in enumerate(counts) if c == best)
        # with no planes every subset ties at 0, and tied is all ones
        found, found_tied = _argmax(planes)
        assert (found, found_tied & everyone) == (best, tied)


class TestAtlasCoverage:
    def test_orbit_subsets_meet_every_outerplanar_class(self):
        # networkx's atlas holds one graph per isomorphism class on <= 7
        # vertices, and a graph is outerplanar iff adding an apex joined to
        # every vertex leaves it planar; neither uses outerpath
        atlas = {}
        for h in nx.graph_atlas_g():
            n = h.number_of_nodes()
            apexed = h.copy()
            apexed.add_edges_from(("apex", v) for v in h)
            if n >= 3 and nx.check_planarity(apexed)[0]:
                atlas.setdefault(n, []).append(canonical_form(Graph(n, list(h.edges()))))
        assert {n: len(forms) for n, forms in atlas.items()} == {3: 4, 4: 10, 5: 25, 6: 80, 7: 277}
        for n, forms in atlas.items():
            assert len(set(forms)) == len(forms)
            cycle = [(i, (i + 1) % n) for i in range(n)]
            swept = {
                canonical_form(Graph(n, [e for i, e in enumerate(cycle) if s >> i & 1] + list(chords)))
                for chords, _ in dihedral_orbits(n)
                for s in range(1 << n)
            }
            assert swept == set(forms)


class TestEnumerateOuterplanar:
    def test_n4_includes_and_excludes(self):
        graphs = set(enumerate_outerplanar(4))
        assert Graph(4) in graphs  # empty graph
        assert Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)]) in graphs
        assert Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]) in graphs
        k4 = Graph(4, [(a, b) for a in range(4) for b in range(a + 1, 4)])
        assert k4 not in graphs

    def test_dedup_class_counts_frozen_from_brute_force(self):
        # oracle: enumerate all labeled n-vertex graphs, filter, dedup
        assert len({canonical_form(g) for g in enumerate_outerplanar(4)}) == 10
        assert len({canonical_form(g) for g in enumerate_outerplanar(5)}) == 25

    def test_dedup_agrees_with_brute_force_filter(self):
        for n in (4, 5):
            pairs = list(combinations(range(n), 2))
            brute = set()
            for mask in range(1 << len(pairs)):
                g = Graph(n, [pairs[i] for i in range(len(pairs)) if mask >> i & 1])
                if is_outerplanar(g):
                    brute.add(canonical_form(g))
            mine = {canonical_form(g) for g in enumerate_outerplanar(n)}
            assert mine == brute

    def test_each_triangulation_subset_once(self):
        # little Schroeder number S(n) dissections, each with 2^n cycle-edge subsets
        for n, little_schroeder in zip(range(3, 7), (1, 3, 11, 45)):
            graphs = list(enumerate_outerplanar(n))
            assert len(graphs) == little_schroeder * 2**n
            assert len(set(graphs)) == len(graphs)
            subsets = set()
            for tri in enumerate_triangulations(n):
                edges = list(tri.edges())
                for mask in range(1 << len(edges)):
                    subsets.add(Graph(n, [e for i, e in enumerate(edges) if mask >> i & 1]))
            assert set(graphs) == subsets

    def test_range_checked(self):
        for n in (2, 17):
            with pytest.raises(ValueError):
                list(enumerate_outerplanar(n))

    def test_soundness_spot_check(self):
        rng = random.Random(2020)
        for _ in range(200):
            g = random_outerplanar(rng.randint(3, 8), rng)
            assert is_outerplanar(g)


class TestRandomOuterplanar:
    def test_draws_are_pinned(self):
        # C9 and several tests draw from this stream: the graphs and the
        # generator state after them must not drift
        pinned = {
            0: (["Bo", "G|CGsc", "KA?WC?@?G@?@", "OpGhGC@?W?_Pg?????K?E"], 0.11534974341425441),
            1: (["B_", "GpCPLC", "KjDWGCF?IHw@", "OjCG???CW?_@????OAK??"], 0.518678283523002),
            2026: (["B?", "GGE?C?", "KXK?WO@???O?", "OxCXgC@gw?_B?D?C_?K?b"], 0.9219705906902864),
        }
        for seed, (strings, after) in pinned.items():
            rng = random.Random(seed)
            assert [to_graph6(random_outerplanar(n, rng)) for n in (3, 8, 12, 16)] == strings
            assert rng.random() == after


class TestExtremalValue:
    def test_p3_table(self):
        values = {n: extremal_value(n, 3).max_copies for n in range(4, 9)}
        assert values == {4: 4, 5: 6, 6: 10, 7: 15, 8: 21}

    def test_p3_matches_formula_for_large_n(self):
        for n in (7, 8):
            assert extremal_value(n, 3).max_copies == comb(n - 1, 2)

    def test_witnesses_n6(self):
        report = extremal_value(6, 3)
        star6 = canonical_form(Graph(6, [(0, v) for v in range(1, 6)]))
        c6_chord = canonical_form(
            Graph(6, [(i, (i + 1) % 6) for i in range(6)] + [(0, 3)])
        )
        assert star6 in report.witnesses
        assert c6_chord in report.witnesses

    def test_unique_star_witness_at_n7(self):
        report = extremal_value(7, 3)
        star7 = canonical_form(Graph(7, [(0, v) for v in range(1, 7)]))
        assert report.witnesses == (star7,)

    def test_max_is_attained_and_witnesses_check_out(self):
        report = extremal_value(6, 4)
        for w in report.witnesses:
            g = from_graph6(w)
            assert count_induced_paths(g, 4).copies == report.max_copies

    def test_max_dominates_random_members(self):
        rng = random.Random(606)
        for k in (3, 4, 5):
            report = extremal_value(6, k)
            for _ in range(50):
                g = random_outerplanar(6, rng)
                assert count_induced_paths(g, k).copies <= report.max_copies

    def test_monotone_in_n_for_p3(self):
        vals = [extremal_value(n, 3).max_copies for n in range(4, 9)]
        assert vals == sorted(vals)

    def test_report_bookkeeping(self):
        r = extremal_value(5, 3)
        assert r.triangulations == catalan(3)
        assert r.graphs_scanned == catalan(3) * (1 << 7)
        assert len(r.witnesses) >= 1

    def test_size_caps(self):
        with pytest.raises(UnsupportedSizeError):
            extremal_value(10, 3)
        with pytest.raises(ValueError):
            extremal_value(6, 7)
        with pytest.raises(ValueError):
            extremal_value(6, 1)

    @pytest.mark.parametrize("jobs", [0, -1])
    def test_jobs_below_one_rejected(self, jobs):
        # rejected before any sweep runs, so no block is scanned
        with pytest.raises(ValueError, match="jobs must be at least 1"):
            extremal_value(5, 3, jobs=jobs)
        with pytest.raises(ValueError, match="jobs must be at least 1"):
            endpoint_pair_maxima(5, jobs=jobs)

    def test_worker_counts_agree(self):
        base = extremal_value(6, 3, jobs=1)
        for jobs in (2, 8):
            other = extremal_value(6, 3, jobs=jobs)
            assert other.to_json_dict() == base.to_json_dict()

    def test_one_sweep_per_worker_count(self, monkeypatch):
        # the cache must not let a worker-count comparison read one sweep
        # three times
        sweeps = []
        orbits = search.dihedral_orbits

        def counted(n):
            sweeps.append(n)
            return orbits(n)

        monkeypatch.setattr(search, "_sweep_cache", {})
        monkeypatch.setattr(search, "dihedral_orbits", counted)
        for jobs in (1, 2, 8):
            for k in (3, 4):
                extremal_value(6, k, jobs=jobs)
            endpoint_pair_maxima(6, jobs=jobs)
        assert sweeps == [6, 6, 6]

    @staticmethod
    def _fresh_sweep(monkeypatch, n, jobs):
        monkeypatch.setattr(search, "_sweep_cache", {})
        return search._sweep(n, jobs)

    @staticmethod
    def _assert_same_sweep(a, b):
        assert a.best == b.best
        assert a.classes == b.classes
        assert a.pair_maxima.tolist() == b.pair_maxima.tolist()

    @pytest.mark.parametrize("jobs", [2, 8])
    @pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
    def test_small_sweeps_scan_every_block_in_the_caller(self, monkeypatch, n, jobs):
        # the same blocks and reduction as a forked sweep, with no process
        serial = self._fresh_sweep(monkeypatch, n, 1)
        blocks = []
        scan = search._sweep_block

        def counted(args):
            blocks.append(args)
            return scan(args)

        def no_process(*args, **kwargs):
            raise AssertionError("a sweep below _FORK_WORK started a process")

        monkeypatch.setattr(search, "_sweep_block", counted)
        monkeypatch.setattr(multiprocessing, "Process", no_process)
        split = self._fresh_sweep(monkeypatch, n, jobs)
        assert len(blocks) >= 2
        assert [block for _, block in blocks] == search._chunked(
            [chords for chords, _ in dihedral_orbits(n)], jobs
        )
        self._assert_same_sweep(split, serial)

    @pytest.mark.parametrize(("n", "jobs", "fork_work"), [(6, 2, 0), (6, 8, 0), (9, 2, None)])
    def test_sweeps_at_or_above_the_fork_work_fork(self, monkeypatch, n, jobs, fork_work):
        serial = self._fresh_sweep(monkeypatch, n, 1)
        if fork_work is not None:
            monkeypatch.setattr(search, "_FORK_WORK", fork_work)
        started = []
        process = multiprocessing.Process

        def counted(*args, **kwargs):
            started.append(1)
            return process(*args, **kwargs)

        monkeypatch.setattr(multiprocessing, "Process", counted)
        split = self._fresh_sweep(monkeypatch, n, jobs)
        # the caller scans the first block and one child each other block
        blocks = search._chunked(list(dihedral_orbits(n)), jobs)
        assert len(started) == len(blocks) - 1 >= 1
        assert multiprocessing.active_children() == []
        self._assert_same_sweep(split, serial)

    def test_class_representatives_give_every_witness(self):
        # canonicalising one graph per rotation/reflection class gives the
        # same witnesses as canonicalising every maximising labeled graph;
        # the kernel run over every dissection, not one per orbit, yields
        # all of those graphs, and its census row for distance d is the
        # census of the pair (0, d)
        for n in range(4, 8):
            best, tied, census = search._sweep_block((n, list(dissections(n))))
            for k in range(2, n + 1):
                every = {canonical_form(Graph(n, edges)) for edges in tied[k]}
                report = extremal_value(n, k)
                assert report.max_copies == best[k]
                assert report.witnesses == tuple(sorted(every))
            rows = endpoint_pair_maxima(n).tolist()
            assert census == [0] * (n + 1) + [c for d in range(1, n // 2 + 1) for c in rows[d]]

    def test_n9_values(self):
        # equal to a sweep over every dissection rather than one per orbit,
        # run once at n = 9; the maxima come first, before any witness is
        # canonicalised, so a broken kernel fails here in under a second
        assert search._sweep(9, 1).best[2:] == (15, 28, 22, 18, 13, 10, 9, 1)
        best = {m: extremal_value(9, m).max_copies for m in range(2, 10)}
        assert best == {2: 15, 3: 28, 4: 22, 5: 18, 6: 13, 7: 10, 8: 9, 9: 1}
        assert best[3] == comb(8, 2)
        witnesses = {m: extremal_value(9, m).witnesses for m in range(2, 10)}
        assert {m: len(w) for m, w in witnesses.items()} == {
            2: 27, 3: 1, 4: 9, 5: 6, 6: 2, 7: 2, 8: 1, 9: 1
        }
        star9 = canonical_form(Graph(9, [(0, v) for v in range(1, 9)]))
        assert witnesses[3] == (star9,)
        # the witness strings themselves, so a change of canonical form shows
        text = json.dumps({m: list(w) for m, w in witnesses.items()}, sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "dfc8870e5c2a04446e1e35bb8ab345d61ac752b45d0c8b5ef773bb22fa658ac7"
        )
        for m, strings in witnesses.items():
            for w in strings:
                assert brute_count_induced_paths(from_graph6(w), m) == best[m]
        rows = endpoint_pair_maxima(9).tolist()
        assert [max(row[m] for row in rows) for m in range(2, 10)] == [1, 2, 3, 5, 6, 4, 2, 1]

    def test_matches_recorded_reference(self):
        ref = json.loads(SEARCH_REFERENCE.read_text())
        for n in range(4, 9):
            for k in range(2, n + 1):
                assert extremal_value(n, k).to_json_dict() == ref["cells"][f"{n},{k}"]
        for n in range(3, 9):
            assert endpoint_pair_maxima(n).tolist() == ref["census"][str(n)]


class TestEndpointCensus:
    def test_matches_direct_counting_on_samples(self):
        rng = random.Random(123)
        maxima = {n: endpoint_pair_maxima(n) for n in (5, 6)}
        for n in (5, 6):
            for _ in range(40):
                g = random_outerplanar(n, rng)
                for x in range(n):
                    for y in range(x + 1, n):
                        for m in range(2, n + 1):
                            c = count_induced_paths_between(g, x, y, m)
                            assert c <= maxima[n][x * n + y, m]

    def test_block_census_equals_direct_counting(self):
        # one dissection per block, every dissection rather than one per
        # orbit: each row of a block's census is the most induced m-paths
        # between two vertices at that distance around the cycle, over
        # every cycle-edge subset
        blocks = 0
        for n in (5, 6):
            cycle = [(i, (i + 1) % n) for i in range(n)]
            for chords in dissections(n):
                census = search._sweep_block((n, [chords]))[2]
                direct = [0] * len(census)
                for s in range(1 << n):
                    g = Graph(n, [e for i, e in enumerate(cycle) if s >> i & 1] + list(chords))
                    for x, y in combinations(range(n), 2):
                        row = min(y - x, n - y + x) * (n + 1)
                        for m in range(2, n + 1):
                            c = count_induced_paths_between(g, x, y, m)
                            direct[row + m] = max(direct[row + m], c)
                assert census == direct, (n, chords)
                blocks += 1
        assert blocks == 56

    def test_census_maximum_is_achieved(self):
        # some graph and pair attains the recorded maximum for each length
        n = 5
        rows = endpoint_pair_maxima(n).tolist()
        best = {m: 0 for m in range(2, n + 1)}
        for g in enumerate_outerplanar(n):
            for x in range(n):
                for y in range(x + 1, n):
                    for m in range(2, n + 1):
                        c = count_induced_paths_between(g, x, y, m)
                        if c > best[m]:
                            best[m] = c
        for m in range(2, n + 1):
            assert best[m] == max(row[m] for row in rows)

    def test_census_is_read_only(self):
        maxima = endpoint_pair_maxima(5)
        assert (maxima.format, maxima.shape, maxima.readonly) == ("i", (25, 6), True)
        before = maxima[2, 3]
        with pytest.raises(TypeError):
            maxima[2, 3] = 99
        assert endpoint_pair_maxima(5)[2, 3] == before

    def test_pair_counts_stay_under_fib(self):
        for n in range(3, 9):
            rows = endpoint_pair_maxima(n).tolist()
            for m in range(2, n + 1):
                assert max(row[m] for row in rows) <= fib(m)


@st.composite
def outerplanar_on_the_cycle(draw):
    """A dissection of the n-gon drawn chord by chord, plus a cycle-edge subset."""
    n, chords = draw(drawn_dissection(st.integers(3, 9)))
    cycle = [(i, (i + 1) % n) for i in range(n)]
    kept = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    return Graph(n, chords + [e for e, keep in zip(cycle, kept) if keep])


class TestSweepDominatesEveryGraph:
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(outerplanar_on_the_cycle())
    def test_counts_within_sweep_maxima(self, g):
        n = g.n
        census = endpoint_pair_maxima(n)
        for m in range(2, n + 1):
            assert count_induced_paths(g, m).copies <= extremal_value(n, m).max_copies
            for x, y in combinations(range(n), 2):
                assert count_induced_paths_between(g, x, y, m) <= census[x * n + y, m]


class TestBruteForceAgreement:
    def test_extremal_against_brute_maximum_n5(self):
        for k in (3, 4):
            counts = {g: brute_count_induced_paths(g, k) for g in enumerate_outerplanar(5)}
            best = max(counts.values())
            witnesses = {canonical_form(g) for g, c in counts.items() if c == best}
            report = extremal_value(5, k)
            assert best == report.max_copies
            assert tuple(sorted(witnesses)) == report.witnesses
