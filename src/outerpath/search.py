"""Exhaustive extremal search over outerplanar graphs.

Every maximal outerplanar graph on n >= 3 vertices is a triangulated
convex polygon, so every outerplanar graph (up to relabeling the outer
cycle to the identity) is an edge subset of some polygon triangulation:
a subset of the n cycle edges plus a non-crossing chord set.  One apex
recursion enumerates the triangulations (every apex over each base,
Catalan(n-2) of them) and draws ``random_outerplanar``'s (one random
apex).  The search gives each chord set to the first triangulation that
contains it, so each labeled graph is scanned once; the owned chord
sets are the dissections of the n-gon, little-Schroeder(n) of them.

One sweep per n scans, with numpy, every subset a triangulation owns
against every path of that triangulation on 2..n vertices: a
candidate vertex sequence is an induced path of the subset graph iff its
consecutive pairs are all present and its other triangulation pairs are
all absent, which is one mask comparison against all subsets at once.
The sweep yields the per-length maxima with their maximising graphs and
the endpoint-pair census together; ``extremal_value`` and
``endpoint_pair_maxima`` read it from a per-process cache.  Maximising
graphs are canonicalised once per rotation/reflection class of the outer
cycle.

Work is split across processes by contiguous triangulation blocks; the
reduction (max, then union of maximising graphs) is associative, so
reports are byte-identical for any worker count.
"""

from __future__ import annotations

import multiprocessing
import random
import time
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from math import comb
from typing import Callable, Iterable, Iterator

import numpy as np

from .constructions import fib
from .graph import SCHEMA, Graph, UnsupportedSizeError, canonical_form

TRIANGULATION_CAP = 16
SEARCH_CAP = 8

Edges = tuple[tuple[int, int], ...]


def catalan(m: int) -> int:
    return comb(2 * m, m) // (m + 1)


def _triangulation_chords(
    lo: int, hi: int, apexes: Callable[[int, int], Iterable[int]]
) -> Iterator[Edges]:
    """Chord sets triangulating the polygon on positions lo..hi over base (lo, hi).

    ``apexes(lo, hi)`` gives the apexes to try over each base.  The base
    triangle's chords come before those of its left and right parts.
    """
    if hi - lo < 2:
        yield ()
        return
    for c in apexes(lo, hi):
        extra = ((lo, c),) if c - lo >= 2 else ()
        if hi - c >= 2:
            extra += ((c, hi),)
        for left in _triangulation_chords(lo, c, apexes):
            for right in _triangulation_chords(c, hi, apexes):
                yield extra + left + right


def triangulation_chord_sets(n: int) -> Iterator[tuple[tuple[int, int], ...]]:
    if not 3 <= n <= TRIANGULATION_CAP:
        raise ValueError(f"triangulation enumeration supports 3 <= n <= {TRIANGULATION_CAP}")
    for chords in _triangulation_chords(0, n - 1, lambda lo, hi: range(lo + 1, hi)):
        yield tuple(sorted(chords))


def _cycle_edges(n: int) -> list[tuple[int, int]]:
    return [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)]


def enumerate_triangulations(n: int) -> Iterator[Graph]:
    """All triangulations of the convex n-gon with outer cycle 0..n-1."""
    cycle = _cycle_edges(n)
    for chords in triangulation_chord_sets(n):
        yield Graph(n, cycle + list(chords))


def enumerate_outerplanar(n: int) -> Iterator[Graph]:
    """Every edge subset of a triangulation of the n-gon 0..n-1, each graph once.

    Each graph is a dissection of the n-gon (a chord set of
    :func:`owned_chord_subsets`) plus a subset of the n cycle edges:
    little-Schroeder(n) * 2^n graphs.
    """
    cycle = _cycle_edges(n)
    for _, owned in owned_chord_subsets(n):
        for chords in owned:
            for subset in range(1 << n):
                yield Graph(n, [e for i, e in enumerate(cycle) if subset >> i & 1] + list(chords))


def random_outerplanar(n: int, rng: random.Random) -> Graph:
    """Random edge subset of the triangulation drawn with one random apex per base."""
    if not 3 <= n <= TRIANGULATION_CAP:
        raise ValueError(f"random generation supports 3 <= n <= {TRIANGULATION_CAP}")

    keep = rng.uniform(0.3, 1.0)
    chords = next(_triangulation_chords(0, n - 1, lambda lo, hi: (rng.randint(lo + 1, hi - 1),)))
    edges = _cycle_edges(n) + list(chords)
    return Graph(n, [e for e in edges if rng.random() < keep])


# -- per-triangulation subset sweep -------------------------------------------


def _tri_edge_list(n: int, chords: tuple[tuple[int, int], ...]) -> list[tuple[int, int]]:
    return sorted(_cycle_edges(n) + list(chords))


def _path_candidates(
    n: int, edges: list[tuple[int, int]], max_len: int
) -> list[tuple[int, int, int, int, int]]:
    """Self-avoiding paths of the triangulation on 2..max_len vertices,
    as (length, start, end, req, forb).

    ``req`` collects the edge-index bits of consecutive pairs, ``forb``
    those of non-consecutive pairs that are triangulation edges.  Paths
    are produced once each (start < end).
    """
    # ebit[u][v]: the edge-index bit of edge uv, 0 for a non-edge
    ebit = [[0] * n for _ in range(n)]
    adj = [0] * n
    for i, (u, v) in enumerate(edges):
        ebit[u][v] = ebit[v][u] = 1 << i
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    out: list[tuple[int, int, int, int, int]] = []
    path: list[int] = []

    def extend(u: int, pmask: int, req: int, forb: int) -> None:
        length = len(path) + 1
        m = adj[u] & ~pmask
        while m:
            low = m & -m
            w = low.bit_length() - 1
            m ^= low
            row = ebit[w]
            nreq = req | row[u]
            nforb = forb
            for v in path[:-1]:
                nforb |= row[v]
            if w > path[0]:
                out.append((length, path[0], w, nreq, nforb))
            if length < max_len:
                path.append(w)
                extend(w, pmask | low, nreq, nforb)
                path.pop()

    for s in range(n):
        path[:] = [s]
        extend(s, 1 << s, 0, 0)
    return out


@dataclass(frozen=True)
class SearchReport:
    """One (n, k) cell of the exhaustive search.

    ``graphs_scanned`` is Catalan(n-2) * 2^(2n-3), the number of
    (triangulation, edge subset) pairs the search covers.  Each distinct
    labeled graph among them is scanned once, under the triangulation that
    owns its chord set (see :func:`owned_chord_subsets`).
    """

    n: int
    k: int
    max_copies: int
    witnesses: tuple[str, ...]
    graphs_scanned: int
    triangulations: int
    elapsed: float

    def to_json_dict(self, include_witnesses: bool = True, timing: bool = False) -> dict:
        out: dict = {
            "schema": SCHEMA,
            "n": self.n,
            "k": self.k,
            "max_copies": self.max_copies,
            "graphs_scanned": self.graphs_scanned,
            "triangulations": self.triangulations,
        }
        if include_witnesses:
            out["witnesses"] = list(self.witnesses)
        if timing:
            out["elapsed"] = self.elapsed
        return out


def owned_chord_subsets(n: int) -> Iterator[tuple[Edges, list[Edges]]]:
    """Each non-crossing chord set of the n-gon once, under its owner.

    The owner of a chord set is the first triangulation, in
    :func:`triangulation_chord_sets` order, that contains it.  Yields
    ``(chords, owned)`` for every triangulation, where ``owned`` lists the
    chord subsets it owns in ascending subset-mask order.  The owned sets
    are the dissections of the n-gon, counted by the little Schroeder
    numbers (OEIS A001003).
    """
    seen: set[Edges] = set()
    for chords in triangulation_chord_sets(n):
        owned = []
        for sub in range(1 << len(chords)):
            key = tuple(chords[i] for i in range(len(chords)) if sub >> i & 1)
            if key not in seen:
                seen.add(key)
                owned.append(key)
        yield chords, owned


# Subset columns scanned at once; bounds the (candidates x columns) blocks.
_COLUMNS = 1024


def _sweep_block(args) -> tuple[list[int], list[list[Edges]], np.ndarray]:
    """Scan the graphs a block of triangulations owns, for every path length.

    Returns, per length m, the most induced m-paths in one graph and the
    edge lists of the graphs that have that many, and the endpoint census
    ``[x*n+y, m]``: the most induced m-paths between x and y in one graph.
    """
    n, block = args
    best = [-1] * (n + 1)
    tied: list[list[tuple[list[tuple[int, int]], np.ndarray]]] = [[] for _ in range(n + 1)]
    pair_maxima = np.zeros((n * n, n + 1), dtype=np.int32)
    for chords, owned in block:
        edges = _tri_edge_list(n, chords)
        bit = {e: 1 << i for i, e in enumerate(edges)}
        every = np.arange(1 << len(edges), dtype=np.uint32)
        chord_mask = sum(bit[c] for c in chords)
        subs = every[np.isin(every & chord_mask, [sum(bit[c] for c in sub) for sub in owned])]

        # Candidates sorted by (length, x, y) form one group per pair and
        # length, whose rows sum to the pair's count; the groups of one
        # length sum to the total.  Every length occurs: the outer cycle
        # holds a path on each number of vertices.
        cands = sorted(_path_candidates(n, edges, n))
        mask = np.array([c[3] | c[4] for c in cands], dtype=np.uint32)
        req = np.array([c[3] for c in cands], dtype=np.uint32)
        starts = [i for i in range(len(cands)) if i == 0 or cands[i][:3] != cands[i - 1][:3]]
        groups = list(zip(starts, starts[1:] + [len(cands)]))
        group_len = [cands[i][0] for i in starts]
        group_pair = [cands[i][1] * n + cands[i][2] for i in starts]
        by_len = [
            (m, bisect_left(group_len, m), bisect_right(group_len, m)) for m in range(2, n + 1)
        ]

        for lo in range(0, len(subs), _COLUMNS):
            cols = subs[lo : lo + _COLUMNS]
            ok = ((cols & mask[:, None]) == req[:, None]).view(np.uint8)
            # int16 holds any count: a triangulation on n <= SEARCH_CAP
            # vertices has far fewer than 2^15 paths
            counts = np.empty((len(groups), len(cols)), dtype=np.int16)
            for g, (a, b) in enumerate(groups):
                np.add.reduce(ok[a:b], axis=0, dtype=np.int16, out=counts[g])
            prior = pair_maxima[group_pair, group_len]
            pair_maxima[group_pair, group_len] = np.maximum(prior, counts.max(axis=1))
            for m, a, b in by_len:
                totals = counts[a:b].sum(axis=0, dtype=np.int32)
                local = int(totals.max())
                if local > best[m]:
                    best[m] = local
                    tied[m] = []
                if local == best[m]:
                    tied[m].append((edges, cols[totals == local]))

    witnesses = [
        [
            tuple(e for i, e in enumerate(edges) if sid >> i & 1)
            for edges, sids in tied[m]
            for sid in sids.tolist()
        ]
        for m in range(n + 1)
    ]
    return best, witnesses, pair_maxima


def _dihedral_min(n: int, edges: Edges) -> Edges:
    """Least sorted edge list among the 2n rotations and reflections of the cycle 0..n-1."""
    images = []
    for r in range(n):
        for sign in (1, -1):
            image = (((r + sign * u) % n, (r + sign * v) % n) for u, v in edges)
            images.append(tuple(sorted((u, v) if u < v else (v, u) for u, v in image)))
    return min(images)


@dataclass(frozen=True)
class _Sweep:
    """One pass over every n-vertex outerplanar graph, for every path length m.

    ``best[m]`` is the most induced m-paths in one graph; ``classes[m]``
    holds one graph per rotation/reflection class of the maximisers;
    ``pair_maxima`` is the read-only endpoint census.
    """

    best: tuple[int, ...]
    classes: tuple[tuple[Graph, ...], ...]
    pair_maxima: np.ndarray


# Keyed on the worker count as well as n: check_parallel_determinism and the
# worker-count tests compare sweeps made with different worker counts, and a
# cache on n alone would hand them one shared result.
_sweep_cache: dict[tuple[int, int], _Sweep] = {}


def _sweep(n: int, jobs: int) -> _Sweep:
    """The sweep for n, run once per (n, jobs) in a process.

    Every labeled outerplanar graph whose outer cycle lies on 0..n-1 is a
    subset of the cycle edges plus a chord set, and is scanned under the
    triangulation that owns the chord set.  Blocks of contiguous
    triangulations are scanned independently and reduced by max and
    union, which does not depend on how the stream is split.
    """
    key = (n, jobs)
    if key in _sweep_cache:
        return _sweep_cache[key]
    stream = list(owned_chord_subsets(n))
    expected = catalan(n - 2)
    if len(stream) != expected:
        raise RuntimeError(f"triangulation count {len(stream)} != Catalan {expected}")
    parts = _pool_map(_sweep_block, [(n, c) for c in _chunked(stream, jobs)], jobs)
    best = [max(p[0][m] for p in parts) for m in range(n + 1)]
    classes = []
    for m in range(n + 1):
        reps = {_dihedral_min(n, edges) for p in parts if p[0][m] == best[m] for edges in p[1][m]}
        classes.append(tuple(Graph(n, rep) for rep in sorted(reps)))
    pair_maxima = parts[0][2]
    for p in parts[1:]:
        np.maximum(pair_maxima, p[2], out=pair_maxima)
    pair_maxima.flags.writeable = False
    _sweep_cache[key] = _Sweep(tuple(best), tuple(classes), pair_maxima)
    return _sweep_cache[key]


def _chunked(items: list, jobs: int) -> list[list]:
    jobs = max(1, min(jobs, len(items)))
    size = (len(items) + jobs - 1) // jobs
    return [items[i : i + size] for i in range(0, len(items), size)]


def _pool_map(fn, args_list: list, jobs: int) -> list:
    if jobs <= 1 or len(args_list) <= 1:
        return [fn(a) for a in args_list]
    with multiprocessing.Pool(min(jobs, len(args_list))) as pool:
        return pool.map(fn, args_list)


def extremal_value(n: int, k: int, jobs: int = 1) -> SearchReport:
    """Exact maximum induced k-path count over all n-vertex outerplanar graphs.

    Reads the sweep for n; witnesses are the canonical forms (graph6) of
    all maximizing graphs, canonicalised once per rotation/reflection
    class of the outer cycle.
    """
    if not 3 <= n <= SEARCH_CAP:
        raise UnsupportedSizeError(f"extremal search supports 3 <= n <= {SEARCH_CAP}")
    if not 2 <= k <= n:
        # k = 1 is degenerate: every n-vertex graph has exactly n copies
        raise ValueError(f"k must be in 2..{n}, got {k}")
    start = time.perf_counter()
    sweep = _sweep(n, jobs)
    witnesses = {canonical_form(g).decode("ascii") for g in sweep.classes[k]}
    triangulations = catalan(n - 2)
    return SearchReport(
        n=n,
        k=k,
        max_copies=sweep.best[k],
        witnesses=tuple(sorted(witnesses)),
        graphs_scanned=triangulations * (1 << (2 * n - 3)),
        triangulations=triangulations,
        elapsed=time.perf_counter() - start,
    )


def endpoint_pair_maxima(n: int, jobs: int = 1) -> np.ndarray:
    """max over all outerplanar graphs and pairs x<y of the induced m-path
    count between x and y, indexed [x*n+y, m] for m <= n.

    The array is shared with later calls and is read-only.
    """
    if not 3 <= n <= SEARCH_CAP:
        raise UnsupportedSizeError(f"endpoint census supports 3 <= n <= {SEARCH_CAP}")
    return _sweep(n, jobs).pair_maxima


def verify_fib_bounds(n: int, k: int, jobs: int = 1) -> bool:
    """Endpoint counts within fib(k+1) everywhere, and the extremal value
    within fib(k+1) * C(n, 2)."""
    if not 1 <= k < n:
        raise ValueError(f"k must be in 1..{n - 1}, got {k}")
    maxima = endpoint_pair_maxima(n, jobs=jobs)
    if int(maxima[:, k + 1].max()) > fib(k + 1):
        return False
    report = extremal_value(n, k + 1, jobs=jobs)
    return report.max_copies <= fib(k + 1) * comb(n, 2)
