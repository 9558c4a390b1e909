"""Exhaustive extremal search over outerplanar graphs.

Every maximal outerplanar graph on n >= 3 vertices is a triangulated
convex polygon, so every outerplanar graph (up to relabeling the outer
cycle to the identity) is an edge subset of some polygon triangulation:
a subset of the n cycle edges plus a non-crossing chord set.  One apex
recursion over the n-gon enumerates the triangulations (every apex over
each base, Catalan(n-2) of them), draws ``random_outerplanar``'s (one
random apex) and, with each chord to an apex's left part present or
absent, lists the dissections of the n-gon directly, each once,
little-Schroeder(n) of them.

Rotating or reflecting the outer cycle changes no count, so one sweep
per n scans only one dissection D per dihedral orbit (75 of the 903 at
n = 8), with all 2^n subsets of the cycle edges.  With numpy, every
subset is matched against every path of D plus the cycle on 2..n
vertices: a candidate vertex sequence is an induced path of the subset
graph iff its consecutive pairs are all present and its other pairs
among D and the cycle are all absent, which is one mask comparison
against all subsets at once.  The sweep yields the per-length maxima
with their maximising graphs and the endpoint-pair census, closed under
the dihedral maps of the vertex pairs; ``extremal_value`` and
``endpoint_pair_maxima`` read it from a per-process cache.  Maximising
graphs are canonicalised once per rotation/reflection class of the outer
cycle.

With ``jobs`` workers, :func:`_sweep` splits the orbit representatives
once into at most ``jobs`` contiguous blocks, each carrying 2^n subsets;
the reduction (max, then union of maximising graphs) is associative, so
reports are byte-identical for any worker count.  :func:`_pool_map` scans
the first block in the caller and each other block in one child
process, and reaps every child before the sweep returns.
"""

from __future__ import annotations

import multiprocessing
import random
import time
from dataclasses import dataclass
from math import comb
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .graph import SCHEMA, Graph, UnsupportedSizeError, canonical_form

TRIANGULATION_CAP = 16
SEARCH_CAP = 9

Edges = tuple[tuple[int, int], ...]


def catalan(m: int) -> int:
    return comb(2 * m, m) // (m + 1)


def _every_apex(lo: int, hi: int) -> range:
    return range(lo + 1, hi)


def _polygon_chords(
    n: int, apexes: Callable[[int, int], Iterable[int]], dissect: bool = False
) -> Iterator[Edges]:
    """Chord sets of the n-gon on positions 0..n-1, built over the base (0, n-1).

    Over a base (lo, hi), the apex c is the corner next to hi of the face
    on the base, and ``apexes(lo, hi)`` gives the apexes to try.  The
    chord (c, hi) is present whenever c..hi is a polygon.  The chord
    (lo, c) is present too, which gives triangulations, or, with
    ``dissect``, also absent, when the face over (lo, c) merges into the
    base's face; that gives every dissection once.  The base's chords
    come before those of the parts lo..c and c..hi.
    """
    if not 3 <= n <= TRIANGULATION_CAP:
        raise ValueError(f"polygon enumeration supports 3 <= n <= {TRIANGULATION_CAP}")
    return _chords_over(0, n - 1, apexes, dissect)


def _chords_over(
    lo: int, hi: int, apexes: Callable[[int, int], Iterable[int]], dissect: bool
) -> Iterator[Edges]:
    if hi - lo < 2:
        yield ()
        return
    for c in apexes(lo, hi):
        base = ((c, hi),) if hi - c >= 2 else ()
        # a dissection may also leave (lo, c) out
        merged = base if dissect and c - lo >= 2 else None
        if c - lo >= 2:
            base = ((lo, c),) + base
        for left in _chords_over(lo, c, apexes, dissect):
            for right in _chords_over(c, hi, apexes, dissect):
                yield base + left + right
                if merged is not None:
                    yield merged + left + right


def triangulation_chord_sets(n: int) -> Iterator[Edges]:
    for chords in _polygon_chords(n, _every_apex):
        yield tuple(sorted(chords))


def dissections(n: int) -> Iterator[Edges]:
    """Each dissection of the n-gon 0..n-1 by non-crossing chords once, as a
    sorted chord tuple: little-Schroeder(n) of them (OEIS A001003)."""
    for chords in _polygon_chords(n, _every_apex, dissect=True):
        yield tuple(sorted(chords))


def _cycle_edges(n: int) -> list[tuple[int, int]]:
    return [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)]


def enumerate_triangulations(n: int) -> Iterator[Graph]:
    """All triangulations of the convex n-gon with outer cycle 0..n-1."""
    cycle = _cycle_edges(n)
    for chords in triangulation_chord_sets(n):
        yield Graph(n, cycle + list(chords))


def random_outerplanar(n: int, rng: random.Random) -> Graph:
    """Random edge subset of the triangulation drawn with one random apex per base."""
    triangulation = _polygon_chords(n, lambda lo, hi: (rng.randint(lo + 1, hi - 1),))
    keep = rng.uniform(0.3, 1.0)
    edges = _cycle_edges(n) + list(next(triangulation))
    return Graph(n, [e for e in edges if rng.random() < keep])


# -- sweep over one dissection per dihedral orbit ------------------------------


def _path_candidates(n: int, chords: Edges) -> list[tuple[int, int, int, int, int]]:
    """Self-avoiding paths on 2 or more vertices of the cycle 0..n-1 plus
    ``chords``, as (length, start, end, req, mask) over the cycle edges.

    Cycle edge i of :func:`_cycle_edges` joins i and i+1 (mod n) and has
    bit i.  With every chord present and the cycle edges of subset S, a
    path is induced iff ``S & mask == req``: ``req`` holds the bits of its
    consecutive pairs and ``mask`` every cycle edge inside the path.  A
    path with a chord between non-consecutive vertices is never induced,
    nor is any extension of it; neither is produced.  Paths are produced
    once each (start < end).
    """
    chord_adj = [0] * n
    for u, v in chords:
        chord_adj[u] |= 1 << v
        chord_adj[v] |= 1 << u
    adj = [row | 1 << (v + 1) % n | 1 << (v - 1) % n for v, row in enumerate(chord_adj)]
    # the two cycle edges at v; the cycle edge uw is cycle_at[u] & cycle_at[w]
    cycle_at = [1 << v | 1 << (v - 1) % n for v in range(n)]
    out: list[tuple[int, int, int, int, int]] = []

    def extend(start: int, u: int, length: int, pmask: int, req: int) -> None:
        m = adj[u] & ~pmask
        while m:
            low = m & -m
            m ^= low
            w = low.bit_length() - 1
            # a chord from w to a path vertex other than u
            if chord_adj[w] & pmask & ~(1 << u):
                continue
            nreq = req | cycle_at[u] & cycle_at[w]
            p = pmask | low
            if w > start:
                # a cycle edge on the path joins consecutive vertices (req) or
                # others, which S must omit: mask is every i with i, i+1 (mod n) in p
                out.append((length + 1, start, w, nreq, p & (p >> 1 | (p & 1) << (n - 1))))
            extend(start, w, length + 1, p, nreq)

    # a path from n-1 has every end below its start
    for s in range(n - 1):
        extend(s, s, 1, 1 << s, 0)
    return out


@dataclass(frozen=True)
class SearchReport:
    """One (n, k) cell of the exhaustive search.

    ``graphs_scanned`` is Catalan(n-2) * 2^(2n-3), the number of
    (triangulation, edge subset) pairs the search covers.  Each distinct
    labeled graph among them is covered by a rotation or reflection of
    the outer cycle onto a scanned graph (see :func:`dihedral_orbits`).
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


def dihedral_orbits(n: int) -> Iterator[tuple[Edges, int]]:
    """Each rotation/reflection orbit of the dissections of the n-gon once,
    as its least chord set and its size, the number of dissections in it.

    Orbits come in the order in which :func:`dissections` first meets a
    member of each.
    """
    return _orbit_minima(n, dissections(n))


def _orbit_minima(n: int, edge_sets: Iterable[Edges]) -> Iterator[tuple[Edges, int]]:
    """The least member and size of each rotation/reflection orbit that the
    sorted (low, high) edge tuples ``edge_sets`` meet, at the first member
    met; the orbit's 2n images are then kept, so its later members cost one lookup.
    """
    seen: set[Edges] = set()
    for edges in edge_sets:
        if edges not in seen:
            images = {tuple(sorted(image)) for image in _dihedral_images(n, edges)}
            seen |= images
            yield min(images), len(images)


def _sweep_block(args) -> tuple[list[int], list[list[Edges]], np.ndarray]:
    """Scan every cycle-edge subset over each dissection of a block, for every path length.

    Returns, per length m, the most induced m-paths in one graph and the
    edge lists of the graphs that have that many, and the endpoint census
    ``[x*n+y, m]``: the most induced m-paths between x and y in one graph.
    """
    n, block = args
    cycle = _cycle_edges(n)
    subsets = np.arange(1 << n, dtype=np.uint32)
    best = [-1] * (n + 1)
    tied: list[list[tuple[Edges, np.ndarray]]] = [[] for _ in range(n + 1)]
    pair_maxima = np.zeros((n * n, n + 1), dtype=np.int32)
    for chords in block:
        table = np.array(sorted(_path_candidates(n, chords)), dtype=np.uint32)
        # Rows sorted by (length, x, y) form one group per pair and length,
        # whose rows sum to the pair's count; the groups of one length sum
        # to the total.  A length may have no group: a chord cuts the
        # cycle's Hamiltonian path, for one.
        keys = table[:, :3]
        starts = np.flatnonzero(np.r_[True, (keys[1:] != keys[:-1]).any(axis=1)])
        group_len = keys[starts, 0].astype(np.intp)
        group_pair = (keys[starts, 1] * n + keys[starts, 2]).astype(np.intp)
        len_starts = np.flatnonzero(np.r_[True, group_len[1:] != group_len[:-1]])

        ok = (subsets & table[:, 4, None]) == table[:, 3, None]
        # int16 holds any count: for n <= SEARCH_CAP = 9 a representative
        # keeps at most 214 candidates, far below 2^15 (a test re-checks this)
        counts = np.add.reduceat(ok, starts, axis=0, dtype=np.int16)
        pair_maxima[group_pair, group_len] = np.maximum(
            pair_maxima[group_pair, group_len], counts.max(axis=1)
        )
        totals = np.add.reduceat(counts, len_starts, axis=0, dtype=np.int32)
        lengths = group_len[len_starts].tolist()
        for m, row, local in zip(lengths, totals, totals.max(axis=1).tolist()):
            if local > best[m]:
                best[m] = local
                tied[m] = []
            if local == best[m]:
                tied[m].append((chords, np.flatnonzero(row == local)))

    witnesses = [
        [
            chords + tuple(e for i, e in enumerate(cycle) if sid >> i & 1)
            for chords, sids in tied[m]
            for sid in sids.tolist()
        ]
        for m in range(n + 1)
    ]
    return best, witnesses, pair_maxima


def _dihedral_images(
    n: int, pairs: Sequence[tuple[int, int]]
) -> Iterator[list[tuple[int, int]]]:
    """The vertex pairs under each of the 2n rotations and reflections of the
    cycle 0..n-1, every image pair as (low, high)."""
    for r in range(n):
        for sign in (1, -1):
            image = [((r + sign * u) % n, (r + sign * v) % n) for u, v in pairs]
            yield [(u, v) if u < v else (v, u) for u, v in image]


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
    subset of the cycle edges plus a dissection, and a rotation or
    reflection of the cycle carries it onto a graph over the orbit
    representative of its dissection, with the same counts.  Blocks of
    representatives are scanned independently and reduced by max and
    union, which does not depend on how the list is split; the census is
    then closed under the 2n maps of the vertex pairs.
    """
    key = (n, jobs)
    if key in _sweep_cache:
        return _sweep_cache[key]
    blocks = _chunked([chords for chords, _ in dihedral_orbits(n)], jobs)
    parts = _pool_map(_sweep_block, [(n, block) for block in blocks])
    best = [max(p[0][m] for p in parts) for m in range(n + 1)]
    classes = []
    for m in range(n + 1):
        tied = (tuple(sorted(edges)) for p in parts if p[0][m] == best[m] for edges in p[1][m])
        classes.append(tuple(Graph(n, rep) for rep, _ in sorted(_orbit_minima(n, tied))))
    pair_maxima = parts[0][2]
    for p in parts[1:]:
        np.maximum(pair_maxima, p[2], out=pair_maxima)
    pairs = [(x, y) for x in range(n) for y in range(x + 1, n)]
    images = np.array([[x * n + y for x, y in image] for image in _dihedral_images(n, pairs)])
    # the first map is the identity
    pair_maxima[images[0]] = pair_maxima[images].max(axis=0)
    pair_maxima.flags.writeable = False
    _sweep_cache[key] = _Sweep(tuple(best), tuple(classes), pair_maxima)
    return _sweep_cache[key]


def _chunked(items: list, jobs: int) -> list[list]:
    """``items`` in at most ``jobs`` contiguous blocks of near-equal size."""
    jobs = max(1, min(jobs, len(items)))
    size = (len(items) + jobs - 1) // jobs
    return [items[i : i + size] for i in range(0, len(items), size)]


def _run_child(fn, arg, conn) -> None:
    """A child's work: fn(arg), or the exception that stopped it, sent back over conn."""
    try:
        reply = (True, fn(arg))
    except Exception as exc:
        reply = (False, exc)
    conn.send(reply)
    conn.close()


def _pool_map(fn, args_list: list) -> list:
    """``[fn(a) for a in args_list]``, one process per argument.

    The caller runs the first argument itself; each other argument runs
    in one child process of the default start method, which sends its
    result, or the exception that stopped it, back over a pipe.  An
    exception from any argument is raised here.  Every child is
    terminated and joined before this returns, so its CPU time and memory
    count among the caller's reaped children.
    """
    children = []
    try:
        for arg in args_list[1:]:
            receive, send = multiprocessing.Pipe(duplex=False)
            child = multiprocessing.Process(target=_run_child, args=(fn, arg, send))
            child.start()
            send.close()
            children.append((child, receive))
        results = [fn(a) for a in args_list[:1]]
        for _, receive in children:
            ok, value = receive.recv()
            if not ok:
                raise value
            results.append(value)
        return results
    finally:
        for child, receive in children:
            child.terminate()
            child.join()
            receive.close()


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
    witnesses = {canonical_form(g) for g in sweep.classes[k]}
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
