"""Exhaustive extremal search over outerplanar graphs.

Every outerplanar graph with outer cycle 0..n-1 is a subset of the n
cycle edges plus a dissection of the n-gon (:mod:`outerpath.polygon`).
Rotating or reflecting the outer cycle changes no count, so one sweep
per n scans only one dissection D per dihedral orbit (75 of the 903 at
n = 8), with all 2^n subsets of the cycle edges.  Every subset is
matched against every path of D plus the cycle on 2..n vertices: a
candidate vertex sequence is an induced path of the subset graph iff its
consecutive pairs are all present and its other pairs among D and the
cycle are all absent.  Those subsets form a subcube, held as a 2^n-bit
int with bit S for subset S, which the path walk narrows as each vertex
joins, and per-subset counts are vertical counters of such ints, so one
big-int operation acts on all subsets at once.  The sweep yields the
per-length maxima with their maximising graphs and the endpoint-pair
census, kept per distance of the pair around the cycle, which the
rotations and reflections preserve; ``extremal_value`` and
``endpoint_pair_maxima`` read it from a per-process cache.

With ``jobs`` workers, :func:`_sweep` splits the orbit representatives
once into at most ``jobs`` contiguous blocks, each carrying 2^n subsets;
the reduction (max, then the maximising graphs of the blocks that reach
it, in block order) is associative, so reports are byte-identical for
any worker count.  :func:`_pool_map` scans the first block in the caller
and each other block in one child process, and reaps every child before
the sweep returns.  A sweep whose work (representatives times 2^n
subsets) is below ``_FORK_WORK``, which is every sweep with n <= 8,
costs less than starting a child, so the caller scans all its blocks
itself and never imports multiprocessing.
"""

from __future__ import annotations

import time
from array import array
from typing import NamedTuple

from .graph import SCHEMA, Graph, UnsupportedSizeError, canonical_form
from .polygon import Edges, catalan, cycle_edges, dihedral_orbits

# perfbench/spans.py traces this name as search.triangulation_chord_sets
from .polygon import triangulation_chord_sets

SEARCH_CAP = 9


def _path_cubes(
    n: int, chords: Edges, bits: list[int], everyone: int
) -> list[tuple[int, int, int, int]]:
    """Self-avoiding paths on 2 or more vertices of the cycle 0..n-1 plus
    ``chords``, as (length, start, end, cube): bit S of ``cube`` is set iff
    the path is induced with every chord and the cycle edges of subset S.

    Cycle edge i of :func:`~outerpath.polygon.cycle_edges` joins i and i+1
    (mod n); ``bits[i]`` holds the subsets that contain it and
    ``everyone`` all 2^n subsets.
    When w joins the path after u, each cycle edge from w to a path vertex
    narrows the cube: to the subsets that hold it if it joins w to u, else
    to those without it.  A path with a chord between non-consecutive
    vertices is never induced, nor is any extension of it; neither is
    produced.  Paths are produced once each (start < end).
    """
    chord_adj = [0] * n
    for u, v in chords:
        chord_adj[u] |= 1 << v
        chord_adj[v] |= 1 << u
    # per vertex w: the bit of w+1 and the subsets with and without edge w,
    # then the same for w-1 and edge w-1
    edge = [(b, everyone ^ b) for b in bits]
    ring = [(1 << (w + 1) % n, *edge[w], 1 << (w - 1) % n, *edge[w - 1]) for w in range(n)]
    adj = [row | r[0] | r[3] for row, r in zip(chord_adj, ring)]
    out: list[tuple[int, int, int, int]] = []

    def extend(start: int, u: int, length: int, pmask: int, cube: int) -> None:
        ubit = 1 << u
        m = adj[u] & ~pmask
        while m:
            low = m & -m
            m ^= low
            w = low.bit_length() - 1
            # a chord from w to a path vertex other than u
            if chord_adj[w] & pmask & ~ubit:
                continue
            after, after_on, after_off, before, before_on, before_off = ring[w]
            c = cube
            if pmask & after:
                c &= after_on if after == ubit else after_off
            if pmask & before:
                c &= before_on if before == ubit else before_off
            if w > start:
                out.append((length + 1, start, w, c))
            extend(start, w, length + 1, pmask | low, c)

    # a path from n-1 has every end below its start
    for s in range(n - 1):
        extend(s, s, 1, 1 << s, everyone)
    return out


class SearchReport(NamedTuple):
    """One (n, k) cell of the exhaustive search.

    ``graphs_scanned`` is Catalan(n-2) * 2^(2n-3), the number of
    (triangulation, edge subset) pairs the search covers.  Each distinct
    labeled graph among them is covered by a rotation or reflection of
    the outer cycle onto a scanned graph (see
    :func:`outerpath.polygon.dihedral_orbits`).
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


def _add(planes: list[int], cube: int) -> None:
    """Add 1 at every bit of ``cube`` to the vertical counter ``planes``.

    Plane j holds bit j of every subset's count, so a count is read down
    one bit position of all planes; the carry ripples up until it is empty.
    """
    for j, plane in enumerate(planes):
        planes[j] = plane ^ cube
        cube &= plane
        if not cube:
            return
    planes.append(cube)


def _argmax(planes: list[int]) -> tuple[int, int]:
    """The largest count in ``planes`` and the subsets that reach it: from
    the top plane down, keep the subsets with the bit set whenever any of
    them has it.  With no planes, every subset ties at 0 (``tied`` is -1)."""
    best, tied = 0, -1
    for j in reversed(range(len(planes))):
        top = tied & planes[j]
        if top:
            best, tied = best | 1 << j, top
    return best, tied


def _sweep_block(args) -> tuple[list[int], list[list[Edges]], list[int]]:
    """Scan every cycle-edge subset over each dissection of a block, for every path length.

    Returns, per length m, the most induced m-paths in one graph and the
    edge lists of the graphs that have that many, and the endpoint census
    as a flat list, ``[d*(n+1) + m]``: the most induced m-paths in one
    graph between two vertices at distance d = 1..n//2 around the cycle
    (row d = 0 stays zero).
    """
    n, block = args
    cycle = cycle_edges(n)
    everyone = (1 << (1 << n)) - 1
    # bits[i]: the subsets that hold cycle edge i
    bits = [sum(1 << s for s in range(1 << n) if s >> i & 1) for i in range(n)]
    best = [-1] * (n + 1)
    tied: list[list[tuple[Edges, int]]] = [[] for _ in range(n + 1)]
    census = [0] * ((n // 2 + 1) * (n + 1))
    for chords in block:
        # totals holds only the lengths that have a row; a length may have
        # none: a chord cuts the cycle's Hamiltonian path, for one.  Groups
        # are per pair, since two pairs' counts must not be summed
        groups: dict[tuple[int, int, int], list[int]] = {}
        totals: dict[int, list[int]] = {}
        for length, x, y, cube in _path_cubes(n, chords, bits, everyone):
            _add(groups.setdefault((length, x, y), []), cube)
            _add(totals.setdefault(length, []), cube)
        for (length, x, y), planes in groups.items():
            # a one-plane counter has count 1 on some subset
            local = 1 if len(planes) == 1 else _argmax(planes)[0]
            at = min(y - x, n - y + x) * (n + 1) + length
            census[at] = max(census[at], local)
        for m, planes in totals.items():
            local, sids = _argmax(planes)
            if local > best[m]:
                best[m] = local
                tied[m] = []
            if local == best[m]:
                tied[m].append((chords, sids))

    witnesses = [
        [
            chords + tuple(e for i, e in enumerate(cycle) if sid >> i & 1)
            for chords, sids in tied[m]
            for sid in range(1 << n)
            if sids >> sid & 1
        ]
        for m in range(n + 1)
    ]
    return best, witnesses, census


class _Sweep(NamedTuple):
    """One pass over every n-vertex outerplanar graph, for every path length m.

    ``best[m]`` is the most induced m-paths in one graph; ``maximisers[m]``
    holds the edges of every graph over an orbit representative that has
    that many; ``pair_maxima`` is the read-only endpoint census.
    """

    best: tuple[int, ...]
    maximisers: tuple[tuple[Edges, ...], ...]
    pair_maxima: memoryview


# Keyed on the worker count as well as n: check_parallel_determinism and the
# worker-count tests compare sweeps made with different worker counts, and a
# cache on n alone would hand them one shared result.
_sweep_cache: dict[tuple[int, int], _Sweep] = {}

# Representatives times 2^n subsets below which the caller scans every block.
# A fork pays the multiprocessing import and one child's start, pipe and
# join.  On a shared 2-core host, in fresh interpreters (medians of 9; CPU
# time includes the reaped child), the sweep at n = 8 (work 19,200) took
# 22.9 ms wall and 22.9 ms CPU in one process against 30.7 ms wall and
# 41.8 ms CPU over two; at n = 9 (work 134,144) 103.9 ms wall and 103.9 ms
# CPU against 94.0 ms wall and 143.6 ms CPU.
_FORK_WORK = 1 << 16


def _sweep(n: int, jobs: int) -> _Sweep:
    """The sweep for n, run once per (n, jobs) in a process.

    Every labeled outerplanar graph whose outer cycle lies on 0..n-1 is a
    subset of the cycle edges plus a dissection, and a rotation or
    reflection of the cycle carries it onto a graph over the orbit
    representative of its dissection, with the same counts.  Blocks of
    representatives are scanned independently and reduced by max, then
    by joining the maximisers of the blocks that reach it in block order,
    which does not depend on how the list is split; each block keys
    its census by the distance of the pair around the cycle, which those
    maps keep, so the reduced rows serve every pair.  A sweep with less
    work than ``_FORK_WORK`` scans its blocks one after another in the
    caller, since a child would cost more than it saves; the blocks and
    their reduction are the same.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    key = (n, jobs)
    if key in _sweep_cache:
        return _sweep_cache[key]
    reps = [chords for chords, _ in dihedral_orbits(n)]
    args = [(n, block) for block in _chunked(reps, jobs)]
    if len(reps) << n < _FORK_WORK:
        parts = [_sweep_block(a) for a in args]
    else:
        parts = _pool_map(_sweep_block, args)
    best = [max(p[0][m] for p in parts) for m in range(n + 1)]
    maximisers = tuple(
        tuple(edges for p in parts if p[0][m] == best[m] for edges in p[1][m])
        for m in range(n + 1)
    )
    # the census, reduced by max; the rotations and reflections carry a pair
    # x < y onto exactly the pairs at its distance around the cycle, so each
    # pair reads its distance's row, and every pair x >= y the zero row 0
    census = [max(counts) for counts in zip(*(p[2] for p in parts))]
    distance = (min(y - x, n - y + x) if x < y else 0 for x in range(n) for y in range(n))
    # a view of immutable bytes refuses writes; unlike the sweep's lists, a
    # memoryview does not pickle, so it is built here in the caller
    flat = array("i", [c for d in distance for c in census[d * (n + 1) : (d + 1) * (n + 1)]])
    pair_maxima = memoryview(flat.tobytes()).cast("i", (n * n, n + 1))
    _sweep_cache[key] = _Sweep(tuple(best), maximisers, pair_maxima)
    return _sweep_cache[key]


def _chunked(items: list, jobs: int) -> list[list]:
    """``items`` in at most ``jobs`` contiguous blocks of near-equal size."""
    jobs = min(jobs, len(items))
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
    count among the caller's reaped children.  Each child costs a start,
    a pipe and a join, and the first call that starts one imports
    multiprocessing, so :func:`_sweep` calls this only for a sweep with at
    least ``_FORK_WORK`` work.
    """
    if len(args_list) < 2:
        return [fn(a) for a in args_list]
    import multiprocessing

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
    all maximizing graphs.
    """
    if not 3 <= n <= SEARCH_CAP:
        raise UnsupportedSizeError(f"extremal search supports 3 <= n <= {SEARCH_CAP}")
    if not 2 <= k <= n:
        # k = 1 is degenerate: every n-vertex graph has exactly n copies
        raise ValueError(f"k must be in 2..{n}, got {k}")
    start = time.perf_counter()
    sweep = _sweep(n, jobs)
    witnesses = {canonical_form(Graph(n, edges)) for edges in sweep.maximisers[k]}
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


def endpoint_pair_maxima(n: int, jobs: int = 1) -> memoryview:
    """max over all outerplanar graphs and pairs x<y of the induced m-path
    count between x and y, indexed [x*n+y, m] for m <= n.

    The census is a 2-D memoryview of C ints, shared with later calls and
    read-only; ``.tolist()`` gives its rows as lists.
    """
    if not 3 <= n <= SEARCH_CAP:
        raise UnsupportedSizeError(f"endpoint census supports 3 <= n <= {SEARCH_CAP}")
    return _sweep(n, jobs).pair_maxima
