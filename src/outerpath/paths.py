"""Induced path counting.

The depth-first counters extend a path only at its free endpoint while
carrying a forbidden mask (the united neighborhoods of all non-terminal
path vertices), so every emitted vertex sequence is an induced path by
construction.  Unordered copies are counted once each by requiring the
first endpoint to be smaller than the last.  :func:`count_induced_paths`
recurses only to the next-to-last vertex and counts the choices of the
last one there, with one popcount per next-to-last vertex.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Iterator

from .graph import Graph


@dataclass(frozen=True)
class PathCount:
    k: int
    copies: int


def count_induced_paths(g: Graph, k: int) -> PathCount:
    """Number of unordered induced paths on ``k`` vertices (for k = 2, the edges)."""
    n = g.n
    if not 1 <= k <= n:
        raise ValueError(f"path length k must be in 1..{n}, got {k}")
    if k == 1:
        return PathCount(1, n)
    if k == 2:
        return PathCount(2, g.edge_count())
    adj = g.adj
    full = g.full_mask

    def extend(last: int, pmask: int, forb: int, depth: int, end: int) -> int:
        cand = adj[last] & ~(pmask | forb)
        forb |= adj[last]
        total = 0
        if depth + 2 == k:
            # each next vertex w ends the path at its neighbors in ``keep``
            keep = end & ~(pmask | forb)
            while cand:
                low = cand & -cand
                cand ^= low
                total += (adj[low.bit_length() - 1] & keep).bit_count()
            return total
        while cand:
            low = cand & -cand
            cand ^= low
            total += extend(low.bit_length() - 1, pmask | low, forb, depth + 1, end)
        return total

    total = 0
    # a path from s ends at a vertex above s
    for s in range(n - 1):
        total += extend(s, 1 << s, 0, 1, full >> (s + 1) << (s + 1))
    return PathCount(k, total)


def count_induced_p3_closed_form(g: Graph) -> int:
    """Independent 3-vertex oracle: sum over v of C(deg v, 2) - e(G[N(v)])."""
    adj = g.adj
    total = 0
    for v in range(g.n):
        row = adj[v]
        pairs = comb(row.bit_count(), 2)
        inside = 0
        rest = row
        while rest:
            low = rest & -rest
            rest ^= low
            inside += (adj[low.bit_length() - 1] & row).bit_count()
        total += pairs - inside // 2
    return total


def count_induced_paths_between(g: Graph, x: int, y: int, k: int) -> int:
    """Number of induced ``k``-vertex paths whose endpoint set is {x, y}."""
    n = g.n
    if not (0 <= x < n and 0 <= y < n):
        raise ValueError(f"vertices must be in 0..{n - 1}")
    if x == y:
        raise ValueError("endpoints must be distinct")
    if not 2 <= k <= n:
        raise ValueError(f"path length k must be in 2..{n}, got {k}")
    adj = g.adj
    end = 1 << y

    def extend(last: int, pmask: int, forb: int, depth: int) -> int:
        cand = adj[last] & ~(pmask | forb)
        if depth + 1 == k:
            return cand >> y & 1
        nforb = forb | adj[last]
        # y next to the last vertex or one before it can no longer end the
        # path; so y is never in cand below
        if nforb & end:
            return 0
        total = 0
        while cand:
            low = cand & -cand
            cand ^= low
            total += extend(low.bit_length() - 1, pmask | low, nforb, depth + 1)
        return total

    return extend(x, 1 << x, 0, 1)


def iter_induced_paths(g: Graph, k: int) -> Iterator[tuple[int, ...]]:
    """Yield each induced ``k``-vertex path once, as a tuple with first < last."""
    n = g.n
    if not 2 <= k <= n:
        raise ValueError(f"path length k must be in 2..{n}, got {k}")
    adj = g.adj
    path: list[int] = []

    def extend(last: int, pmask: int, forb: int) -> Iterator[tuple[int, ...]]:
        cand = adj[last] & ~(pmask | forb)
        if len(path) + 1 == k:
            cand = cand >> (path[0] + 1) << (path[0] + 1)
            while cand:
                low = cand & -cand
                cand ^= low
                yield tuple(path) + (low.bit_length() - 1,)
            return
        nforb = forb | adj[last]
        while cand:
            low = cand & -cand
            cand ^= low
            w = low.bit_length() - 1
            path.append(w)
            yield from extend(w, pmask | low, nforb)
            path.pop()

    for s in range(n):
        path[:] = [s]
        yield from extend(s, 1 << s, 0)
