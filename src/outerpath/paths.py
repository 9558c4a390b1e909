"""Induced path counting.

The depth-first walkers extend a path only at its free endpoint, drawing
the next vertex from the last one's neighbors outside a forbidden mask
``forb``: the start bit plus the neighborhoods of every path vertex before
the last.  ``forb`` holds every path vertex, so each emitted vertex
sequence is an induced path by construction.  (Without the start bit only
the start could recur, as the third vertex, where every extension is
forbidden; the seed prunes that dead branch.)  One counter serves both
:func:`count_induced_paths` and :func:`count_induced_paths_between`: it
counts the paths that end in a vertex set, recursing to the next-to-last
vertex and taking one popcount there for the choices of the last.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Callable, Iterator

from .graph import Graph


@dataclass(frozen=True)
class PathCount:
    k: int
    copies: int


def _path_counter(adj: tuple[int, ...], k: int) -> Callable[[int, int, int, int], int]:
    """``extend(last, forb, depth, end)`` counts the induced ``k``-vertex
    paths (k >= 3) that extend a ``depth``-vertex path and end in ``end``."""

    def extend(last: int, forb: int, depth: int, end: int) -> int:
        cand = adj[last] & ~forb
        forb |= adj[last]
        # the path's last vertex lies at least two steps past ``last``, so it
        # must avoid forb, which only grows: no end outside forb, no path
        keep = end & ~forb
        if not keep:
            return 0
        total = 0
        if depth + 2 == k:
            # each next vertex w ends the path at its neighbors in ``keep``
            while cand:
                low = cand & -cand
                cand ^= low
                total += (adj[low.bit_length() - 1] & keep).bit_count()
            return total
        while cand:
            low = cand & -cand
            cand ^= low
            total += extend(low.bit_length() - 1, forb, depth + 1, end)
        return total

    return extend


def count_induced_paths(g: Graph, k: int) -> PathCount:
    """Number of unordered induced paths on ``k`` vertices (for k = 2, the edges)."""
    n = g.n
    if not 1 <= k <= n:
        raise ValueError(f"path length k must be in 1..{n}, got {k}")
    if k == 1:
        return PathCount(1, n)
    if k == 2:
        return PathCount(2, g.edge_count())
    extend = _path_counter(g.adj, k)
    total = 0
    # a path from s ends at a vertex above s, so each copy counts once
    for s in range(n - 1):
        total += extend(s, 1 << s, 1, (1 << n) - (2 << s))
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
    if k == 2:
        return int(g.has_edge(x, y))
    return _path_counter(g.adj, k)(x, 1 << x, 1, 1 << y)


def iter_induced_paths(g: Graph, k: int) -> Iterator[tuple[int, ...]]:
    """Yield each induced ``k``-vertex path once, as a tuple with first < last."""
    n = g.n
    if not 2 <= k <= n:
        raise ValueError(f"path length k must be in 2..{n}, got {k}")
    adj = g.adj
    path: list[int] = []

    def extend(last: int, forb: int, end: int) -> Iterator[tuple[int, ...]]:
        cand = adj[last] & ~forb
        if len(path) + 1 == k:
            cand &= end
            while cand:
                low = cand & -cand
                cand ^= low
                yield tuple(path) + (low.bit_length() - 1,)
            return
        forb |= adj[last]
        # as in the counter: the last vertex must avoid forb
        if not end & ~forb:
            return
        while cand:
            low = cand & -cand
            cand ^= low
            w = low.bit_length() - 1
            path.append(w)
            yield from extend(w, forb, end)
            path.pop()

    # a path from s ends at a vertex above s, so each is yielded once
    for s in range(n - 1):
        path[:] = [s]
        yield from extend(s, 1 << s, (1 << n) - (2 << s))
