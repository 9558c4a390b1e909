"""The triangulated n-gon: the model of every outerplanar graph.

Every maximal outerplanar graph on n >= 3 vertices is a triangulated
convex polygon, so every outerplanar graph (up to relabeling the outer
cycle to the identity) is an edge subset of some polygon triangulation:
a subset of the n cycle edges plus a non-crossing chord set.  One apex
recursion over the n-gon enumerates the triangulations (every apex over
each base, Catalan(n-2) of them), draws ``random_outerplanar``'s (one
random apex) and, with each chord to an apex's left part present or
absent, lists the dissections of the n-gon directly, each once,
little-Schroeder(n) of them.  Cycle edge i of :func:`cycle_edges` joins
i and i+1 (mod n), and :func:`dihedral_orbits` lists one dissection per
rotation/reflection orbit of the cycle.
"""

from __future__ import annotations

import random
from math import comb
from typing import Callable, Iterable, Iterator

from .graph import Graph

TRIANGULATION_CAP = 16

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


def cycle_edges(n: int) -> list[tuple[int, int]]:
    return [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)]


def enumerate_triangulations(n: int) -> Iterator[Graph]:
    """All triangulations of the convex n-gon with outer cycle 0..n-1."""
    cycle = cycle_edges(n)
    for chords in triangulation_chord_sets(n):
        yield Graph(n, cycle + list(chords))


def random_outerplanar(n: int, rng: random.Random) -> Graph:
    """Random edge subset of the triangulation drawn with one random apex per base."""
    triangulation = _polygon_chords(n, lambda lo, hi: (rng.randint(lo + 1, hi - 1),))
    keep = rng.uniform(0.3, 1.0)
    edges = cycle_edges(n) + list(next(triangulation))
    return Graph(n, [e for e in edges if rng.random() < keep])


def dihedral_orbits(n: int) -> Iterator[tuple[Edges, int]]:
    """Each rotation/reflection orbit of the dissections of the n-gon once,
    as its least chord set and its size, the number of dissections in it.

    Orbits come in the order in which :func:`dissections` first meets a
    member of each.
    """
    return orbit_minima(n, dissections(n))


def _dihedral_images(n: int, edges: Edges) -> Iterator[list[tuple[int, int]]]:
    """The edges under each of the 2n rotations and reflections of the
    cycle 0..n-1, every image edge as (low, high)."""
    for r in range(n):
        for sign in (1, -1):
            image = [((r + sign * u) % n, (r + sign * v) % n) for u, v in edges]
            yield [(u, v) if u < v else (v, u) for u, v in image]


def orbit_minima(n: int, edge_sets: Iterable[Edges]) -> Iterator[tuple[Edges, int]]:
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
