"""Per-chord crossing counts and side-accounting statistics.

An edge xy of an embedded 2-connected outerplanar graph splits the outer
cycle into sides U and U'.  For each side this module counts, seen from
each endpoint, the neighbors on that side (s1, p1, t1, q1) and the induced
3-vertex paths from the endpoint that avoid the other endpoint (s2, p2,
t2, q2), and partitions the side interior into the classes A, B1, B2, D1,
D2 driven by where the endpoint neighborhoods sit along the arc.  phi
counts the induced paths that touch the strict interior of both sides.

The class definitions, in arc order from x to y (x's side-neighbors at
positions i_1 < ... < i_s1, y's at j_1 < ... < j_p1, with j_1 >= i_s1
forced by non-crossing):

* A:  interior vertices not adjacent to x or y, with at most one neighbor
  among x's side-neighbors and at most one among y's.
* B1: x-neighbors having a next x-neighbor with no common neighbor in the
  gap between them; B2 mirrors this for y-neighbors looking backward.
* D1: everything from position i_1 to i_s1 not in A or B1; D2 likewise
  from j_1 to j_p1.  When i_s1 = j_1 that shared vertex lies in both.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .graph import Graph, is_two_connected, vertex_set
from .outerplanar import OuterEmbedding, verify_embedding
from .paths import iter_induced_paths


@dataclass(frozen=True)
class SidePartition:
    """One side's counts, classes and special vertices (host labels)."""

    x: int
    y: int
    seq: tuple[int, ...]
    ox: tuple[int, ...]
    oy: tuple[int, ...]
    s1: int
    s2: int
    p1: int
    p2: int
    a_set: frozenset[int]
    b1_set: frozenset[int]
    b2_set: frozenset[int]
    d1_set: frozenset[int]
    d2_set: frozenset[int]
    v_ell: int | None
    v_x_candidates: tuple[int, ...]
    v_y_candidates: tuple[int, ...]


@dataclass(frozen=True)
class ChordStats:
    n1: int
    n2: int
    s1: int
    s2: int
    t1: int
    t2: int
    p1: int
    p2: int
    q1: int
    q2: int
    a: int
    b1: int
    b2: int
    d1: int
    d2: int
    a_prime: int
    b1_prime: int
    b2_prime: int
    d1_prime: int
    d2_prime: int
    has_v_ell: bool
    has_v_x: bool
    has_v_y: bool
    has_v_ell_prime: bool
    has_v_x_prime: bool
    has_v_y_prime: bool

    @property
    def six_product_bound(self) -> int:
        """The crossing bound on phi: the six endpoint-stub products."""
        return (
            self.s1 * self.q1
            + self.t1 * self.p1
            + self.s1 * self.t2
            + self.s2 * self.t1
            + self.p1 * self.q2
            + self.p2 * self.q1
        )

    @property
    def quadratic_bound(self) -> int:
        """The size bound on phi: n1*n2 + n1 + n2."""
        return self.n1 * self.n2 + self.n1 + self.n2


def _check_graph(g: Graph, emb: OuterEmbedding) -> None:
    if not verify_embedding(g, emb):
        raise ValueError("invalid embedding")
    if not is_two_connected(g):
        raise ValueError("chord statistics require a 2-connected graph")


def _check_instance(g: Graph, emb: OuterEmbedding, chord: tuple[int, int]) -> None:
    x, y = chord
    if not g.has_edge(x, y):
        raise ValueError(f"({x},{y}) is not an edge")
    _check_graph(g, emb)


def _side_sequences(g: Graph, emb: OuterEmbedding, chord: tuple[int, int]) -> tuple[list[int], list[int]]:
    """Both side arcs listed from x to y; the second side is mirrored."""
    x, y = chord
    pos = emb.positions()
    n = g.n
    forward = []
    i = pos[x]
    while True:
        forward.append(emb.order[i])
        if i == pos[y]:
            break
        i = (i + 1) % n
    backward = []
    i = pos[x]
    while True:
        backward.append(emb.order[i])
        if i == pos[y]:
            break
        i = (i - 1) % n
    return forward, backward


def _partition_side(g: Graph, seq: list[int]) -> SidePartition:
    x, y = seq[0], seq[-1]
    interior = seq[1:-1]
    arc_pos = {v: i for i, v in enumerate(seq)}
    side_mask = 0
    for v in seq:
        side_mask |= 1 << v
    interior_mask = side_mask & ~(1 << x) & ~(1 << y)

    adj = g.adj
    ox = [v for v in interior if adj[x] >> v & 1]
    oy = [v for v in interior if adj[y] >> v & 1]
    ox_mask = sum(1 << v for v in ox)
    oy_mask = sum(1 << v for v in oy)

    # Non-crossing forces every x-neighbor to precede every y-neighbor on
    # the arc, up to one shared vertex.
    if ox and oy and arc_pos[oy[0]] < arc_pos[ox[-1]]:
        raise RuntimeError("endpoint neighborhoods interleave; embedding is inconsistent")

    s1, p1 = len(ox), len(oy)
    s2 = sum((adj[c] & interior_mask & ~adj[x]).bit_count() for c in ox)
    p2 = sum((adj[c] & interior_mask & ~adj[y]).bit_count() for c in oy)

    a_set = set()
    for v in interior:
        if (ox_mask | oy_mask) >> v & 1:
            continue
        if (adj[v] & ox_mask).bit_count() <= 1 and (adj[v] & oy_mask).bit_count() <= 1:
            a_set.add(v)

    b1_set = set()
    for c, cnext in zip(ox, ox[1:]):
        gap = [w for w in interior if arc_pos[c] < arc_pos[w] < arc_pos[cnext]]
        if not any(adj[c] >> w & 1 and adj[cnext] >> w & 1 for w in gap):
            b1_set.add(c)
    b2_set = set()
    for cprev, c in zip(oy, oy[1:]):
        gap = [w for w in interior if arc_pos[cprev] < arc_pos[w] < arc_pos[c]]
        if not any(adj[cprev] >> w & 1 and adj[c] >> w & 1 for w in gap):
            b2_set.add(c)

    d1_set = set()
    if ox:
        lo, hi = arc_pos[ox[0]], arc_pos[ox[-1]]
        d1_set = {v for v in interior if lo <= arc_pos[v] <= hi} - a_set - b1_set
    d2_set = set()
    if oy:
        lo, hi = arc_pos[oy[0]], arc_pos[oy[-1]]
        d2_set = {v for v in interior if lo <= arc_pos[v] <= hi} - a_set - b2_set

    v_ell = ox[-1] if ox and oy and ox[-1] == oy[0] else None
    v_x_candidates: tuple[int, ...] = ()
    if oy:
        j1 = oy[0]
        v_x_candidates = tuple(
            v for v in sorted(b1_set | d1_set) if v != j1 and adj[j1] >> v & 1
        )
    v_y_candidates: tuple[int, ...] = ()
    if ox:
        i_last = ox[-1]
        v_y_candidates = tuple(
            v for v in sorted(b2_set | d2_set) if v != i_last and adj[i_last] >> v & 1
        )

    return SidePartition(
        x=x,
        y=y,
        seq=tuple(seq),
        ox=tuple(ox),
        oy=tuple(oy),
        s1=s1,
        s2=s2,
        p1=p1,
        p2=p2,
        a_set=frozenset(a_set),
        b1_set=frozenset(b1_set),
        b2_set=frozenset(b2_set),
        d1_set=frozenset(d1_set),
        d2_set=frozenset(d2_set),
        v_ell=v_ell,
        v_x_candidates=v_x_candidates,
        v_y_candidates=v_y_candidates,
    )


def side_partition(g: Graph, emb: OuterEmbedding, chord: tuple[int, int], primed: bool = False) -> SidePartition:
    """Partition of one side; ``primed`` selects the mirrored second side."""
    _check_instance(g, emb, chord)
    forward, backward = _side_sequences(g, emb, chord)
    return _partition_side(g, backward if primed else forward)


def _stats(u: SidePartition, up: SidePartition) -> ChordStats:
    return ChordStats(
        n1=len(u.seq),
        n2=len(up.seq),
        s1=u.s1,
        s2=u.s2,
        t1=up.s1,
        t2=up.s2,
        p1=u.p1,
        p2=u.p2,
        q1=up.p1,
        q2=up.p2,
        a=len(u.a_set),
        b1=len(u.b1_set),
        b2=len(u.b2_set),
        d1=len(u.d1_set),
        d2=len(u.d2_set),
        a_prime=len(up.a_set),
        b1_prime=len(up.b1_set),
        b2_prime=len(up.b2_set),
        d1_prime=len(up.d1_set),
        d2_prime=len(up.d2_set),
        has_v_ell=u.v_ell is not None,
        has_v_x=bool(u.v_x_candidates),
        has_v_y=bool(u.v_y_candidates),
        has_v_ell_prime=up.v_ell is not None,
        has_v_x_prime=bool(up.v_x_candidates),
        has_v_y_prime=bool(up.v_y_candidates),
    )


def chord_stats(g: Graph, emb: OuterEmbedding, chord: tuple[int, int]) -> ChordStats:
    _check_instance(g, emb, chord)
    forward, backward = _side_sequences(g, emb, chord)
    return _stats(_partition_side(g, forward), _partition_side(g, backward))


def _path_masks(g: Graph, k: int) -> list[int]:
    return [vertex_set(path) for path in iter_induced_paths(g, k)] if k <= g.n else []


def _crossing_count(path_masks: list[int], forward: list[int], backward: list[int]) -> int:
    """Paths meeting the strict interior of both side arcs."""
    u_strict = vertex_set(forward[1:-1])
    up_strict = vertex_set(backward[1:-1])
    return sum(1 for pmask in path_masks if pmask & u_strict and pmask & up_strict)


def phi(g: Graph, emb: OuterEmbedding, chord: tuple[int, int], k: int = 4) -> int:
    """Induced ``k``-vertex paths meeting the strict interior of both sides."""
    _check_instance(g, emb, chord)
    return _crossing_count(_path_masks(g, k), *_side_sequences(g, emb, chord))


def chord_instances(
    g: Graph, emb: OuterEmbedding
) -> Iterator[tuple[ChordStats, int, tuple[SidePartition, SidePartition]]]:
    """Stats, phi (k = 4) and both side partitions for every edge of ``g`` as the chord.

    Validates ``g`` and ``emb`` once and enumerates the induced 4-vertex
    paths once, where :func:`chord_stats`, :func:`phi` and
    :func:`side_partition` repeat both for every chord they are given.
    """
    _check_graph(g, emb)
    path_masks = _path_masks(g, 4)
    for chord in g.edges():
        forward, backward = _side_sequences(g, emb, chord)
        sides = (_partition_side(g, forward), _partition_side(g, backward))
        yield _stats(*sides), _crossing_count(path_masks, forward, backward), sides


def partition_is_complete(part: SidePartition) -> bool:
    """Every interior vertex in exactly one class, except a shared v_ell in D1 and D2."""
    classes = (part.a_set, part.b1_set, part.b2_set, part.d1_set, part.d2_set)
    for v in part.seq[1:-1]:
        hits = sum(v in cls for cls in classes)
        if part.v_ell is not None and v == part.v_ell:
            if hits != 2 or v not in part.d1_set or v not in part.d2_set:
                return False
        elif hits != 1:
            return False
    return True


def side_inequalities(stats: ChordStats) -> dict[str, bool]:
    """The ten per-side accounting bounds plus the two size-sum bounds."""
    return {
        "size_sum": stats.a + stats.b1 + stats.b2 + stats.d1 + stats.d2 <= stats.n1 - 1,
        "s1": 2 * stats.s1 <= stats.d1 + 1 + 2 * stats.b1,
        "p1": 2 * stats.p1 <= stats.d2 + 1 + 2 * stats.b2,
        "s2": stats.s2 <= stats.d1 - 1 + stats.a + 1,
        "p2": stats.p2 <= stats.d2 - 1 + stats.a + 1,
        "size_sum_prime": (
            stats.a_prime + stats.b1_prime + stats.b2_prime + stats.d1_prime + stats.d2_prime
            <= stats.n2 - 1
        ),
        "t1": 2 * stats.t1 <= stats.d1_prime + 1 + 2 * stats.b1_prime,
        "q1": 2 * stats.q1 <= stats.d2_prime + 1 + 2 * stats.b2_prime,
        "t2": stats.t2 <= stats.d1_prime - 1 + stats.a_prime + 1,
        "q2": stats.q2 <= stats.d2_prime - 1 + stats.a_prime + 1,
    }


def check_crossing_bound(g: Graph, emb: OuterEmbedding, chord: tuple[int, int]) -> bool:
    """Crossing count bounded by the six endpoint-stub products."""
    return phi(g, emb, chord, 4) <= chord_stats(g, emb, chord).six_product_bound


def check_quadratic_bound(g: Graph, emb: OuterEmbedding, chord: tuple[int, int]) -> bool:
    """Crossing count bounded by n1*n2 + n1 + n2."""
    return phi(g, emb, chord, 4) <= chord_stats(g, emb, chord).quadratic_bound
