"""Per-chord crossing counts and side-accounting statistics.

An edge xy of an embedded 2-connected outerplanar graph splits the outer
cycle into sides U and U'.  For each side this module counts, seen from
each endpoint, the neighbors on that side (s1, p1, t1, q1) and the induced
3-vertex paths from the endpoint that avoid the other endpoint (s2, p2,
t2, q2), and partitions the side interior into the classes A, B1, B2, D1,
D2 driven by where the endpoint neighborhoods sit along the arc.  phi
counts the induced 4-vertex paths (P4s) that touch the strict interior of
both sides.

The class definitions, in arc order from x to y (x's side-neighbors at
positions i_1 < ... < i_s1, y's at j_1 < ... < j_p1, with j_1 >= i_s1
forced by non-crossing):

* A:  interior vertices not adjacent to x or y, with at most one neighbor
  among x's side-neighbors and at most one among y's.
* B1: x-neighbors having a next x-neighbor with no common neighbor in the
  gap between them; B2 mirrors this for y-neighbors looking backward.
* D1: everything from position i_1 to i_s1 not in A or B1; D2 likewise
  from j_1 to j_p1.  When i_s1 = j_1 that shared vertex v_ell lies in both.

B2 and D2 are B1 and D1 seen from y, that is, on the arc walked from y to
x, just as p1 and p2 are s1 and s2 seen from y.  Each rule is therefore
written once, from the first vertex of an arc, and applied to the arc in
both directions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .graph import Graph, VertexSet, bits, is_two_connected, vertex_set
from .outerplanar import OuterEmbedding, verify_embedding
from .paths import iter_induced_paths


@dataclass(frozen=True)
class SidePartition:
    """One side's counts, classes and shared vertex v_ell (host labels)."""

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
    has_v_ell_prime: bool

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


def _side_sequences(emb: OuterEmbedding, chord: tuple[int, int]) -> tuple[list[int], list[int]]:
    """Both side arcs listed from x to y; the second side is mirrored."""
    x, y = chord
    i = emb.order.index(x)
    ring = list(emb.order[i:] + emb.order[:i])
    j = ring.index(y)
    return ring[: j + 1], [x] + ring[j:][::-1]


def _endpoint_classes(
    adj: tuple[int, ...], seq: list[int], interior_mask: VertexSet, a_set: set[int]
) -> tuple[list[int], int, set[int], set[int]]:
    """Seen from ``seq[0]``: its interior neighbors in arc order, its induced
    3-vertex paths into the interior, and its B and D classes.

    Called on the reversed arc it gives the same four for ``seq[-1]``.
    """
    e = seq[0]
    at = [i for i in range(1, len(seq) - 1) if adj[e] >> seq[i] & 1]
    nbrs = [seq[i] for i in at]
    paths = sum((adj[c] & interior_mask & ~adj[e]).bit_count() for c in nbrs)
    b_set = {
        seq[i]
        for i, j in zip(at, at[1:])
        if not adj[seq[i]] & adj[seq[j]] & vertex_set(seq[i + 1 : j])
    }
    d_set = set(seq[at[0] : at[-1] + 1]) - a_set - b_set if at else set()
    return nbrs, paths, b_set, d_set


def _partition_side(g: Graph, seq: list[int]) -> SidePartition:
    x, y = seq[0], seq[-1]
    adj = g.adj
    interior_mask = vertex_set(seq[1:-1])
    ox_mask = adj[x] & interior_mask
    oy_mask = adj[y] & interior_mask
    a_set = {
        v
        for v in bits(interior_mask & ~ox_mask & ~oy_mask)
        if (adj[v] & ox_mask).bit_count() <= 1 and (adj[v] & oy_mask).bit_count() <= 1
    }
    ox, s2, b1_set, d1_set = _endpoint_classes(adj, seq, interior_mask, a_set)
    oy, p2, b2_set, d2_set = _endpoint_classes(adj, seq[::-1], interior_mask, a_set)
    oy.reverse()

    # Non-crossing forces every x-neighbor to precede every y-neighbor on
    # the arc, up to one shared vertex.
    if ox and oy and seq.index(oy[0]) < seq.index(ox[-1]):
        raise RuntimeError("endpoint neighborhoods interleave; embedding is inconsistent")

    return SidePartition(
        x=x,
        y=y,
        seq=tuple(seq),
        ox=tuple(ox),
        oy=tuple(oy),
        s1=len(ox),
        s2=s2,
        p1=len(oy),
        p2=p2,
        a_set=frozenset(a_set),
        b1_set=frozenset(b1_set),
        b2_set=frozenset(b2_set),
        d1_set=frozenset(d1_set),
        d2_set=frozenset(d2_set),
        v_ell=ox[-1] if ox and oy and ox[-1] == oy[0] else None,
    )


def side_partition(g: Graph, emb: OuterEmbedding, chord: tuple[int, int], primed: bool = False) -> SidePartition:
    """Partition of one side; ``primed`` selects the mirrored second side."""
    _check_instance(g, emb, chord)
    forward, backward = _side_sequences(emb, chord)
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
        has_v_ell_prime=up.v_ell is not None,
    )


def chord_stats(g: Graph, emb: OuterEmbedding, chord: tuple[int, int]) -> ChordStats:
    _check_instance(g, emb, chord)
    forward, backward = _side_sequences(emb, chord)
    return _stats(_partition_side(g, forward), _partition_side(g, backward))


def _p4_masks(g: Graph) -> list[int]:
    return [vertex_set(path) for path in iter_induced_paths(g, 4)] if g.n >= 4 else []


def _crossing_count(path_masks: list[int], forward: list[int], backward: list[int]) -> int:
    """Paths meeting the strict interior of both side arcs."""
    u_strict = vertex_set(forward[1:-1])
    up_strict = vertex_set(backward[1:-1])
    return sum(1 for pmask in path_masks if pmask & u_strict and pmask & up_strict)


def phi(g: Graph, emb: OuterEmbedding, chord: tuple[int, int]) -> int:
    """Induced 4-vertex paths meeting the strict interior of both sides."""
    _check_instance(g, emb, chord)
    return _crossing_count(_p4_masks(g), *_side_sequences(emb, chord))


def chord_instances(
    g: Graph, emb: OuterEmbedding
) -> Iterator[tuple[ChordStats, int, tuple[SidePartition, SidePartition]]]:
    """Stats, phi and both side partitions for every edge of ``g`` as the chord.

    Validates ``g`` and ``emb`` once and enumerates the induced 4-vertex
    paths once, where :func:`chord_stats`, :func:`phi` and
    :func:`side_partition` repeat both for every chord they are given.
    """
    _check_graph(g, emb)
    path_masks = _p4_masks(g)
    for chord in g.edges():
        forward, backward = _side_sequences(emb, chord)
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
    return phi(g, emb, chord) <= chord_stats(g, emb, chord).six_product_bound


def check_quadratic_bound(g: Graph, emb: OuterEmbedding, chord: tuple[int, int]) -> bool:
    """Crossing count bounded by n1*n2 + n1 + n2."""
    return phi(g, emb, chord) <= chord_stats(g, emb, chord).quadratic_bound
