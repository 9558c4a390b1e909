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
x, just as p1 and p2 are s1 and s2 seen from y.  Likewise t1, t2, q1, q2
and the primed classes are s1, s2, p1, p2 and the plain classes of U',
walked from x to y the other way round the cycle.  Each rule is therefore
written once, from the first vertex of an arc: a :class:`SidePartition`
records one side, a :class:`ChordStats` is the pair of them, and each
side line is stated once and read on both sides.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple

from .graph import Graph, VertexSet, bits, is_two_connected, vertex_set
from .outerplanar import OuterEmbedding, verify_embedding
from .paths import iter_induced_paths


class SidePartition(NamedTuple):
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


class ChordStats(NamedTuple):
    """Side U and the mirrored side U'; t, q and the primed counts are ``up``'s."""

    u: SidePartition
    up: SidePartition

    @property
    def six_product_bound(self) -> int:
        """The crossing bound on phi: the six endpoint-stub products."""
        u, up = self.u, self.up
        # s1*q1 + t1*p1 + s1*t2 + s2*t1 + p1*q2 + p2*q1
        return (
            u.s1 * up.p1
            + up.s1 * u.p1
            + u.s1 * up.s2
            + u.s2 * up.s1
            + u.p1 * up.p2
            + u.p2 * up.p1
        )

    @property
    def quadratic_bound(self) -> int:
        """The size bound on phi: n1*n2 + n1 + n2."""
        n1, n2 = len(self.u.seq), len(self.up.seq)
        return n1 * n2 + n1 + n2


def _check_graph(g: Graph, emb: OuterEmbedding) -> None:
    if not verify_embedding(g, emb):
        raise ValueError("invalid embedding")
    if not is_two_connected(g):
        raise ValueError("chord statistics require a 2-connected graph")


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


def _sides(g: Graph, emb: OuterEmbedding, chord: tuple[int, int]) -> ChordStats:
    """Both side arcs partitioned, each listed from x to y; U' is mirrored."""
    x, y = chord
    i = emb.order.index(x)
    ring = list(emb.order[i:] + emb.order[:i])
    j = ring.index(y)
    return ChordStats(_partition_side(g, ring[: j + 1]), _partition_side(g, [x] + ring[j:][::-1]))


def _one_chord(g: Graph, emb: OuterEmbedding, chord: tuple[int, int]) -> ChordStats:
    """The one-chord views' shared path: validate, then :func:`_sides`."""
    x, y = chord
    if not g.has_edge(x, y):
        raise ValueError(f"({x},{y}) is not an edge")
    _check_graph(g, emb)
    return _sides(g, emb, chord)


def chord_stats(g: Graph, emb: OuterEmbedding, chord: tuple[int, int]) -> ChordStats:
    """Both side partitions of one chord."""
    return _one_chord(g, emb, chord)


def side_partition(g: Graph, emb: OuterEmbedding, chord: tuple[int, int], primed: bool = False) -> SidePartition:
    """Partition of one side; ``primed`` selects the mirrored second side."""
    st = _one_chord(g, emb, chord)
    return st.up if primed else st.u


def _p4_masks(g: Graph) -> list[int]:
    return [vertex_set(path) for path in iter_induced_paths(g, 4)] if g.n >= 4 else []


def _crossing_count(path_masks: list[int], st: ChordStats) -> int:
    """Paths meeting the strict interior of both side arcs."""
    u_strict = vertex_set(st.u.seq[1:-1])
    up_strict = vertex_set(st.up.seq[1:-1])
    return sum(1 for pmask in path_masks if pmask & u_strict and pmask & up_strict)


def phi(g: Graph, emb: OuterEmbedding, chord: tuple[int, int]) -> int:
    """Induced 4-vertex paths meeting the strict interior of both sides."""
    return _crossing_count(_p4_masks(g), _one_chord(g, emb, chord))


def chord_instances(g: Graph, emb: OuterEmbedding) -> Iterator[tuple[ChordStats, int]]:
    """Stats and phi for every edge of ``g`` as the chord.

    Validates ``g`` and ``emb`` once and enumerates the induced 4-vertex
    paths once, where :func:`chord_stats`, :func:`phi` and
    :func:`side_partition` repeat both for every chord they are given.
    """
    _check_graph(g, emb)
    path_masks = _p4_masks(g)
    for chord in g.edges():
        st = _sides(g, emb, chord)
        yield st, _crossing_count(path_masks, st)


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


# The five side lines under their names on U and on U'; the first three
# are first-order, the last two second-order.
_U_LINES = ("size_sum", "s1", "p1", "s2", "p2")
_UP_LINES = ("size_sum_prime", "t1", "q1", "t2", "q2")
_FIRST_ORDER = _U_LINES[:3] + _UP_LINES[:3]
_SECOND_ORDER = _U_LINES[3:] + _UP_LINES[3:]


def _side_lines(side: SidePartition) -> tuple[bool, ...]:
    """The size sum and the s1, p1, s2 and p2 lines of one side."""
    a, b1, b2, d1, d2 = map(len, (side.a_set, side.b1_set, side.b2_set, side.d1_set, side.d2_set))
    return (
        a + b1 + b2 + d1 + d2 <= len(side.seq) - 1,
        2 * side.s1 <= d1 + 1 + 2 * b1,
        2 * side.p1 <= d2 + 1 + 2 * b2,
        side.s2 <= d1 - 1 + a + 1,
        side.p2 <= d2 - 1 + a + 1,
    )


def side_inequalities(stats: ChordStats) -> dict[str, bool]:
    """The ten per-side accounting bounds, both size sums among them."""
    return {**dict(zip(_U_LINES, _side_lines(stats.u))), **dict(zip(_UP_LINES, _side_lines(stats.up)))}
