"""Outerplanarity recognition, outer-cycle embeddings and triangulating completions.

A cyclic vertex order is a certificate of outerplanarity exactly when
:func:`_crossing_free` finds no two interleaving edges in it.  Recognition
produces such certificates: it splits the graph into biconnected blocks
and peels each block down to a triangle by removing degree-2 vertices
(Mitchell 1979), then re-inserts them to rebuild the block's outer cycle,
in the graph's own vertex labels.  A graph is outerplanar iff every
block's cycle is crossing-free, and a 2-connected outerplanar graph's
outer cycle is its unique Hamiltonian cycle.  Nothing is believed without
the certificate check, and there is no size cap below the graph core's
own.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

from .graph import Graph, VertexSet, bits, blocks, is_two_connected


class OuterEmbedding(NamedTuple):
    """Counter-clockwise outer-cycle positions, as a vertex permutation."""

    order: tuple[int, ...]

    @classmethod
    def identity(cls, n: int) -> "OuterEmbedding":
        return cls(tuple(range(n)))

    @classmethod
    def from_string(cls, text: str) -> "OuterEmbedding":
        try:
            return cls(tuple(int(part) for part in text.split(",")))
        except ValueError:
            raise ValueError(f"bad embedding order string: {text!r}") from None

    def to_string(self) -> str:
        return ",".join(str(v) for v in self.order)


def _check_permutation(g: Graph, emb: OuterEmbedding) -> None:
    if sorted(emb.order) != list(range(g.n)):
        raise ValueError("embedding order is not a permutation of the vertices")


def _crossing_free(adj: tuple[int, ...], order: Sequence[int]) -> bool:
    """True iff no two edges among the vertices of ``order`` interleave in its cyclic order.

    Interleaving means exactly one endpoint of one edge lies strictly
    between the endpoints of the other; edges sharing an endpoint never
    cross.  Edges to vertices outside ``order`` are not scanned, and each
    vertex's position is its index in ``order``.  One pass over the
    position spans, sorted by left end and then longest first, keeps the
    right ends of the spans still open on a stack; crossing-free spans
    nest, so the stack's ends never increase and a span crosses an open
    one iff it reaches past the innermost.
    """
    pos = [0] * len(adj)
    mask = 0
    for i, v in enumerate(order):
        pos[v] = i
        mask |= 1 << v
    spans = []  # (left, -right), so a sort puts longer spans first on a tie
    for a, u in enumerate(order):
        row = adj[u] & mask
        row = row >> (u + 1) << (u + 1)
        while row:
            low = row & -row
            row ^= low
            b = pos[low.bit_length() - 1]
            spans.append((a, -b) if a < b else (b, -a))
    spans.sort()
    ends: list[int] = []
    for a, neg_b in spans:
        b = -neg_b
        while ends and ends[-1] <= a:
            ends.pop()
        if ends and b > ends[-1]:
            return False
        ends.append(b)
    return True


def verify_embedding(g: Graph, emb: OuterEmbedding) -> bool:
    """True iff ``emb`` orders all of ``g``'s vertices and no two edges interleave in it."""
    _check_permutation(g, emb)
    return _crossing_free(g.adj, emb.order)


# -- recognition by degree-2 peeling -----------------------------------------


def _peel_cycle(adj: tuple[int, ...], block: VertexSet) -> list[int] | None:
    """Candidate outer cycle of a 2-connected ``block``, or None if stuck.

    Repeatedly removes a degree-2 vertex v and joins its neighbors u and w,
    which contracts vu and so keeps an outerplanar block outerplanar, until
    a triangle remains.  Each v is then re-inserted between u and w, which
    must be consecutive on the reduced block's unique Hamiltonian cycle.
    A non-outerplanar block can reach the triangle too (K2,3 does), and
    then some insertion finds u and w apart.  A returned cycle is still
    only a candidate: callers certify it with :func:`_crossing_free`.
    The cycle starts at the block's smallest vertex, followed by its
    smaller cycle neighbor.
    """
    rows = [row & block for row in adj]
    left = block
    ready = [v for v in bits(block) if rows[v].bit_count() == 2]
    removed = []
    size = block.bit_count()
    while len(removed) + 3 < size:
        if not ready:
            return None
        v = ready.pop()
        if not left >> v & 1:
            continue
        left ^= 1 << v
        row = rows[v]
        ubit = row & -row
        wbit = row ^ ubit
        u, w = ubit.bit_length() - 1, wbit.bit_length() - 1
        for a, other in ((u, wbit), (w, ubit)):
            rows[a] = rows[a] & ~(1 << v) | other
            if rows[a].bit_count() == 2:
                ready.append(a)
        removed.append((v, u, w))
    a, b, c = bits(left)
    succ = [0] * len(adj)
    succ[a], succ[b], succ[c] = b, c, a
    for v, u, w in reversed(removed):
        if succ[w] == u:
            u, w = w, u
        if succ[u] != w:
            return None
        succ[u], succ[v] = v, w
    cycle = [(block & -block).bit_length() - 1]
    for _ in range(size - 1):
        cycle.append(succ[cycle[-1]])
    if cycle[1] > cycle[-1]:
        cycle[1:] = cycle[:0:-1]
    return cycle


def is_outerplanar(g: Graph) -> bool:
    """True iff every block of ``g`` with 3 or more vertices has a certified outer cycle.

    Rejects immediately on the edge bound e > 2n-3.  Otherwise each such
    block is peeled to a candidate outer cycle, which must pass
    :func:`_crossing_free` on ``g``'s own rows, so a True answer always
    rests on a checked embedding of every block.
    """
    n = g.n
    if n >= 2 and g.edge_count() > 2 * n - 3:
        return False
    for block in blocks(g):
        if block.bit_count() < 3:
            continue
        cycle = _peel_cycle(g.adj, block)
        if cycle is None or not _crossing_free(g.adj, cycle):
            return False
    return True


# -- outer cycle and completion ----------------------------------------------


def outer_cycle(g: Graph) -> OuterEmbedding:
    """The unique Hamiltonian cycle of a 2-connected outerplanar graph.

    Returned with vertex 0 first and its smaller cycle neighbor second.
    """
    if not is_two_connected(g):
        raise ValueError("outer_cycle requires a 2-connected graph")
    cycle = _peel_cycle(g.adj, g.full_mask)
    if cycle is not None and _crossing_free(g.adj, cycle):
        return OuterEmbedding(tuple(cycle))
    raise ValueError("graph is not outerplanar: it has no crossing-free outer cycle")


def _regions(g: Graph, order: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Chord-free regions of ``g`` plus the outer cycle of ``order``, as position tuples.

    Each region is split at its first entry that has a chord, along the
    chord to the nearest later entry; the two parts begin at the chord's
    first and second end.  A chord back to an earlier entry would have
    split the region there already.
    """
    rows = [g.adj[v] for v in order]
    vbit = [1 << v for v in order]
    out = []
    stack = [tuple(range(len(order)))]
    while stack:
        region = stack.pop()
        if len(region) == 3:
            out.append(region)
            continue
        inside = 0
        for p in region:
            inside |= vbit[p]
        for ai in range(len(region) - 1):
            row = rows[region[ai]]
            if row & inside & ~(vbit[region[ai - 1]] | vbit[region[ai + 1]]):
                bi = ai + 2
                while not row & vbit[region[bi]]:
                    bi += 1
                stack += [region[ai : bi + 1], region[bi:] + region[: ai + 1]]
                break
        else:
            out.append(region)
    return out


def maximal_completion(g: Graph, emb: OuterEmbedding) -> Graph:
    """Triangulating supergraph on the same vertices and embedding.

    Adds the outer cycle of ``emb`` plus non-crossing chords until every
    bounded region is a triangle: each chord-free region of
    :func:`_regions` is fan-triangulated from its first position, the
    chord end it was split at (not its lowest position).  Result has
    exactly 2n-3 edges for n >= 3 and is a fixed point of the operation.
    """
    if not verify_embedding(g, emb):
        raise ValueError("cannot complete: embedding has crossing chords")
    n = g.n
    order = emb.order
    if n <= 2:
        return g.with_edges([(order[0], order[1])]) if n == 2 else g
    new_edges = [(order[i], order[(i + 1) % n]) for i in range(n)]
    for region in _regions(g, order):
        new_edges += [(order[region[0]], order[p]) for p in region[2:-1]]
    done = g.with_edges(new_edges)
    if done.edge_count() != 2 * n - 3:
        raise RuntimeError("completion did not reach 2n-3 edges; invariant violated")
    return done
