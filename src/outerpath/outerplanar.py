"""Outerplanarity recognition, outer-cycle embeddings and triangulating completions.

A cyclic vertex order is a certificate of outerplanarity exactly when
:func:`verify_embedding` finds no two interleaving edges.  Recognition
produces such certificates: it splits the graph into biconnected blocks
and peels each block down to a triangle by removing degree-2 vertices
(Mitchell 1979), then re-inserts them to rebuild the block's outer cycle.
A graph is outerplanar iff every block's cycle verifies, and a 2-connected
outerplanar graph's outer cycle is its unique Hamiltonian cycle.  Nothing
is believed without the certificate check, and there is no size cap
below the graph core's own.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .graph import Graph, VertexSet, bits, blocks, induced_subgraph, is_two_connected


@dataclass(frozen=True)
class OuterEmbedding:
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

    def positions(self) -> tuple[int, ...]:
        pos = [0] * len(self.order)
        for i, v in enumerate(self.order):
            pos[v] = i
        return tuple(pos)


def _check_permutation(g: Graph, emb: OuterEmbedding) -> None:
    if sorted(emb.order) != list(range(g.n)):
        raise ValueError("embedding order is not a permutation of the vertices")


def verify_embedding(g: Graph, emb: OuterEmbedding) -> bool:
    """True iff no two edges interleave in the cyclic order.

    Interleaving means exactly one endpoint of one edge lies strictly
    between the endpoints of the other; edges sharing an endpoint never
    cross.
    """
    _check_permutation(g, emb)
    pos = emb.positions()
    spans = []
    for u, v in g.edges():
        a, b = pos[u], pos[v]
        spans.append((a, b) if a < b else (b, a))
    for (a1, b1), (a2, b2) in combinations(spans, 2):
        if a1 == a2 or a1 == b2 or b1 == a2 or b1 == b2:
            continue
        if (a1 < a2 < b1) != (a1 < b2 < b1):
            return False
    return True


# -- recognition by degree-2 peeling -----------------------------------------


def _peel_cycle(adj: tuple[int, ...], block: VertexSet) -> list[int] | None:
    """Candidate outer cycle of a 2-connected ``block``, or None if stuck.

    Repeatedly removes a degree-2 vertex v and joins its neighbors u and w,
    which contracts vu and so keeps an outerplanar block outerplanar, until
    a triangle remains.  Each v is then re-inserted between u and w, which
    must be consecutive on the reduced block's unique Hamiltonian cycle.
    A non-outerplanar block can reach the triangle too (K2,3 does), and
    then some insertion finds u and w apart.  A returned cycle is still
    only a candidate: callers certify it with :func:`verify_embedding`.
    The cycle starts at the block's smallest vertex, followed by its
    smaller cycle neighbor.
    """
    rows = {v: adj[v] & block for v in bits(block)}
    ready = [v for v, row in rows.items() if row.bit_count() == 2]
    removed = []
    while len(rows) > 3:
        if not ready:
            return None
        v = ready.pop()
        if v not in rows:
            continue
        u, w = bits(rows.pop(v))
        for a, b in ((u, w), (w, u)):
            rows[a] = rows[a] & ~(1 << v) | 1 << b
            if rows[a].bit_count() == 2:
                ready.append(a)
        removed.append((v, u, w))
    a, b, c = rows
    succ = {a: b, b: c, c: a}
    for v, u, w in reversed(removed):
        if succ[w] == u:
            u, w = w, u
        if succ[u] != w:
            return None
        succ[u], succ[v] = v, w
    cycle = [min(succ)]
    while len(cycle) < len(succ):
        cycle.append(succ[cycle[-1]])
    if cycle[1] > cycle[-1]:
        cycle[1:] = cycle[:0:-1]
    return cycle


def is_outerplanar(g: Graph) -> bool:
    """True iff every block of ``g`` with 3 or more vertices has a certified outer cycle.

    Rejects immediately on the edge bound e > 2n-3.  Otherwise each such
    block is peeled to a candidate outer cycle, which must
    pass :func:`verify_embedding` on the block's induced subgraph, so a
    True answer always rests on a checked embedding.
    """
    n = g.n
    if n >= 2 and g.edge_count() > 2 * n - 3:
        return False
    for block in blocks(g):
        if block.bit_count() < 3:
            continue
        cycle = _peel_cycle(g.adj, block)
        if cycle is None:
            return False
        rank = {v: i for i, v in enumerate(bits(block))}
        emb = OuterEmbedding(tuple(rank[v] for v in cycle))
        if not verify_embedding(induced_subgraph(g, block), emb):
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
    if cycle is not None:
        emb = OuterEmbedding(tuple(cycle))
        if verify_embedding(g, emb):
            return emb
    raise ValueError("graph is not outerplanar: it has no crossing-free outer cycle")


def maximal_completion(g: Graph, emb: OuterEmbedding) -> Graph:
    """Triangulating supergraph on the same vertices and embedding.

    Adds the outer cycle of ``emb`` plus non-crossing chords until every
    bounded region is a triangle: regions are split along existing chords
    first, then chord-free regions are fan-triangulated from their lowest
    position.  Result has exactly 2n-3 edges for n >= 3 and is a fixed
    point of the operation.
    """
    if not verify_embedding(g, emb):
        raise ValueError("cannot complete: embedding has crossing chords")
    n = g.n
    order = emb.order
    if n <= 2:
        return g.with_edges([(order[0], order[1])]) if n == 2 else g

    def padj(i: int, j: int) -> bool:
        return g.has_edge(order[i], order[j])

    new_edges = [(order[i], order[(i + 1) % n]) for i in range(n)]
    stack = [tuple(range(n))]
    while stack:
        region = stack.pop()
        m = len(region)
        if m < 4:
            continue
        split = None
        for ai in range(m - 1):
            hi = m if ai else m - 1  # (first, last) is a region boundary edge
            for bi in range(ai + 2, hi):
                if padj(region[ai], region[bi]):
                    split = (ai, bi)
                    break
            if split:
                break
        if split:
            ai, bi = split
            stack.append(region[ai : bi + 1])
            stack.append(region[bi:] + region[: ai + 1])
        else:
            for j in range(2, m - 1):
                new_edges.append((order[region[0]], order[region[j]]))
    done = g.with_edges(new_edges)
    if done.edge_count() != 2 * n - 3:
        raise RuntimeError("completion did not reach 2n-3 edges; invariant violated")
    return done
