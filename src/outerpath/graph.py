"""Bitmask-backed small graphs and basic structural operations.

Vertices are dense indices 0..n-1 (n <= 64) and each adjacency row is a
single machine word, so induced subgraphs, neighborhood intersections and
connectivity sweeps reduce to integer arithmetic.  Graphs are immutable
values: every operation returns a new instance, which keeps them safe to
share across worker processes.
"""

from __future__ import annotations

import functools
from typing import Iterable, Iterator

MAX_VERTICES = 64

# Format tag on every JSON payload the toolkit writes.
SCHEMA = "outerpath/1"

# The canonical form is a branch-and-bound over relabelings, exponential
# in n at worst, and is offered up to here; larger searches never
# deduplicate by isomorphism.
CANONICAL_CAP = 9

# A vertex set is a plain bitmask over vertex indices.
VertexSet = int


class UnsupportedSizeError(ValueError):
    """An operation was asked to exceed its supported size cap."""


def vertex_set(vertices: Iterable[int]) -> VertexSet:
    mask = 0
    for v in vertices:
        mask |= 1 << v
    return mask


def bits(mask: int) -> Iterator[int]:
    """Yield the set bit indices of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Graph:
    """Immutable simple graph on vertices 0..n-1 with bitmask adjacency rows."""

    __slots__ = ("n", "adj", "_hash")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if not 1 <= n <= MAX_VERTICES:
            raise ValueError(f"vertex count must be in 1..{MAX_VERTICES}, got {n}")
        rows = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        self.n = n
        self.adj = tuple(rows)
        self._hash = None

    @classmethod
    def _from_rows(cls, rows: tuple[int, ...]) -> "Graph":
        # Internal fast path; rows must already satisfy the invariants.
        g = object.__new__(cls)
        g.n = len(rows)
        g.adj = tuple(rows)
        g._hash = None
        return g

    # -- basic accessors -------------------------------------------------

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def neighbors(self, v: int) -> VertexSet:
        return self.adj[v]

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2

    def edges(self) -> Iterator[tuple[int, int]]:
        """Yield edges as (u, v) with u < v, in lexicographic order."""
        for u, row in enumerate(self.adj):
            row = row >> (u + 1) << (u + 1)
            while row:
                low = row & -row
                yield (u, low.bit_length() - 1)
                row ^= low

    @property
    def full_mask(self) -> VertexSet:
        return (1 << self.n) - 1

    def with_edges(self, extra: Iterable[tuple[int, int]]) -> "Graph":
        """New graph with ``extra`` edges added (duplicates are fine)."""
        rows = list(self.adj)
        for u, v in extra:
            if not (0 <= u < self.n and 0 <= v < self.n) or u == v:
                raise ValueError(f"bad edge ({u},{v}) for n={self.n}")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return Graph._from_rows(tuple(rows))

    # -- value semantics -------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self.adj == other.adj

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.n, self.adj))
        return self._hash

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.edge_count()})"


def _components(g: Graph, within: VertexSet) -> Iterator[VertexSet]:
    """Vertex masks of the connected components of the subgraph induced by ``within``."""
    adj = g.adj
    remaining = within
    while remaining:
        comp = frontier = remaining & -remaining
        while frontier:
            nxt = 0
            for v in bits(frontier):
                nxt |= adj[v]
            nxt &= within & ~comp
            comp |= nxt
            frontier = nxt
        remaining &= ~comp
        yield comp


def blocks(g: Graph) -> list[VertexSet]:
    """Vertex masks of the biconnected components; a bridge is a 2-vertex block.

    Lowpoint depth-first search (Hopcroft and Tarjan 1973; recursion depth
    is at most n <= 64): a tree edge v-w closes a block when nothing below
    w reaches above v, and the block is v plus every vertex discovered
    since w.  Isolated vertices lie in no block.
    """
    adj = g.adj
    disc = [-1] * g.n
    low = [0] * g.n
    stack: list[int] = []
    out = []
    found = 0

    def visit(v: int) -> None:
        nonlocal found
        dv = lv = disc[v] = found
        found += 1
        stack.append(v)
        rest = adj[v]
        while rest:
            wbit = rest & -rest
            rest ^= wbit
            w = wbit.bit_length() - 1
            if disc[w] >= 0:
                if disc[w] < lv:
                    lv = disc[w]
                continue
            visit(w)
            if low[w] < lv:
                lv = low[w]
            if low[w] >= dv:
                block = 1 << v
                while not block & wbit:
                    block |= 1 << stack.pop()
                out.append(block)
        low[v] = lv

    for v in range(g.n):
        if disc[v] < 0:
            visit(v)
    return out


def is_two_connected(g: Graph) -> bool:
    return g.n >= 3 and blocks(g) == [g.full_mask]


def _rooted_code(adj: tuple[int, ...], v: int, parent: VertexSet) -> tuple[str, list[int]]:
    """AHU code of the tree hanging from v, away from ``parent``, and its
    vertices in preorder with each vertex's subtrees in code order."""
    subtrees = sorted(_rooted_code(adj, w, 1 << v) for w in bits(adj[v] & ~parent))
    code = "(" + "".join(c for c, _ in subtrees) + ")"
    return code, [v] + [u for _, order in subtrees for u in order]


def _forest_relabel(g: Graph) -> Graph:
    """The forest g relabeled to a form shared by every forest isomorphic to it.

    Each tree is rooted at its centre (at the centre giving the smaller
    code when there are two) and coded bottom-up (Aho, Hopcroft and Ullman
    1974); the trees are laid out in code order, each in the preorder of
    :func:`_rooted_code`.  Equal codes mean isomorphic subtrees, which that
    preorder lays out alike, so the edges land on the same positions.
    """
    adj = g.adj
    trees = []
    for comp in _components(g, g.full_mask):
        centre = comp
        while centre.bit_count() > 2:
            leaves = 0
            for v in bits(centre):
                if (adj[v] & centre).bit_count() == 1:
                    leaves |= 1 << v
            centre &= ~leaves
        trees.append(min(_rooted_code(adj, c, 0) for c in bits(centre)))
    position = [0] * g.n
    for i, v in enumerate(v for _, order in sorted(trees) for v in order):
        position[v] = i
    return Graph(g.n, [(position[u], position[v]) for u, v in g.edges()])


@functools.lru_cache(maxsize=1 << 16)
def canonical_form(g: Graph) -> str:
    """Lexicographically minimal upper-triangle encoding, equal iff isomorphic.

    The bit string is column-major: position m contributes the m bits
    linking it to positions 0..m-1 (earlier position = more significant
    bit).  The result is the graph6 text (:func:`~outerpath.graph6.to_graph6`)
    of the minimizing relabeling, found by :func:`_brute_form`, which places
    only least-coded vertices and one of each set of twins.  A forest
    is first relabeled by :func:`_forest_relabel` and looked up again, so
    isomorphic forests share one cache entry and one brute search; the
    minimum over all relabelings does not depend on the labeling it starts
    from.
    """
    if g.n > CANONICAL_CAP:
        raise UnsupportedSizeError(f"canonical_form supports n <= {CANONICAL_CAP}, got {g.n}")
    if g.edge_count() == g.n - sum(1 for _ in _components(g, g.full_mask)):
        relabeled = _forest_relabel(g)
        if relabeled != g:
            return canonical_form(relabeled)
    return _brute_form(g)


def _brute_form(g: Graph) -> str:
    """:func:`canonical_form` by branch-and-bound over vertex placements.

    A node at depth d holds the free vertices as ``(vertex, code)`` pairs,
    where a code is the vertex's adjacency to the d placed positions, the
    first position as the most significant bit, so the column a placement
    adds is its vertex's code.  The search is exact: the least column
    sequence places a least-coded free vertex at every position, since a
    larger code makes a larger column there, and a node is cut once its
    columns exceed the best sequence's prefix.  ``tight`` means the columns
    so far equal the best's prefix, so only then can column d exceed it;
    a leaf that stores a new best makes every node on its path tight.
    Swapping two twins (equal neighborhoods apart from each other) is an
    automorphism, so of the free twins only the lowest is tried.
    """
    from .graph6 import to_graph6

    n = g.n
    adj = g.adj
    lower_twins = [0] * n
    for v in range(n):
        for u in range(v):
            if adj[u] & ~(1 << v) == adj[v] & ~(1 << u):
                lower_twins[v] |= 1 << u
    best = [1 << n] * n
    cols = [0] * n

    def place(d: int, free: int, pairs: list[tuple[int, int]], tight: bool) -> bool:
        """Search below depth d; True when a leaf below stored a new best."""
        nonlocal best
        if not pairs:
            # every cut on the way passed, so cols <= best
            best = cols.copy()
            return True
        low = min(c for _, c in pairs)
        if tight and low > best[d]:
            return False
        cols[d] = low
        tight = tight and low == best[d]
        stored = False
        for v, c in pairs:
            if c == low and not lower_twins[v] & free:
                row = adj[v]
                below = [(w, code << 1 | row >> w & 1) for w, code in pairs if w != v]
                if place(d + 1, free ^ 1 << v, below, tight):
                    tight = stored = True
        return stored

    place(0, g.full_mask, [(v, 0) for v in range(n)], True)
    rows = [0] * n
    for m in range(1, n):
        for i in range(m):
            if best[m] >> (m - 1 - i) & 1:
                rows[i] |= 1 << m
                rows[m] |= 1 << i
    return to_graph6(Graph._from_rows(tuple(rows)))


def to_dot(g: Graph) -> str:
    """Graphviz source for the graph, isolated vertices included."""
    lines = ["graph G {"]
    for v in range(g.n):
        lines.append(f"  {v};")
    for u, v in g.edges():
        lines.append(f"  {u} -- {v};")
    lines.append("}")
    return "\n".join(lines) + "\n"
