"""Weak duals of maximal outerplanar graphs and balanced tree edge cuts.

The weak dual has one node per bounded (triangular) face, nodes adjacent
when faces share an interior edge; for a triangulated polygon it is a
tree with n-2 nodes and maximum degree 3.  ``balanced_edge_cut`` realizes
the guarantee that a tree with maximum degree k has an edge whose removal
leaves both components with at least (n-1)/k nodes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .graph import Graph, VertexSet
from .outerplanar import OuterEmbedding, verify_embedding


@dataclass(frozen=True)
class Tree:
    """Plain tree on nodes 0..n-1; validated on construction."""

    n: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        n = self.n
        if n < 1:
            raise ValueError("tree needs at least one node")
        if len(self.edges) != n - 1:
            raise ValueError(f"tree on {n} nodes needs {n - 1} edges")
        # union-find with path halving, inlined: trees of thousands of
        # nodes are validated by the million in verify-paper
        root = list(range(n))
        for u, v in self.edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range")
            while root[u] != u:
                root[u] = u = root[root[u]]
            while root[v] != v:
                root[v] = v = root[root[v]]
            if u == v:
                raise ValueError("edges form a cycle")
            root[u] = v

    @classmethod
    def _unchecked(cls, n: int, edges: tuple[tuple[int, int], ...]) -> "Tree":
        # Internal fast path; the edges must already form a tree on 0..n-1.
        t = object.__new__(cls)
        object.__setattr__(t, "n", n)
        object.__setattr__(t, "edges", edges)
        return t

    def degrees(self) -> list[int]:
        deg = [0] * self.n
        for u, v in self.edges:
            deg[u] += 1
            deg[v] += 1
        return deg

    def max_degree(self) -> int:
        return max(self.degrees(), default=0)


@dataclass(frozen=True)
class DualTree:
    """Weak dual: faces as host-vertex triples plus the face adjacency."""

    nodes: tuple[tuple[int, ...], ...]
    edges: tuple[tuple[int, int], ...]
    shared_edge: dict[tuple[int, int], tuple[int, int]] = field(compare=False)

    def to_tree(self) -> Tree:
        return Tree(len(self.nodes), self.edges)

    def to_dot(self, name: str = "dual") -> str:
        lines = [f"graph {name} {{"]
        for i, face in enumerate(self.nodes):
            label = "-".join(str(v) for v in face)
            lines.append(f'  f{i} [label="{label}"];')
        for i, j in self.edges:
            u, v = self.shared_edge[(i, j)]
            lines.append(f'  f{i} -- f{j} [label="{u}-{v}"];')
        lines.append("}")
        return "\n".join(lines) + "\n"


def weak_dual(g: Graph, emb: OuterEmbedding) -> DualTree:
    """Weak dual of a maximal outerplanar graph under the given embedding.

    Faces are found by splitting position intervals at their unique apex:
    the triangle over boundary edge (lo, hi) has the single interior
    vertex adjacent to both ends.  Faces are reported in ascending
    position order of their lowest corner.
    """
    n = g.n
    if n < 3:
        raise ValueError("weak dual needs at least 3 vertices")
    if not verify_embedding(g, emb):
        raise ValueError("invalid embedding")
    if g.edge_count() != 2 * n - 3:
        raise ValueError(
            f"graph has {g.edge_count()} edges, a maximal outerplanar graph on "
            f"{n} vertices has {2 * n - 3}; run maximal_completion first"
        )
    order = emb.order

    def padj(i: int, j: int) -> bool:
        return g.has_edge(order[i], order[j])

    faces_pos: list[tuple[int, int, int]] = []
    stack = [(0, n - 1)]
    while stack:
        lo, hi = stack.pop()
        apex = None
        for c in range(lo + 1, hi):
            if padj(lo, c) and padj(c, hi):
                apex = c
                break
        if apex is None:
            raise ValueError("embedding does not triangulate; graph is not maximal outerplanar")
        faces_pos.append((lo, apex, hi))
        if apex - lo >= 2:
            stack.append((lo, apex))
        if hi - apex >= 2:
            stack.append((apex, hi))
    faces_pos.sort()

    by_edge: dict[tuple[int, int], list[int]] = {}
    for idx, (a, b, c) in enumerate(faces_pos):
        for e in ((a, b), (b, c), (a, c)):
            by_edge.setdefault(e, []).append(idx)
    dual_edges = []
    shared = {}
    for e, owners in sorted(by_edge.items()):
        if len(owners) == 2:
            i, j = sorted(owners)
            dual_edges.append((i, j))
            u, v = order[e[0]], order[e[1]]
            shared[(i, j)] = (min(u, v), max(u, v))
    nodes = tuple(tuple(order[p] for p in f) for f in faces_pos)
    dual = DualTree(nodes, tuple(sorted(dual_edges)), shared)
    dual.to_tree()  # raises if the dual is not a tree
    return dual


def balanced_edge_cut(t: Tree, k: int) -> tuple[int, int]:
    """Edge whose removal leaves both components with >= (n-1)/k nodes.

    Requires max degree <= k and k >= 3; such an edge always exists.  All
    edges are scanned and the one maximizing the smaller side is returned
    (ties broken by smallest edge), which is at least as balanced as the
    guarantee.  Comparison is exact: side >= (n-1)/k iff k*side >= n-1.
    """
    if k < 3:
        raise ValueError(f"k must be >= 3, got {k}")
    n = t.n
    if n < 2:
        raise ValueError("tree must have at least one edge")
    neigh: list[list[int]] = [[] for _ in range(n)]
    for u, v in t.edges:
        neigh[u].append(v)
        neigh[v].append(u)
    max_degree = max(map(len, neigh))
    if max_degree > k:
        raise ValueError(f"tree has max degree {max_degree} > k = {k}")

    parent = [-1] * n
    parent[0] = 0
    topo = [0]
    for u in topo:
        for w in neigh[u]:
            if parent[w] < 0:
                parent[w] = u
                topo.append(w)
    # Children come after their parent in topo, so walking it backwards
    # finishes each subtree size before the size is read.
    sub = [1] * n
    half = n // 2
    best = (n, n)
    best_side = -1
    for u in reversed(topo[1:]):
        p = parent[u]
        side = sub[u]
        sub[p] += side
        if side > half:
            side = n - side
        if side >= best_side:
            edge = (p, u) if p < u else (u, p)
            if side > best_side or edge < best:
                best_side = side
                best = edge
    if k * best_side < n - 1:
        raise RuntimeError(
            f"no edge meets the (n-1)/k threshold on a degree-{max_degree} tree; "
            "invariant violated"
        )
    return best


def split_by_chord(g: Graph, emb: OuterEmbedding, chord: tuple[int, int]) -> tuple[VertexSet, VertexSet]:
    """Vertex sets of the two sides an edge cuts the cyclic order into.

    Both sides contain both endpoints, so their sizes add to n + 2.  The
    first side walks forward (increasing position, cyclically) from
    chord[0] to chord[1].
    """
    x, y = chord
    if not g.has_edge(x, y):
        raise ValueError(f"({x},{y}) is not an edge")
    if not verify_embedding(g, emb):
        raise ValueError("invalid embedding")
    pos = emb.positions()
    n = g.n
    u_mask = 0
    i = pos[x]
    while True:
        u_mask |= 1 << emb.order[i]
        if i == pos[y]:
            break
        i = (i + 1) % n
    up_mask = (g.full_mask & ~u_mask) | (1 << x) | (1 << y)
    return u_mask, up_mask


def side_face_counts(dual: DualTree, cut: tuple[int, int]) -> tuple[int, int]:
    """Face counts of the two components of the dual tree minus ``cut``."""
    i, j = cut
    edge = (min(i, j), max(i, j))
    if edge not in dual.edges:
        raise ValueError(f"({i},{j}) is not an edge of the dual tree")
    neigh: dict[int, list[int]] = {idx: [] for idx in range(len(dual.nodes))}
    for a, b in dual.edges:
        if (a, b) == edge:
            continue
        neigh[a].append(b)
        neigh[b].append(a)
    seen = {i}
    queue = [i]
    for u in queue:
        for w in neigh[u]:
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return len(seen), len(dual.nodes) - len(seen)
