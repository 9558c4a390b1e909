"""Weak duals of maximal outerplanar graphs and balanced tree edge cuts.

The weak dual has one node per bounded (triangular) face, nodes adjacent
when faces share an interior edge; for a triangulated polygon it is a
tree with n-2 nodes and maximum degree 3.  ``balanced_edge_cut`` realizes
the guarantee that a tree with maximum degree k has an edge whose removal
leaves both components with at least (n-1)/k nodes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .graph import Graph
from .outerplanar import OuterEmbedding, _regions, verify_embedding


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

    def to_dot(self) -> str:
        lines = ["graph dual {"]
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

    A crossing-free graph with 2n-3 edges on n convex points is a full
    triangulation, so every region :func:`~outerpath.outerplanar._regions`
    finds is a triangle.  Faces are reported in ascending order of their
    sorted corner positions.
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
    faces_pos = sorted(tuple(sorted(face)) for face in _regions(g, order))

    by_edge: dict[tuple[int, int], list[int]] = {}
    for idx, (a, b, c) in enumerate(faces_pos):
        for e in ((a, b), (b, c), (a, c)):
            by_edge.setdefault(e, []).append(idx)
    # a face's index is appended once per edge, in index order, so each
    # shared edge's owners come out as the ascending dual edge
    shared = {}
    for (a, b), owners in sorted(by_edge.items()):
        if len(owners) == 2:
            shared[tuple(owners)] = tuple(sorted((order[a], order[b])))
    nodes = tuple(tuple(order[p] for p in f) for f in faces_pos)
    dual = DualTree(nodes, tuple(sorted(shared)), shared)
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
