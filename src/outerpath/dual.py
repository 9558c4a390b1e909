"""Weak duals of maximal outerplanar graphs and balanced tree edge cuts.

The weak dual has one node per bounded (triangular) face, nodes adjacent
when faces share an interior edge; for a triangulated polygon it is a
tree with n-2 nodes and maximum degree 3.  ``balanced_edge_cut`` realizes
the guarantee that a tree with maximum degree k has an edge whose removal
leaves both components with at least (n-1)/k nodes.

A ``Tree`` lists its edges in connected order, as (parent, child) pairs:
each edge hangs a new node off one already reached, starting from the
first edge's parent, the root.  Walking the edges backwards then finishes
every subtree before its parent edge is met, which is all the cut needs.
"""

from __future__ import annotations

from .graph import Graph
from .outerplanar import OuterEmbedding, _regions, verify_embedding


class _Record:
    """A slotted record that cannot be assigned to after construction.

    Equality and hash read the fields in ``_key``; ``repr`` shows every slot.
    """

    __slots__ = ()
    _key: tuple[str, ...] = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(getattr(self, f) == getattr(other, f) for f in self._key)

    def __hash__(self):
        return hash(tuple(getattr(self, f) for f in self._key))

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__slots__)
        return f"{type(self).__name__}({fields})"


class Tree(_Record):
    """Plain tree on nodes 0..n-1, edges as (parent, child) in connected order.

    The first edge's parent is the root; every later edge's parent has
    been reached by an earlier edge and its child has not.  n - 1 such
    edges always span a tree.  Validated on construction.
    """

    __slots__ = _key = ("n", "edges")

    def __init__(self, n: int, edges: tuple[tuple[int, int], ...]):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", edges)
        # perfbench/spans.py times the validator under this hook name
        self.__post_init__()

    def __post_init__(self):
        n = self.n
        if n < 1:
            raise ValueError("tree needs at least one node")
        if len(self.edges) != n - 1:
            raise ValueError(f"tree on {n} nodes needs {n - 1} edges")
        reached = {self.edges[0][0] if self.edges else 0}
        for p, c in self.edges:
            if not (0 <= p < n and 0 <= c < n):
                raise ValueError(f"edge ({p},{c}) out of range")
            if p not in reached:
                raise ValueError(f"edge ({p},{c}) hangs off node {p}, not reached yet")
            if c in reached:
                raise ValueError(f"edge ({p},{c}) closes a cycle or repeats an edge")
            reached.add(c)

    @classmethod
    def _unchecked(cls, n: int, edges: tuple[tuple[int, int], ...]) -> "Tree":
        # Internal fast path; the edges must already be (parent, child)
        # pairs in connected order, spanning 0..n-1.
        t = object.__new__(cls)
        object.__setattr__(t, "n", n)
        object.__setattr__(t, "edges", edges)
        return t


class DualTree(_Record):
    """Weak dual: faces as host-vertex triples plus the face adjacency.

    ``shared_edge`` maps each dual edge to its host edge; it follows from
    the faces, so equality and hash ignore it.
    """

    __slots__ = ("nodes", "edges", "shared_edge")
    _key = ("nodes", "edges")

    def __init__(
        self,
        nodes: tuple[tuple[int, ...], ...],
        edges: tuple[tuple[int, int], ...],
        shared_edge: dict[tuple[int, int], tuple[int, int]],
    ):
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "shared_edge", shared_edge)

    def to_tree(self) -> Tree:
        """The dual as a :class:`Tree`, its edges in BFS order from face 0."""
        n = len(self.nodes)
        neigh: list[list[int]] = [[] for _ in range(n)]
        for i, j in self.edges:
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"dual edge ({i},{j}) out of range")
            neigh[i].append(j)
            neigh[j].append(i)
        queue = [0] if n else []
        reached = [True] + [False] * (n - 1)
        edges = []
        for u in queue:
            for w in neigh[u]:
                if not reached[w]:
                    reached[w] = True
                    queue.append(w)
                    edges.append((u, w))
        if len(edges) != len(self.edges):
            raise ValueError("dual edges do not form a tree")
        return Tree(n, tuple(edges))

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
    # no tree check: 2n-3 crossing-free edges on n convex points are the n
    # cycle edges and n-3 diagonals, a triangulated polygon, whose weak dual
    # is a tree
    return DualTree(nodes, tuple(sorted(shared)), shared)


def balanced_edge_cut(t: Tree, k: int) -> tuple[int, int]:
    """Edge whose removal leaves both components with >= (n-1)/k nodes.

    Requires max degree <= k and k >= 3; such an edge always exists.  All
    edges are scanned and the one maximizing the smaller side is returned
    (ties broken by smallest edge, as (low, high)), which is at least as
    balanced as the guarantee; the rule does not depend on the order of
    the scan.  One backward pass over the parent-first edges of ``t``
    finishes each subtree size before its parent edge is read, and
    counts the children for the degree cap.  Comparison is exact:
    side >= (n-1)/k iff k*side >= n-1.
    """
    if k < 3:
        raise ValueError(f"k must be >= 3, got {k}")
    n = t.n
    if n < 2:
        raise ValueError("tree must have at least one edge")
    sub = [1] * n
    # every node but the root has its parent edge, counted up front
    deg = [1] * n
    deg[t.edges[0][0]] = 0
    half = n // 2
    best = (n, n)
    best_side = -1
    for p, c in reversed(t.edges):
        side = sub[c]
        sub[p] += side
        deg[p] += 1
        if side > half:
            side = n - side
        if side >= best_side:
            edge = (p, c) if p < c else (c, p)
            if side > best_side or edge < best:
                best_side = side
                best = edge
    max_degree = max(deg)
    if max_degree > k:
        raise ValueError(f"tree has max degree {max_degree} > k = {k}")
    if k * best_side < n - 1:
        raise RuntimeError(
            f"no edge meets the (n-1)/k threshold on a degree-{max_degree} tree; "
            "invariant violated"
        )
    return best
