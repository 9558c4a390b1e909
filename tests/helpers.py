"""Independent oracles used across the test suite.

Everything here is deliberately naive (permutation scans, O(n^k)
enumeration) and shares no code with the library paths it checks, except
:func:`enumerate_outerplanar` and :func:`two_connected_corpus`: these two
list graphs over ``outerpath.search.dissections``, which
``tests/test_search.py`` checks against a brute-force filter of the
diagonal subsets.
"""

from __future__ import annotations

import random
from itertools import combinations, permutations

from outerpath import Graph, OuterEmbedding
from outerpath.search import dissections


def _cycle(n: int) -> list[tuple[int, int]]:
    """The cycle 0..n-1, edge i joining i and i + 1 (mod n)."""
    return [(i, (i + 1) % n) for i in range(n)]


def enumerate_outerplanar(n: int):
    """Every edge subset of a triangulation of the n-gon 0..n-1, each graph once.

    Each graph is a dissection of the n-gon plus a subset of the n cycle
    edges: little-Schroeder(n) * 2^n graphs.
    """
    cycle = _cycle(n)
    for chords in dissections(n):
        for subset in range(1 << n):
            yield Graph(n, [e for i, e in enumerate(cycle) if subset >> i & 1] + list(chords))


def two_connected_corpus(n: int):
    """Each 2-connected outerplanar graph with outer cycle 0..n-1 once, with
    that cycle as its embedding: the full cycle plus a dissection."""
    emb = OuterEmbedding.identity(n)
    for chords in dissections(n):
        yield Graph(n, _cycle(n) + list(chords)), emb


def brute_count_induced_paths(g: Graph, k: int) -> int:
    """Count induced k-vertex paths by scanning all ordered k-tuples."""
    if k == 1:
        return g.n
    count = 0
    for verts in combinations(range(g.n), k):
        for order in permutations(verts):
            if order[0] > order[-1]:
                continue
            ok = True
            for i in range(k):
                for j in range(i + 1, k):
                    adjacent = g.has_edge(order[i], order[j])
                    if adjacent != (j == i + 1):
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                count += 1
    return count


def brute_count_between(g: Graph, x: int, y: int, k: int) -> int:
    count = 0
    others = [v for v in range(g.n) if v not in (x, y)]
    for mid in permutations(others, k - 2):
        order = (x,) + mid + (y,)
        ok = True
        for i in range(k):
            for j in range(i + 1, k):
                if g.has_edge(order[i], order[j]) != (j == i + 1):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            count += 1
    return count


def side_arc(order: tuple[int, ...], chord: tuple[int, int], step: int) -> list[int]:
    """The arc of the circular ``order`` from x to y, stepping by +1 or -1."""
    x, y = chord
    i = order.index(x)
    arc = [x]
    while arc[-1] != y:
        i = (i + step) % len(order)
        arc.append(order[i])
    return arc


def brute_side_p3_counts(g: Graph, order: tuple[int, ...], chord: tuple[int, int]) -> dict[str, int]:
    """Induced 3-paths from a chord endpoint into one side's strict interior.

    The chord (x, y) splits the circular ``order`` into the arc walked
    forward from x to y and the arc walked backward.  For each arc and
    each endpoint e this counts the paths e-c-w with c and w strictly
    inside the arc, e ~ c, c ~ w and e not ~ w.  Keys follow the chord
    statistics: s2/p2 (forward arc, from x/y) and t2/q2 (backward arc).
    """
    x, y = chord

    def count(inside: list[int], e: int) -> int:
        return sum(
            1
            for c in inside
            for w in inside
            if c != w and g.has_edge(e, c) and g.has_edge(c, w) and not g.has_edge(e, w)
        )

    forward, backward = side_arc(order, chord, 1)[1:-1], side_arc(order, chord, -1)[1:-1]
    return {
        "s2": count(forward, x),
        "p2": count(forward, y),
        "t2": count(backward, x),
        "q2": count(backward, y),
    }


def brute_side_classes(g: Graph, seq: list[int]) -> dict[str, set[int]]:
    """The classes A, B1, B2, D1, D2 of one side arc, from their definitions.

    ``seq`` is the arc from x to y.  The rules are read off the
    ``outerpath.chords`` docstring and applied as written, B2 and D2
    included, with arc positions in place of bitmasks.
    """
    x, y = seq[0], seq[-1]
    interior = seq[1:-1]
    pos = {v: i for i, v in enumerate(seq)}
    x_nbrs = [v for v in interior if g.has_edge(x, v)]
    y_nbrs = [v for v in interior if g.has_edge(y, v)]
    a = {
        v
        for v in interior
        if not g.has_edge(x, v)
        and not g.has_edge(y, v)
        and sum(g.has_edge(v, c) for c in x_nbrs) <= 1
        and sum(g.has_edge(v, c) for c in y_nbrs) <= 1
    }

    def common_in_gap(c: int, d: int) -> bool:
        return any(g.has_edge(c, w) and g.has_edge(d, w) for w in interior if pos[c] < pos[w] < pos[d])

    def span(nbrs: list[int]) -> set[int]:
        return {v for v in interior if nbrs and pos[nbrs[0]] <= pos[v] <= pos[nbrs[-1]]}

    b1 = {c for c, d in zip(x_nbrs, x_nbrs[1:]) if not common_in_gap(c, d)}
    b2 = {d for c, d in zip(y_nbrs, y_nbrs[1:]) if not common_in_gap(c, d)}
    return {"A": a, "B1": b1, "B2": b2, "D1": span(x_nbrs) - a - b1, "D2": span(y_nbrs) - a - b2}


def brute_cut_vertices(g: Graph) -> int:
    """Bitmask of the vertices whose removal increases the component count."""

    def components(alive: set[int]) -> int:
        count, seen = 0, set()
        for s in alive:
            if s in seen:
                continue
            count += 1
            stack = [s]
            seen.add(s)
            while stack:
                u = stack.pop()
                for w in alive:
                    if w not in seen and g.has_edge(u, w):
                        seen.add(w)
                        stack.append(w)
        return count

    everyone = set(range(g.n))
    base = components(everyone)
    return sum(1 << v for v in range(g.n) if g.n > 1 and components(everyone - {v}) > base)


def brute_is_two_connected(g: Graph) -> bool:
    """At least 3 vertices, connected, and no vertex whose removal disconnects."""
    reach = {0}
    stack = [0]
    while stack:
        u = stack.pop()
        for w in range(g.n):
            if w not in reach and g.has_edge(u, w):
                reach.add(w)
                stack.append(w)
    return g.n >= 3 and len(reach) == g.n and brute_cut_vertices(g) == 0


def orders_cross(g: Graph, order: tuple[int, ...]) -> bool:
    """Naive all-pairs interleaving test for a circular layout (the verify_embedding oracle)."""
    pos = {v: i for i, v in enumerate(order)}
    edges = list(g.edges())
    for (u1, v1), (u2, v2) in combinations(edges, 2):
        if {u1, v1} & {u2, v2}:
            continue
        a1, b1 = sorted((pos[u1], pos[v1]))
        a2, b2 = sorted((pos[u2], pos[v2]))
        if (a1 < a2 < b1) != (a1 < b2 < b1):
            return True
    return False


def outerplanar_by_order_search(g: Graph) -> bool:
    """True iff some circular vertex order draws g without crossings."""
    n = g.n
    if n <= 3:
        return True
    rest = list(range(1, n))
    for perm in permutations(rest):
        if perm[0] > perm[-1]:
            continue  # reflections are equivalent
        if not orders_cross(g, (0,) + perm):
            return True
    return False


def random_graph(n: int, p: float, rng: random.Random) -> Graph:
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return Graph(n, edges)


def relabel(g: Graph, perm: list[int]) -> Graph:
    """New graph with vertex v renamed perm[v]."""
    return Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def brute_canonical_graph6(g: Graph) -> str:
    """graph6 of the relabeling whose column-major upper triangle is least,
    found by scanning all n! vertex orders (networkx writes the graph6)."""
    import networkx as nx

    pairs = [(i, m) for m in range(1, g.n) for i in range(m)]
    best = min(permutations(range(g.n)), key=lambda p: [g.has_edge(p[i], p[m]) for i, m in pairs])
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from((i, m) for i, m in pairs if g.has_edge(best[i], best[m]))
    return nx.to_graph6_bytes(h, header=False).decode("ascii").strip()


def random_forest(n: int, rng: random.Random) -> Graph:
    """Random forest on n vertices: each vertex after the first joins a random
    earlier one with probability p, then the labels are shuffled."""
    p = rng.choice((0.6, 0.9, 1.0))
    edges = [(rng.randrange(v), v) for v in range(1, n) if rng.random() < p]
    perm = list(range(n))
    rng.shuffle(perm)
    return relabel(Graph(n, edges), perm)
