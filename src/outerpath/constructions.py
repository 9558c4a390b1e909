"""Named graph families and their embeddings.

``g_t`` is a path x_1..x_t where every distance-2 pair x_i, x_{i+2} gets a
private degree-2 vertex joined to both; its induced end-to-end paths obey
the Fibonacci recurrence, which ``h_count`` measures by enumeration.
``g_t_prime`` fans extra leaves off x_1 and x_t to reach a target vertex
count, giving the quadratic lower-bound family for induced paths.
"""

from __future__ import annotations

from typing import NamedTuple

from .graph import Graph
from .outerplanar import OuterEmbedding, outer_cycle, verify_embedding
from .paths import count_induced_paths_between

KINDS = ("star", "cycle", "cycle_pendant", "c6_chord", "g_t", "g_t_prime", "double_star")


class ConstructionSpec(NamedTuple):
    kind: str
    n: int | None = None
    t: int | None = None


def fib(t: int) -> int:
    """Fibonacci numbers with fib(1) = fib(2) = 1."""
    if t < 1:
        raise ValueError(f"fib is defined for t >= 1, got {t}")
    a, b = 1, 1
    for _ in range(t - 2):
        a, b = b, a + b
    return b


def _need_n(spec: ConstructionSpec, at_least: int) -> int:
    if spec.n is None or spec.n < at_least:
        raise ValueError(f"{spec.kind} needs n >= {at_least}, got {spec.n}")
    return spec.n


def _gt_core(t: int) -> tuple[Graph, list[int]]:
    """The 2t-2 vertex core and its outer order (x_i at i-1, y_i at t-1+i)."""
    edges = [(i, i + 1) for i in range(t - 1)]
    for i in range(1, t - 1):
        y = t - 1 + i
        edges.append((i - 1, y))
        edges.append((y, i + 1))
    g = Graph(2 * t - 2, edges)
    if t == 2:
        return g, [0, 1]
    # outer_cycle starts at x_1 and goes on to its smaller neighbour, x_2
    return g, list(outer_cycle(g).order)


def build(spec: ConstructionSpec) -> tuple[Graph, OuterEmbedding]:
    """Build the named graph together with a valid outer embedding."""
    kind = spec.kind
    if kind == "star":
        n = _need_n(spec, 2)
        g = Graph(n, [(0, v) for v in range(1, n)])
        order = list(range(n))
    elif kind == "cycle":
        n = _need_n(spec, 3)
        g = Graph(n, [(i, (i + 1) % n) for i in range(n)])
        order = list(range(n))
    elif kind == "cycle_pendant":
        n = _need_n(spec, 4)
        edges = [(i, (i + 1) % (n - 1)) for i in range(n - 1)] + [(0, n - 1)]
        g = Graph(n, edges)
        order = list(range(n))
    elif kind == "c6_chord":
        if spec.n not in (None, 6):
            raise ValueError("c6_chord is a fixed 6-vertex graph")
        g = Graph(6, [(i, (i + 1) % 6) for i in range(6)] + [(0, 3)])
        order = list(range(6))
    elif kind == "double_star":
        n = _need_n(spec, 4)
        left = (n - 2 + 1) // 2
        edges = [(0, 1)]
        edges += [(0, 2 + i) for i in range(left)]
        edges += [(1, 2 + left + i) for i in range(n - 2 - left)]
        g = Graph(n, edges)
        order = list(range(2 + left - 1, 1, -1)) + [0, 1] + list(range(2 + left, n))
    elif kind == "g_t":
        if spec.t is None or spec.t < 2:
            raise ValueError(f"g_t needs t >= 2, got {spec.t}")
        g, order = _gt_core(spec.t)
    elif kind == "g_t_prime":
        if spec.t is None or spec.t < 2:
            raise ValueError(f"g_t_prime needs t >= 2, got {spec.t}")
        t = spec.t
        n = _need_n(spec, 2 * t)
        core, core_order = _gt_core(t)
        per_side = (n - 2 * t + 2) // 2
        total_leaves = n - core.n
        left = total_leaves - per_side  # parity remainder goes to x_1
        first_leaf = core.n
        edges = list(core.edges())
        edges += [(0, first_leaf + i) for i in range(left)]
        edges += [(t - 1, first_leaf + left + i) for i in range(per_side)]
        g = Graph(n, edges)
        # x_1 leaves sit just before x_1 in the cyclic order, x_t leaves
        # just after x_t; both stay inside one boundary arc.
        xt_at = core_order.index(t - 1)
        order = (
            list(range(first_leaf, first_leaf + left))
            + core_order[: xt_at + 1]
            + list(range(first_leaf + left, n))
            + core_order[xt_at + 1 :]
        )
    else:
        raise ValueError(f"unknown construction kind {kind!r}; known: {', '.join(KINDS)}")

    emb = OuterEmbedding(tuple(order))
    if not verify_embedding(g, emb):
        raise RuntimeError(f"construction {kind} produced a crossing embedding; bug")
    return g, emb


def h_count(t: int) -> int:
    """Induced t-vertex paths of g_t running from x_1 to x_t, by enumeration.

    These are the path cores of the quadratic lower-bound count (each gets
    a private leaf on both ends), and they satisfy h(t) = h(t-1) + h(t-2):
    the second vertex is x_2 or the x_1/x_3 connector, and the remainder
    is the same kind of path in the gadget shifted by one or two.  Paths
    allowed to end anywhere would overshoot from t = 5 on (6 instead of 5)
    by finishing on a connector vertex off the spine.
    """
    if t < 2:
        raise ValueError(f"h_count needs t >= 2, got {t}")
    g, _ = build(ConstructionSpec("g_t", t=t))
    return count_induced_paths_between(g, 0, t - 1, t)


def lower_bound_value(k: int, n: int) -> Fraction:
    """fib(k-1) * (n-2k+3)^2 / 4, exact."""
    # only this function needs fractions, which import outerpath skips
    from fractions import Fraction

    if k < 2:
        raise ValueError(f"lower_bound_value needs k >= 2, got {k}")
    if n < 2 * k:
        raise ValueError(f"lower_bound_value needs n >= 2k = {2 * k}, got {n}")
    return Fraction(fib(k - 1) * (n - 2 * k + 3) ** 2, 4)


def double_star_p4_count(n: int) -> int:
    """floor((n-2)/2) * ceil((n-2)/2): induced 4-vertex paths in the double star."""
    if n < 4:
        raise ValueError(f"double star needs n >= 4, got {n}")
    return ((n - 2) // 2) * ((n - 1) // 2)
