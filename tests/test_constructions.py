import random
from fractions import Fraction

import pytest

from outerpath import (
    ConstructionSpec,
    build,
    count_induced_paths,
    double_star_p4_count,
    fib,
    h_count,
    is_outerplanar,
    lower_bound_value,
    verify_embedding,
)


class TestBuild:
    def test_star(self):
        g, emb = build(ConstructionSpec("star", n=7))
        assert g.n == 7 and g.edge_count() == 6 and g.degree(0) == 6
        assert is_outerplanar(g)

    def test_cycle_and_pendant(self):
        g, _ = build(ConstructionSpec("cycle", n=6))
        assert g.edge_count() == 6 and all(g.degree(v) == 2 for v in range(6))
        g, _ = build(ConstructionSpec("cycle_pendant", n=5))
        assert g.degree(4) == 1 and g.degree(0) == 3
        assert count_induced_paths(g, 3).copies == 6

    def test_c6_chord(self):
        g, _ = build(ConstructionSpec("c6_chord"))
        assert g.has_edge(0, 3) and g.edge_count() == 7
        assert count_induced_paths(g, 3).copies == 10

    def test_g4_structure(self):
        g, emb = build(ConstructionSpec("g_t", t=4))
        assert g.n == 6
        # x2 has exactly x1, x3 and the x2/x4 connector
        assert g.degree(1) == 3
        assert g.neighbors(1) == (1 << 0) | (1 << 2) | (1 << 5)
        assert verify_embedding(g, emb)

    def test_g_t_sizes_and_embeddings(self):
        for t in range(2, 13):
            g, emb = build(ConstructionSpec("g_t", t=t))
            assert g.n == 2 * t - 2
            assert verify_embedding(g, emb)
            assert is_outerplanar(g)

    def test_g_t_prime_double_star_case(self):
        g, emb = build(ConstructionSpec("g_t_prime", t=2, n=10))
        assert g.n == 10
        assert sorted(g.degree(v) for v in range(2)) == [5, 5]
        assert sum(g.degree(v) == 1 for v in range(10)) == 8

    def test_g_t_prime_exact_vertex_count_with_odd_remainder(self):
        for t, n in ((3, 11), (4, 13), (5, 21)):
            g, emb = build(ConstructionSpec("g_t_prime", t=t, n=n))
            assert g.n == n
            assert verify_embedding(g, emb)
            assert is_outerplanar(g)

    def test_g_t_prime_leaf_imbalance_goes_to_first_end(self):
        g, _ = build(ConstructionSpec("g_t_prime", t=3, n=11))
        # 2t-2 = 4 core vertices, 7 leaves: 4 on x_1, 3 on x_t
        per_side = (11 - 6 + 2) // 2
        assert g.degree(0) == per_side + 1 + 2  # leaves + x_2 + connector
        assert g.degree(2) == per_side + 2

    def test_double_star(self):
        g, _ = build(ConstructionSpec("double_star", n=9))
        assert count_induced_paths(g, 4).copies == double_star_p4_count(9) == 3 * 4

    def test_invalid_specs(self):
        with pytest.raises(ValueError):
            build(ConstructionSpec("g_t", t=1))
        with pytest.raises(ValueError):
            build(ConstructionSpec("g_t_prime", t=4, n=7))
        with pytest.raises(ValueError):
            build(ConstructionSpec("nope", n=4))
        with pytest.raises(ValueError):
            build(ConstructionSpec("cycle", n=2))

    def test_all_kinds_yield_valid_embeddings(self):
        rng = random.Random(40)
        specs = [
            ConstructionSpec("star", n=rng.randint(2, 40)),
            ConstructionSpec("cycle", n=rng.randint(3, 40)),
            ConstructionSpec("cycle_pendant", n=rng.randint(4, 40)),
            ConstructionSpec("c6_chord"),
            ConstructionSpec("double_star", n=rng.randint(4, 40)),
            ConstructionSpec("g_t", t=rng.randint(2, 12)),
            ConstructionSpec("g_t_prime", t=4, n=30),
        ]
        for spec in specs:
            g, emb = build(spec)
            assert verify_embedding(g, emb)


class TestFib:
    def test_base_values(self):
        assert fib(1) == 1 and fib(2) == 1 and fib(7) == 13

    def test_recurrence(self):
        for t in range(3, 30):
            assert fib(t) == fib(t - 1) + fib(t - 2)

    def test_domain(self):
        with pytest.raises(ValueError):
            fib(0)


class TestHCount:
    def test_small_values(self):
        assert h_count(2) == 1
        assert h_count(3) == 2
        assert h_count(5) == 5

    def test_equals_fib_through_12(self):
        for t in range(2, 13):
            assert h_count(t) == fib(t)


class TestLowerBoundValue:
    def test_exact_values(self):
        assert lower_bound_value(3, 11) == Fraction(16)
        assert lower_bound_value(4, 20) == Fraction(225, 2)  # 112.5
        assert lower_bound_value(4, 20, as_floor=True) == 112

    def test_domain(self):
        with pytest.raises(ValueError):
            lower_bound_value(1, 10)
        with pytest.raises(ValueError):
            lower_bound_value(3, 5)

    def test_g2_prime_meets_bound_at_n10(self):
        g, _ = build(ConstructionSpec("g_t_prime", t=2, n=10))
        copies = count_induced_paths(g, 4).copies
        assert copies == 16
        assert copies >= lower_bound_value(3, 10)
