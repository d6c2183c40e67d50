import math
from fractions import Fraction

import numpy as np
import pytest

from gamma_reference import gamma_hat_reference
from helpers import random_class
from oracleid.bitstrings import ConceptClass, generate_class
from oracleid.bounds import (
    brute_force_cost,
    build_report,
    check_dual_certificate,
    closed_form_cost,
    gamma_hat,
    learning_bound,
    lower_bound_k,
    lp_primal_opt,
    lp_problem_data,
)


class TestBruteForce:
    def test_balanced_split(self):
        value, parts = brute_force_cost(4, 4)
        assert value == pytest.approx(2 * math.sqrt(2))
        assert sorted(parts) == [2, 2]

    def test_tight_product_budget(self):
        value, parts = brute_force_cost(2, 4)
        assert value == pytest.approx(math.sqrt(2))
        assert parts == (2,)

    def test_four_pairs(self):
        value, parts = brute_force_cost(16, 8)
        assert value == pytest.approx(4 * math.sqrt(2))
        assert sorted(parts) == [2, 2, 2, 2]

    def test_singleton_promise_is_free(self):
        assert brute_force_cost(1, 10) == (0.0, ())

    def test_optimum_satisfies_its_own_constraints(self):
        for m, n in [(3, 3), (7, 9), (100, 12), (2**14, 14)]:
            value, parts = brute_force_cost(m, n)
            assert sum(parts) <= n
            assert math.prod(max(2, p) for p in parts) <= m
            assert 1 <= len(parts) <= n
            assert value == pytest.approx(sum(math.sqrt(p) for p in parts))

    def test_monotone_in_both_arguments(self):
        grid_m = [2, 3, 4, 8, 64, 1024]
        grid_n = [2, 4, 6, 9, 12]
        table = {
            (m, n): brute_force_cost(m, n)[0] for m in grid_m for n in grid_n
        }
        for i, m in enumerate(grid_m[:-1]):
            for n in grid_n:
                assert table[(m, n)] <= table[(grid_m[i + 1], n)] + 1e-12
        for m in grid_m:
            for i, n in enumerate(grid_n[:-1]):
                assert table[(m, n)] <= table[(m, grid_n[i + 1])] + 1e-12

    def test_size_cap(self):
        with pytest.raises(ValueError):
            brute_force_cost(4, 25)


class TestClosedForm:
    def test_mid_grid_value(self):
        assert closed_form_cost(16, 8) == pytest.approx(4.0)

    def test_full_cube_is_exactly_n(self):
        # below n = 4 the sqrt(M) branch is the smaller one
        for n in range(4, 21):
            assert closed_form_cost(1 << n, n) == float(n)

    def test_small_class_takes_the_sqrt_m_branch(self):
        assert closed_form_cost(2, 4096) == pytest.approx(math.sqrt(2))

    def test_range_validation(self):
        with pytest.raises(ValueError):
            closed_form_cost(1, 4)
        with pytest.raises(ValueError):
            closed_form_cost(32, 4)

    def test_brackets_the_exhaustive_optimum(self):
        for n in [4, 8, 12, 16, 20]:
            for m in {2, 4, 16, 2 ** math.ceil(n / 2), 2**n}:
                ratio = closed_form_cost(m, n) / max(brute_force_cost(m, n)[0], 1e-12)
                assert 1 / 8 <= ratio <= 8


class TestPrimalLp:
    def test_upper_bounds_the_exhaustive_optimum(self):
        for n in range(2, 13):
            for m in range(1, n + 1):
                assert brute_force_cost(1 << m, n)[0] <= lp_primal_opt(n, m) + 1e-9

    def test_non_power_sizes_too(self):
        rng = np.random.default_rng(0)
        for _ in range(40):
            n = int(rng.integers(2, 13))
            m_size = int(rng.integers(2, min(1 << n, 4096) + 1))
            cap = lp_primal_opt(n, math.ceil(math.log2(m_size)))
            assert brute_force_cost(m_size, n)[0] <= cap + 1e-9

    def test_slack_budget_reduces_to_single_variable(self):
        # with the part-count constraint inert, the best vertex spends the
        # whole size budget on the k maximizing 4N / sqrt(2^k), i.e. k = 1
        n = 8
        assert lp_primal_opt(n, 10**6) == pytest.approx(4 * n / math.sqrt(2))

    def test_zero_is_always_feasible(self):
        assert lp_primal_opt(4, 2) >= 0.0

    def test_agrees_with_reference_solver(self):
        scipy = pytest.importorskip("scipy.optimize")
        for n, m in [(4, 2), (8, 3), (16, 7), (33, 12), (64, 20)]:
            objective, rows, rhs = lp_problem_data(n, m)
            res = scipy.linprog(
                [-c for c in objective], A_ub=rows, b_ub=rhs, method="highs"
            )
            assert res.status == 0
            assert lp_primal_opt(n, m) == pytest.approx(-res.fun, abs=1e-8)


class TestDualCertificate:
    def test_reference_point(self):
        cert = check_dual_certificate(8, 3)
        assert cert.n_prime == 5
        assert cert.feasible and cert.min_slack >= 0.0
        reference = math.sqrt(32 * 12 / (math.log2(32 / 12) + 1))
        assert cert.dual_value <= 2 * math.sqrt(2) * reference

    def test_feasible_across_the_grid(self):
        for n in range(4, 65):
            for m in range(1, n + 1):
                cert = check_dual_certificate(n, m)
                assert cert.feasible, (n, m)
                assert lp_primal_opt(n, m) <= cert.dual_value + 1e-9

    def test_large_rank_rows_follow_from_am_gm(self):
        # rows with k >= d hold because the two slack terms multiply to
        # k/d, making their sum at least 2 sqrt(k/d) >= 2
        for n, m in [(16, 2), (64, 5), (32, 8)]:
            cert = check_dual_certificate(n, m)
            d = cert.d
            for k in range(math.ceil(d), cert.n_prime + 1):
                t1 = math.sqrt(2.0**k / (d * 2.0**d))
                t2 = math.sqrt(k**2 * 2.0**d / (2.0**k * d))
                assert t1 * t2 == pytest.approx(k / d)
                assert t1 + t2 >= 2 * math.sqrt(k / d) - 1e-12
                assert t1 + t2 >= 1.0

    def test_outside_regime_rejected(self):
        with pytest.raises(ValueError):
            check_dual_certificate(4, 5)


class TestLowerBound:
    def test_tight_budget_forces_weight_one(self):
        k, value = lower_bound_k(8, 9)
        assert k == 1
        assert value == pytest.approx(2 * math.sqrt(2))

    def test_full_cube_budget(self):
        k, value = lower_bound_k(8, 256)
        assert k == 4  # k = 5 ties on value; the smaller weight wins
        assert value == pytest.approx(math.sqrt(20))

    def test_small_case(self):
        assert lower_bound_k(4, 5) == (1, pytest.approx(2.0))

    def test_feasibility_of_reported_weight(self):
        for n in (6, 10, 15):
            for m in (n + 1, 5 * n, 1 << (n - 1), 1 << n):
                k, value = lower_bound_k(n, m)
                assert math.comb(n, k - 1) + math.comb(n, k) <= m
                assert value == pytest.approx(math.sqrt((n - k + 1) * k))

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            lower_bound_k(8, 8)
        with pytest.raises(ValueError):
            lower_bound_k(8, 300)


class TestGammaHat:
    def test_two_member_class(self):
        cls = ConceptClass.from_strings(["00", "11"])
        assert gamma_hat(cls).value == Fraction(1, 2)

    def test_two_cube(self):
        assert gamma_hat(generate_class("cube", 2)).value == Fraction(1, 3)

    def test_weight_one_three_bits(self):
        assert gamma_hat(generate_class("hamming1", 3)).value == Fraction(1, 3)

    def test_extreme_class_hits_the_lower_end(self):
        # weight-one strings plus the zero string: the best query still
        # keeps n of n + 1 candidates on the zero answer
        n = 5
        values = [0] + [1 << i for i in range(n)]
        cls = ConceptClass.from_values(n, values)
        assert gamma_hat(cls).value == Fraction(1, n + 1)

    def test_witness_attains_the_value(self):
        cls = generate_class("random", 5, size=8, seed=3)
        res = gamma_hat(cls)
        size = len(res.witness)
        best = 0
        for j in range(5):
            ones = sum(1 for y in res.witness if y.bit(j))
            best = max(best, min(ones, size - ones))
        assert Fraction(best, size) == res.value

    def test_inverse_range(self):
        rng = np.random.default_rng(1)
        for _ in range(40):
            n = int(rng.integers(2, 9))
            cls = random_class(rng, n, int(rng.integers(2, min(13, 1 << n) + 1)))
            inv = 1 / gamma_hat(cls).value
            assert 2 <= inv <= n + 1

    def test_single_member_rejected(self):
        with pytest.raises(ValueError):
            gamma_hat(ConceptClass.from_strings(["1"]))

    def test_exact_mode_at_the_member_cap(self):
        cls = generate_class("random", 12, size=20, seed=5)
        res = gamma_hat(cls)
        size = len(res.witness)
        best = 0
        for j in range(cls.n):
            ones = sum(1 for y in res.witness if y.bit(j))
            best = max(best, min(ones, size - ones))
        assert Fraction(best, size) == res.value
        over = generate_class("random", 12, size=21, seed=5)
        with pytest.raises(ValueError, match="caps at 20 members"):
            gamma_hat(over)


class TestGammaHatAgainstReference:
    """The vectorized scan returns the loop's value and witness."""

    def test_random_exact_classes(self):
        rng = np.random.default_rng(21)
        for _ in range(200):
            n = int(rng.integers(2, 10))
            cls = random_class(rng, n, int(rng.integers(2, min(14, 1 << n) + 1)))
            assert gamma_hat(cls) == gamma_hat_reference(cls)

    @pytest.mark.parametrize("kind, n", [("cube", 3), ("hamming1", 5)])
    def test_named_classes(self, kind, n):
        cls = generate_class(kind, n)
        assert gamma_hat(cls) == gamma_hat_reference(cls)

    @pytest.mark.parametrize("m", [2, 3, 15, 16, 17, 18])
    def test_split_boundaries(self, m):
        # the scan splits the subset masks into halves of m // 2 and
        # m - m // 2 bits: one-bit halves at 2 and 3, odd and even above
        cls = generate_class("random", 9, size=m, seed=m)
        got = gamma_hat(cls)
        assert got == gamma_hat_reference(cls)

    def test_closed_form_family_at_the_member_cap(self):
        # the zero string and the 19 weight-one strings: only the full set
        # keeps 19 of its 20 candidates on every query's worse answer
        values = [0] + [1 << i for i in range(19)]
        cls = ConceptClass.from_values(19, values)
        got = gamma_hat(cls)
        assert got.value == Fraction(1, 20)
        assert got.witness == cls.members


class TestLearningBound:
    def test_half_rate_two_members(self):
        lb = learning_bound(2, Fraction(1, 2))
        assert lb.query_bound == pytest.approx(math.sqrt(2))
        assert lb.trace_sum_bound == pytest.approx(2.0)

    def test_extreme_rate_substitution(self):
        n, m = 10, 64
        lb = learning_bound(m, Fraction(1, n + 1))
        expect = math.sqrt((n + 1) / math.log2(n + 1)) * math.log2(m)
        assert lb.query_bound == pytest.approx(expect)

    def test_dominates_ideal_costs_on_weight_one(self):
        from oracleid.identify import identify_all

        cls = generate_class("hamming1", 3)
        bound = learning_bound(3, gamma_hat(cls).value).query_bound
        worst = max(t.ideal_cost for t in identify_all(cls).values())
        assert worst <= 4 * bound

    def test_rate_validation(self):
        with pytest.raises(ValueError):
            learning_bound(4, 0.0)
        with pytest.raises(ValueError):
            learning_bound(4, 1.0)


class TestBoundReport:
    def test_row_chain_holds(self):
        rep = build_report(16, 8)
        assert rep.brute_force_C <= rep.lp_primal + 1e-9 <= rep.lp_dual + 1e-9
        assert rep.k_lower == 1

    def test_small_class_has_no_lower_bound_columns(self):
        rep = build_report(4, 8)
        assert rep.k_lower is None
        assert rep.to_csv_row().endswith(",,")
