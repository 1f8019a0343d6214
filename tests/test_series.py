import dataclasses
import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.polynomial import polynomial as npoly

from hjb_planner import (
    ModelParams,
    build_kernel,
    eval_log_u,
    eval_log_u_prime,
    eval_u,
    eval_u_prime,
    expected_optimal_cost,
)
from hjb_planner.series import HORNER_X_MAX, _horner, _log_sums

# Brute-force partial sums of the coefficient formula at 40 decimal digits
# (mpmath), frozen; keys are (n_goods, sigma, r).
BRUTE_FORCE_U = {
    (2, 1.0, 1.0): 1.0634833707413235,
    (1, 0.5, 1.7): 87.3960767629235165,
    (4, 2.0, 3.0): 1.22469528069319178,
    (10, 1.0, 2.2): 1.58662215759626718,
    (100, 0.5, 2.0): 1.85937385199465741,
    (2, 5.0, 0.3): 1.00000081000016403,
}
BRUTE_FORCE_U_PRIME = {
    (2, 1.0, 1.0): 0.25789430539089632,
    (1, 0.5, 1.7): 566.490149268983459,
    (4, 2.0, 3.0): 0.318492918296665802,
    (10, 1.0, 2.2): 1.26374913749200548,
    (100, 0.5, 2.0): 2.2804739278253747,
    (2, 5.0, 0.3): 1.08000043740005893e-5,
}
LOG_U_20_N2_SIGMA_HALF = 795.738911950745019  # ln u(20), N=2, sigma=0.5
COST_N2_SIGMA1_R1 = 0.12309943837096261  # 2 ln u(1), N=2, sigma=1


class TestModelParams:
    def test_accepts_valid(self):
        p = ModelParams(n_goods=np.int64(3), sigma=1, radius=2.5)
        assert (p.n_goods, p.sigma, p.radius) == (3, 1.0, 2.5)
        assert type(p.n_goods) is int and type(p.sigma) is float

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n_goods=0, sigma=1.0, radius=1.0),
            dict(n_goods=2, sigma=0.0, radius=1.0),
            dict(n_goods=2, sigma=-1.0, radius=1.0),
            dict(n_goods=2, sigma=1.0, radius=0.0),
            dict(n_goods=2, sigma=math.inf, radius=1.0),
            dict(n_goods=2.5, sigma=1.0, radius=1.0),
            dict(n_goods=np.float64(2.0), sigma=1.0, radius=1.0),
        ],
    )
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ValueError):
            ModelParams(**kwargs)

    def test_non_integer_goods_count_named(self):
        with pytest.raises(ValueError, match=r"n_goods must be an integer, got 2\.5"):
            ModelParams(2.5, 1.0, 1.0)


class TestBuildKernel:
    def test_first_coefficients_n2(self, std_kernel):
        # a_1 = 1/(N+2) = 1/4, a_2 = 1/(2!*4*8) = 1/64
        assert std_kernel.log_a[0] == 0.0
        assert math.exp(std_kernel.log_a[1]) == pytest.approx(0.25, rel=1e-14)
        assert math.exp(std_kernel.log_a[2]) == pytest.approx(1 / 64, rel=1e-14)

    def test_first_coefficients_n4(self):
        k = build_kernel(ModelParams(4, 1.0, 1.0))
        assert math.exp(k.log_a[1]) == pytest.approx(1 / 6, rel=1e-14)
        assert math.exp(k.log_a[2]) == pytest.approx(1 / 120, rel=1e-14)

    def test_log_recurrence_exact(self, std_kernel):
        n = std_kernel.params.n_goods
        for j in range(1, std_kernel.truncation_order + 1):
            expected = std_kernel.log_a[j - 1] - math.log(j) - math.log(n + 4 * j - 2)
            assert std_kernel.log_a[j] == expected

    def test_log_a_strictly_decreasing(self, wide_kernel):
        assert np.all(np.diff(wide_kernel.log_a) < 0.0)
        assert np.all(np.isfinite(wide_kernel.log_a))

    @pytest.mark.parametrize("n,sigma", [(1, 1.0), (2, 0.5), (10, 2.0)])
    def test_small_order_when_x_at_most_one(self, n, sigma):
        # x(r_max) = 1 decays factorially from the first term
        k = build_kernel(ModelParams(n, sigma, radius=1e-3), r_max=math.sqrt(2) * sigma)
        assert k.truncation_order <= 10

    # frozen: the stopping rule's orders at cells across both branches and
    # up to near the cap
    @pytest.mark.parametrize(
        "n,sigma,r_max,order",
        [(2, 1.0, 1.0, 6), (100, 1.0, 1.0, 4), (2, 0.5, 4.0, 43), (100, 0.5, 4.0, 33),
         (1, 1.0, 80.0, 1824), (100, 1.0, 0.05, 1)],
    )
    def test_pinned_truncation_order(self, n, sigma, r_max, order):
        k = build_kernel(ModelParams(n, sigma, min(r_max, 1.0)), r_max=r_max)
        assert k.truncation_order == order == k.log_a.size - 1

    def test_truncation_overflow_refused(self):
        with pytest.raises(ValueError, match="series truncation overflow"):
            build_kernel(ModelParams(2, 0.05, 1.0), r_max=10.0)
        with pytest.raises(ValueError, match="series truncation overflow"):
            build_kernel(ModelParams(1, 1.0, 1.0), r_max=90.0)

    def test_linear_coefficients_follow_log_a(self, std_kernel):
        log_a = std_kernel.log_a.copy()
        log_a[1] += 1.0
        k = dataclasses.replace(std_kernel, log_a=log_a)
        assert np.array_equal(k.c, np.exp(log_a))
        assert np.array_equal(k.b, k.c * np.arange(log_a.size))
        assert k.truncation_order == std_kernel.truncation_order

    def test_rejects_bad_tol_and_range(self, std_params):
        with pytest.raises(ValueError):
            build_kernel(std_params, r_max=0.5)  # below radius


class TestEvaluation:
    def test_origin_exact(self, std_kernel):
        assert eval_u(std_kernel, 0.0) == 1.0
        assert eval_u_prime(std_kernel, 0.0) == 0.0
        assert eval_log_u(std_kernel, 0.0) == 0.0

    @pytest.mark.parametrize("key,expected", sorted(BRUTE_FORCE_U.items()))
    def test_u_matches_brute_force(self, key, expected):
        n, sigma, r = key
        k = build_kernel(ModelParams(n, sigma, radius=r), r_max=r)
        assert eval_u(k, r) == pytest.approx(expected, rel=1e-13)

    @pytest.mark.parametrize("key,expected", sorted(BRUTE_FORCE_U_PRIME.items()))
    def test_u_prime_matches_brute_force(self, key, expected):
        n, sigma, r = key
        k = build_kernel(ModelParams(n, sigma, radius=r), r_max=r)
        assert eval_u_prime(k, r) == pytest.approx(expected, rel=5e-13)

    def test_log_path_beyond_double_range(self, wide_kernel):
        # u(20) ~ e^795 overflows; the log route must stay finite and sharp
        assert eval_u(wide_kernel, 20.0) == math.inf
        assert eval_log_u(wide_kernel, 20.0) == pytest.approx(
            LOG_U_20_N2_SIGMA_HALF, rel=1e-14
        )
        x = (20.0 / 0.5) ** 4 / 4.0
        assert eval_log_u(wide_kernel, 20.0) <= x / 4  # growth bound, log form

    def test_log_and_linear_paths_agree(self, wide_kernel):
        # Horner and the normalized log-space weights are independent
        # summations of A and B; both can be trusted across the split
        x = np.linspace(HORNER_X_MAX / 2, 2.0 * HORNER_X_MAX, 81)
        log_x = np.log(x)
        t, b = _horner(wide_kernel.c, wide_kernel.b, x)
        m, s0, s1 = _log_sums(wide_kernel.log_a, log_x)
        log_a_sum = m + np.log(s0)
        log_b_sum = m + np.log(s1) - log_x
        assert np.max(np.abs(np.log1p(t) - log_a_sum) / log_a_sum) < 1e-13
        assert np.max(np.abs(np.log(b) - log_b_sum) / np.abs(log_b_sum)) < 1e-13

    def test_alpha_is_a_plain_post_multiplier(self, std_kernel, wide_kernel):
        # u(0) = 1, and in the Horner range u is bit for bit the Horner
        # value of sum_j a_j x^j (a_0 = 1 exactly, so t + 1.0 loses nothing)
        for kernel in (std_kernel, wide_kernel):
            sigma = kernel.params.sigma
            r_top = min(kernel.r_max, 0.999 * sigma * (4.0 * HORNER_X_MAX) ** 0.25)
            r = np.linspace(0.0, r_top, 101)
            x = np.power(r / sigma, 4.0) / 4.0
            assert np.array_equal(eval_u(kernel, r), npoly.polyval(x, kernel.c))
            for point in r[::10]:
                assert eval_u(kernel, float(point)) == npoly.polyval(
                    np.power(point / sigma, 4.0) / 4.0, kernel.c
                )

    def test_outside_certified_range(self, std_kernel):
        for bad in (1.0000001, -0.1, math.nan):
            with pytest.raises(ValueError):
                eval_u(std_kernel, bad)
            with pytest.raises(ValueError):
                eval_u_prime(std_kernel, bad)

    def test_vectorized_matches_scalar(self, std_kernel):
        grid = np.linspace(0.0, 1.0, 17)
        vec = eval_u(std_kernel, grid)
        assert vec.shape == grid.shape
        for r, v in zip(grid, vec):
            assert eval_u(std_kernel, float(r)) == v

    @given(r=st.floats(min_value=0.0, max_value=20.0))
    @example(r=1.14e-105)
    @example(r=3.295806832732975e-106)
    @example(r=9.63295e-81)
    @settings(max_examples=200, deadline=None)
    def test_growth_bounds_hypothesis(self, wide_kernel, r):
        # log forms of the growth/slope bounds, slack 1e-12
        n = wide_kernel.params.n_goods
        sigma4 = wide_kernel.params.sigma**4
        x = r**4 / (4 * sigma4)
        assert eval_log_u(wide_kernel, r) <= x / (n + 2) + 1e-12
        if r > 0.0:
            bound = 3 * math.log(r) - math.log(sigma4 * (n + 2)) + x / (n + 2)
            assert eval_log_u_prime(wide_kernel, r) <= bound + 1e-12
            # Near the origin the bound holds with equality up to O(x), so a
            # subnormal u' (rounded to fewer bits) may sit half an ulp above
            # it; linear space is checked only where u' is a normal double.
            up = eval_u_prime(wide_kernel, r)
            if math.isfinite(up) and up >= sys.float_info.min:
                assert math.log(up) <= bound + 1e-12

    def test_log_u_prime_finite_down_to_subnormal_radii(self, wide_kernel):
        grid = np.geomspace(1e-300, 20.0, 2001)
        log_up = eval_log_u_prime(wide_kernel, grid)
        assert np.all(np.isfinite(log_up))
        up = eval_u_prime(wide_kernel, grid)
        normal = np.isfinite(up) & (up >= sys.float_info.min)
        assert np.any(normal) and not np.all(normal)
        log_linear = np.log(up[normal])
        assert np.all(
            np.abs(log_up[normal] - log_linear) <= 1e-13 * np.abs(log_linear)
        )

    @pytest.mark.parametrize("r", [1e-300, 1e-105, 1e-80])
    def test_log_u_prime_leading_term_where_x_underflows(self, wide_kernel, r):
        # N=2, sigma=0.5: u' = r^3 / (sigma^4 (N+2)) (1 + O(x)) = 4 r^3
        expected = 3 * math.log(r) + math.log(4.0)
        assert eval_log_u_prime(wide_kernel, r) == pytest.approx(expected, rel=1e-13)

    @pytest.mark.parametrize("n,sigma", [(2, 0.5), (100, 2.0)])
    @pytest.mark.parametrize("s", [1e-30, 1e-5])
    def test_log_u_relative_precision_near_origin(self, n, sigma, s):
        # ln u = x/(N+2) + O(x^2): log1p of A - 1 keeps every digit, where
        # ln of A itself would round to 0
        kernel = build_kernel(ModelParams(n, sigma, 1.0), r_max=max(1.0, 2.0 * sigma))
        expected = s**4 / 4.0 / (n + 2)
        assert eval_log_u(kernel, s * sigma) == pytest.approx(expected, rel=1e-13, abs=0.0)

    def test_log_u_prime_origin_and_range(self, wide_kernel):
        assert eval_log_u_prime(wide_kernel, 0.0) == -math.inf
        for bad in (20.0000001, -1e-300, math.nan):
            with pytest.raises(ValueError):
                eval_log_u_prime(wide_kernel, bad)

    @given(
        lo=st.floats(min_value=0.0, max_value=14.0),
        span=st.floats(min_value=1e-3, max_value=3.0),
    )
    @settings(max_examples=150, deadline=None)
    def test_monotone_nondecreasing(self, wide_kernel, lo, span):
        hi = min(lo + span, 20.0)
        assert eval_u(wide_kernel, hi) >= eval_u(wide_kernel, lo)
        assert eval_u_prime(wide_kernel, hi) >= eval_u_prime(wide_kernel, lo)

    def test_convex_on_grid(self, std_kernel, wide_kernel):
        for kernel, hi in ((std_kernel, 1.0), (wide_kernel, 15.0)):
            grid = np.linspace(0.0, hi, 301)
            u = eval_u(kernel, grid)
            second = np.diff(u, 2)
            assert np.all(second >= -1e-12 * np.maximum(1.0, u[1:-1]))


class TestExpectedCost:
    def test_zero_at_boundary_exact(self, std_kernel):
        assert expected_optimal_cost(std_kernel, std_kernel.params.radius) == 0.0

    def test_from_origin(self, std_kernel):
        assert expected_optimal_cost(std_kernel, 0.0) == pytest.approx(
            COST_N2_SIGMA1_R1, rel=1e-13
        )

    def test_growth_bound_from_origin(self, std_kernel):
        p = std_kernel.params
        cap = p.radius**4 / (2 * p.sigma**2 * (p.n_goods + 2))
        assert 0.0 < expected_optimal_cost(std_kernel, 0.0) <= cap

    def test_decreasing_in_start_radius(self, std_kernel):
        grid = np.linspace(0.0, 1.0, 41)
        costs = expected_optimal_cost(std_kernel, grid)
        assert np.all(np.diff(costs) <= 0.0)
        assert np.all(costs >= 0.0)

    def test_start_beyond_boundary(self, std_kernel):
        with pytest.raises(ValueError, match="start beyond stopping boundary"):
            expected_optimal_cost(std_kernel, 1.2)
