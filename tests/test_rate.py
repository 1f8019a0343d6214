import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import polynomial as npoly

from hjb_planner import rate as rate_module
from hjb_planner import (
    ModelParams,
    build_kernel,
    build_rate,
    envelope,
    eval_u,
    eval_u_prime,
    feedback,
    rate_coeff,
    write_rate_table,
)

RHO_AT_1_N2_SIGMA1 = 0.24249961258080194  # sigma^2 u'(1)/(1*u(1)) by brute force


def exact_quotient_coeffs(n: int, count: int) -> list[Fraction]:
    """Division recursion in exact rational arithmetic."""
    a = [Fraction(1)]
    for j in range(1, count + 1):
        a.append(a[j - 1] / (j * (n + 4 * j - 2)))
    c = [Fraction(0)]
    for j in range(1, count + 1):
        conv = sum(c[j - i] * a[i] for i in range(1, j + 1))
        c.append(j * a[j] - conv)
    return c


class TestQuotientCoefficients:
    def test_leading_values_n2(self, std_rate):
        assert std_rate.c[0] == 0.0
        assert std_rate.c[1] == 0.25
        assert std_rate.c[2] == pytest.approx(-1 / 32, rel=1e-15)
        assert std_rate.c[3] == pytest.approx(1 / 192, rel=1e-14)

    @pytest.mark.parametrize("n", [1, 2, 4, 10, 100])
    def test_recursion_matches_exact_rationals(self, n):
        rate = build_rate(build_kernel(ModelParams(n, 1.0, 1.0)))
        exact = exact_quotient_coeffs(n, 30)
        assert rate.c[1] == pytest.approx(1.0 / (n + 2), rel=1e-15)
        for j in range(1, 31):
            assert rate.c[j] == pytest.approx(float(exact[j]), rel=1e-13)

    @pytest.mark.parametrize("n", [1, 2, 10, 100])
    def test_stored_floats_satisfy_recursion_pointwise(self, n):
        # single-step residual of the float identity c_j = b_j - conv
        rate = build_rate(build_kernel(ModelParams(n, 1.0, 1.0)))
        a = [1.0]
        for j in range(1, rate.c.size):
            a.append(a[j - 1] / (j * (n + 4 * j - 2)))
        a = np.asarray(a)
        for j in range(1, rate.c.size):
            terms = rate.c[j - 1 :: -1][:j] * a[1 : j + 1]
            residual = rate.c[j] - (j * a[j] - float(np.sum(terms)))
            # backward-error scale: the convolution cancels internally by
            # many orders of magnitude in the deep tail at large N
            scale = max(abs(rate.c[j]), j * a[j], float(np.sum(np.abs(terms))), 1e-300)
            assert abs(residual) <= 1e-13 * scale

    def test_breakdown_for_huge_trust_region(self, std_kernel):
        # far beyond the quotient's convergence radius the tail never decays
        with pytest.raises(RuntimeError, match="quotient series breakdown"):
            build_rate(std_kernel, x_switch=1e6)

    def test_rejects_bad_x_switch(self, std_kernel):
        with pytest.raises(ValueError):
            build_rate(std_kernel, x_switch=-0.5)


def test_riccati_node_cap_raises_with_achieved_rel(monkeypatch, std_kernel):
    # with a tiny cap the table stays unconverged and must not be accepted
    # silently: the stability rule starts at half the cap (8 steps) and the
    # one doubling it allows reaches the cap, 16 steps, 17 nodes
    monkeypatch.setattr(rate_module, "_RICCATI_START_NODES", 8)
    monkeypatch.setattr(rate_module, "_RICCATI_MAX_NODES", 16)
    with pytest.raises(RuntimeError, match="did not converge") as info:
        build_rate(std_kernel)
    message = str(info.value)
    assert message.endswith("17 nodes")
    rel = float(message.split("relative change ")[1].split()[0])
    assert math.isfinite(rel) and rel >= 1e-10


def test_riccati_node_cap_bounds_a_large_start(monkeypatch, std_kernel):
    # a start table at or above the cap is cut to half of it, so the finest
    # table integrated still has the cap's 16 steps
    monkeypatch.setattr(rate_module, "_RICCATI_MAX_NODES", 16)
    assert rate_module._riccati_start_steps(1e-6, 1.0, 1.0) == 8
    with pytest.raises(RuntimeError, match="did not converge") as info:
        build_rate(std_kernel)
    assert str(info.value).endswith("17 nodes")


class TestRateCoeff:
    def test_zero_at_origin_exact(self, std_rate, wide_rate):
        assert rate_coeff(std_rate, 0.0) == 0.0
        assert rate_coeff(wide_rate, 0.0) == 0.0

    def test_pinned_value_at_unit_radius(self, std_rate):
        assert rate_coeff(std_rate, 1.0) == pytest.approx(RHO_AT_1_N2_SIGMA1, rel=1e-12)

    @pytest.mark.parametrize("n,sigma", [(2, 1.0), (10, 0.5), (4, 2.0)])
    def test_small_radius_leading_order(self, n, sigma):
        rate = build_rate(build_kernel(ModelParams(n, sigma, 1e-3), r_max=2 * sigma))
        for r in (0.01 * sigma, 0.05 * sigma, 0.2 * sigma):
            lead = r**2 / (sigma**2 * (n + 2))
            x = r**4 / (4 * sigma**4)
            assert rate_coeff(rate, r) == pytest.approx(lead, rel=max(x, 1e-15))

    def test_matches_direct_kernel_ratio(self, std_kernel, std_rate):
        grid = np.linspace(0.05, 1.0, 60)
        direct = (
            std_kernel.params.sigma**2
            * eval_u_prime(std_kernel, grid)
            / (grid * eval_u(std_kernel, grid))
        )
        assert np.max(np.abs(rate_coeff(std_rate, grid) - direct) / direct) < 1e-12

    def test_series_and_fallback_paths_agree_on_overlap(self, wide_rate):
        # quotient series vs integrated logarithmic derivative across
        # [x_switch/2, x_switch]
        params = wide_rate.params
        x = np.linspace(wide_rate.x_switch / 2, wide_rate.x_switch, 41)
        r = (4.0 * params.sigma**4 * x) ** 0.25
        quotient = 4.0 * params.sigma**2 * npoly.polyval(x, wide_rate.c) / r**2
        fallback = params.sigma**2 * wide_rate._w_interp(r) / r
        assert np.max(np.abs(quotient - fallback) / fallback) < 1e-8

    def test_nondecreasing_and_capped(self, wide_rate):
        grid = np.linspace(0.0, 20.0, 2001)
        rho = rate_coeff(wide_rate, grid)
        assert np.all(np.diff(rho) >= -1e-12)
        assert np.all(rho <= 1.0 + 1e-12)
        assert np.all(rho >= 0.0)

    def test_below_envelope(self, wide_rate):
        grid = np.linspace(0.01, 20.0, 500)
        rho = rate_coeff(wide_rate, grid)
        env = envelope(wide_rate.params, grid)
        assert np.all(rho <= env * (1 + 1e-12))

    def test_approaches_one(self, wide_rate):
        # limit value 1, reached to 1e-3 by the largest certified radius
        rho_end = rate_coeff(wide_rate, 20.0)
        gap = 1.0 - envelope(wide_rate.params, 20.0)
        assert abs(rho_end - 1.0) <= 1e-3
        assert abs(rho_end - 1.0) <= 2.0 * gap

    def test_diffusion_rescaling_collapses_curves(self):
        # rho_sigma(r) = rho_1(r/sigma): the rate depends on r only through
        # r/sigma
        rate_1 = build_rate(build_kernel(ModelParams(2, 1.0, 1.0), r_max=4.0))
        rate_2 = build_rate(build_kernel(ModelParams(2, 2.0, 1.0), r_max=8.0))
        r = np.linspace(0.1, 4.0, 25)
        lhs = rate_coeff(rate_2, 2.0 * r)
        rhs = rate_coeff(rate_1, r)
        assert np.max(np.abs(lhs - rhs) / rhs) < 1e-9

    def test_decreasing_in_goods_count(self):
        values = []
        for n in (2, 10, 100):
            rate = build_rate(build_kernel(ModelParams(n, 0.5, 1.0), r_max=1.0))
            values.append(rate_coeff(rate, 1.0))
        assert values[0] > values[1] > values[2]
        # O(1/N) order check: N * rho_N stays bounded (its large-N limit at
        # r=1, sigma=0.5 is 4 sigma^2 x N c_1 -> 4)
        assert all(n * v <= 4.5 for n, v in zip((2, 10, 100), values))

    def test_outside_certified_range(self, std_rate):
        with pytest.raises(ValueError, match="outside certified range"):
            rate_coeff(std_rate, 1.5)
        with pytest.raises(ValueError, match="outside certified range"):
            rate_coeff(std_rate, -0.01)
        with pytest.raises(ValueError, match="outside certified range"):
            rate_coeff(std_rate, math.inf)

    def test_bitwise_equal_to_polyval_and_table(self, wide_rate):
        # the in-place Horner must give npoly.polyval's bits, on an array
        # that mixes r = 0, the series range and the table's tail, on an
        # all-series array and point by point
        sigma2 = wide_rate.params.sigma ** 2
        r_switch = (4.0 * sigma2 * sigma2 * wide_rate.x_switch) ** 0.25
        grid = np.concatenate([
            [0.0, r_switch, wide_rate.r_max],
            np.linspace(0.0, wide_rate.r_max, 2001),
            np.geomspace(1e-300, r_switch, 200),
        ])
        x = grid**4 / (4.0 * sigma2 * sigma2)
        series = x <= wide_rate.x_switch
        expected = np.zeros(grid.shape)
        expected[series] = grid[series] ** 2 / sigma2 * npoly.polyval(
            x[series], wide_rate.c[1:]
        )
        tail = ~series
        expected[tail] = sigma2 * wide_rate._w_interp(grid[tail]) / grid[tail]
        assert series.any() and tail.any()
        assert np.array_equal(rate_coeff(wide_rate, grid), expected)
        assert np.array_equal(rate_coeff(wide_rate, grid[series]), expected[series])
        pointwise = [rate_coeff(wide_rate, float(v)) for v in grid[::7]]
        assert np.array_equal(pointwise, expected[::7])

    @pytest.mark.parametrize(
        "bad,message",
        [
            (math.nan, "non-finite"),
            (math.inf, "non-finite"),
            (-math.inf, "non-finite"),
            (-5e-324, r"\[0, 1.0\]"),
            (np.nextafter(1.0, 2.0), r"\[0, 1.0\]"),
        ],
    )
    def test_one_bad_entry_in_array_raises(self, std_rate, bad, message):
        for where in (0, 17, 63):
            r = np.linspace(0.0, 1.0, 64)
            r[where] = bad
            with pytest.raises(ValueError, match="outside certified range") as info:
                rate_coeff(std_rate, r)
            assert info.match(message)


class TestFeedback:
    def test_zero_state(self, std_rate):
        control = feedback(std_rate, np.zeros(2))
        assert np.array_equal(control.p, np.zeros(2))

    def test_pinned_example(self, std_rate):
        control = feedback(std_rate, [0.6, 0.8])  # |y| = 1
        expected = rate_coeff(std_rate, 1.0) * np.asarray([0.6, 0.8])
        assert np.array_equal(control.p, expected)

    def test_rate_identical_across_goods(self, std_rate):
        y = np.asarray([0.3, -0.4])
        ratios = feedback(std_rate, y).p / y
        assert ratios[0] == pytest.approx(ratios[1], rel=1e-15)
        doubled = feedback(std_rate, 2 * y).p / (2 * y)
        assert doubled[0] == pytest.approx(doubled[1], rel=1e-15)

    @given(
        st.lists(
            st.floats(min_value=-0.5, max_value=0.5, allow_nan=False),
            min_size=2,
            max_size=2,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_feedback_is_rate_times_state(self, std_rate, y):
        y = np.asarray(y)
        control = feedback(std_rate, y)
        r = float(np.linalg.norm(y))
        expected = np.zeros(2) if r == 0.0 else rate_coeff(std_rate, r) * y
        assert np.array_equal(control.p, expected)
        assert float(control.p @ y) >= 0.0  # control never points inward

    def test_invalid_states(self, std_rate):
        with pytest.raises(ValueError, match="invalid inventory state"):
            feedback(std_rate, [np.nan, 0.0])
        with pytest.raises(ValueError, match="invalid inventory state"):
            feedback(std_rate, [0.1, 0.2, 0.3])


def test_rate_table_export(tmp_path, std_rate):
    out = tmp_path / "rate.csv"
    grid = np.linspace(0.0, 1.0, 5)
    write_rate_table(std_rate, grid, out)
    lines = out.read_text().splitlines()
    assert lines[0] == "r,rate"
    assert len(lines) == 6
    r0, rho0 = lines[1].split(",")
    assert float(r0) == 0.0 and float(rho0) == 0.0
    assert float(lines[-1].split(",")[1]) == rate_coeff(std_rate, 1.0)
