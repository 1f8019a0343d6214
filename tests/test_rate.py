import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.polynomial import polynomial as npoly

from hjb_planner import series as series_module
from hjb_planner import (
    ModelParams,
    build_kernel,
    build_rate,
    envelope,
    eval_log_u,
    eval_log_u_prime,
    eval_u,
    eval_u_prime,
    feedback,
    rate_coeff,
    write_rate_table,
)
from hjb_planner.oracles import bessel_rate
from hjb_planner.rate import rate_table_chunks
from hjb_planner.series import HORNER_X_MAX, _horner, _log_sums

RHO_AT_1_N2_SIGMA1 = 0.24249961258080194  # sigma^2 u'(1)/(1*u(1)) by brute force


def horner_rho(rate, s):
    """s^2 B/A from the kernel-sum core's Horner sums."""
    t, b = _horner(rate, np.power(s, 4.0) / 4.0)
    return s * s * b / (t + 1.0)


def log_space_rho(rate, s):
    """(4/s^2) sum_j j w_j / sum_j w_j from the core's normalized weights,
    in the operation order rate_coeff uses."""
    _, s0, s1 = _log_sums(rate.log_a, 4.0 * np.log(s) - math.log(4.0))
    return s1 / s0 * 4.0 / (s * s)


class TestRateCoeff:
    def test_build_rate_is_the_kernel(self, std_kernel):
        assert build_rate(std_kernel) is std_kernel
        assert std_kernel.x_switch == HORNER_X_MAX
        assert std_kernel.riccati_r.size == 0

    def test_zero_at_origin_exact(self, std_rate, wide_rate):
        assert rate_coeff(std_rate, 0.0) == 0.0
        assert rate_coeff(wide_rate, 0.0) == 0.0

    def test_pinned_value_at_unit_radius(self, std_rate):
        assert rate_coeff(std_rate, 1.0) == pytest.approx(RHO_AT_1_N2_SIGMA1, rel=1e-12)
        assert bessel_rate(std_rate.params, 1.0) == RHO_AT_1_N2_SIGMA1

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
        # Horner and log-space branches on the same s across
        # [x_switch/2, 2 x_switch], where either can be trusted
        x = np.linspace(wide_rate.x_switch / 2, 2.0 * wide_rate.x_switch, 81)
        s = (4.0 * x) ** 0.25
        horner = horner_rho(wide_rate, s)
        log_space = log_space_rho(wide_rate, s)
        assert np.max(np.abs(horner - log_space) / log_space) <= 1e-13

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
        # paper claim (b): rho depends on N and r/sigma only, not on sigma
        # or R apart from that, bit for bit over the default sweep
        grid = np.linspace(0.0, 4.0, 81)
        for n, sigma in itertools.product((2, 10, 100), (0.5, 1.0, 2.0)):
            rate = build_rate(build_kernel(ModelParams(n, sigma, 4.0), r_max=4.0))
            unit = build_rate(build_kernel(ModelParams(n, 1.0, 1.0), r_max=4.0 / sigma))
            assert np.array_equal(rate_coeff(rate, grid), rate_coeff(unit, grid / sigma))

    def test_decreasing_in_goods_count(self):
        # strictly decreasing in N at every r > 0 of the default sweep
        grid = np.linspace(0.0, 4.0, 81)
        for sigma in (0.5, 1.0, 2.0):
            rho = np.array([
                rate_coeff(build_rate(build_kernel(ModelParams(n, sigma, 4.0), r_max=4.0)), grid)
                for n in (2, 10, 100)
            ])
            assert np.all(rho[:, 0] == 0.0) and np.all(np.diff(rho[:, 1:], axis=0) < 0.0)
        values = []
        for n in (2, 10, 100):
            rate = build_rate(build_kernel(ModelParams(n, 0.5, 1.0), r_max=1.0))
            values.append(rate_coeff(rate, 1.0))
        assert values[0] > values[1] > values[2]
        # O(1/N) order check: N * rho_N stays bounded (its large-N limit at
        # r=1, sigma=0.5 is 4 sigma^2 x N c_1 -> 4)
        assert all(n * v <= 4.5 for n, v in zip((2, 10, 100), values))

    def test_each_added_good_lowers_the_closed_form_rate(self):
        # I_(nu+1)/I_nu decreases in the order nu = (N-2)/4: over N = 1..300
        # each step to N+1 lowers rho by at least 0.3% (measured 0.305%)
        s = np.geomspace(1e-3, 8.0, 3000)
        prev = bessel_rate(ModelParams(1, 1.0, 1.0), s)
        for n in range(2, 301):
            rho = bessel_rate(ModelParams(n, 1.0, 1.0), s)
            assert np.all(rho <= (1.0 - 3e-3) * prev), n
            prev = rho

    def test_envelope_is_amos_upper_bound(self):
        # envelope = z/(nu + 1/2 + sqrt(z^2 + (nu+1/2)^2)), z = s^2/2,
        # nu = (N-2)/4 (Amos, Math. Comp. 28, 1974)
        r = np.geomspace(1e-3, 20.0, 500)
        for n, sigma in itertools.product((1, 2, 10, 1000), (0.5, 2.0)):
            z = (r / sigma) ** 2 / 2.0
            amos = z / (n / 4.0 + np.hypot(z, n / 4.0))
            env = envelope(ModelParams(n, sigma, 1.0), r)
            assert np.max(np.abs(env - amos) / amos) < 1e-15

    @pytest.mark.parametrize(
        "r,named",
        [
            (math.nan, "nan"),
            (-1.0, "-1.0"),
            (math.inf, "inf"),
            (-0.5e-323, "-5e-324"),
            ([0.0, 1.0, math.nan], "nan"),
            (np.array([0.5, -2.0, math.inf]), "-2.0"),
            ([[0.0, -math.inf]], "-inf"),
        ],
        ids=["nan", "negative", "inf", "neg-subnormal", "array-nan", "array-first", "2d-neg-inf"],
    )
    def test_envelope_refuses_bad_radii(self, r, named, std_rate, tmp_path):
        # scalar and array radii alike, also as one row of a 2-d envelope
        # and as a rate table's grid; the first bad value is named and no
        # table is written
        reason = rf"radii must be finite and >= 0, got r = {named}$"
        out = tmp_path / "rate.csv"
        for refused in (
            lambda: envelope(ModelParams(2, 1.0, 1.0), r),
            lambda: envelope(ModelParams(2, 1.0, 1.0), np.reshape(r, (1, -1))),
            lambda: write_rate_table(std_rate, np.ravel(r), out),
        ):
            with pytest.raises(ValueError, match=reason):
                refused()
        assert not out.exists()

    def test_envelope_keeps_shape_and_origin(self):
        params = ModelParams(2, 1.0, 1.0)
        assert envelope(params, 0.0) == 0.0 and isinstance(envelope(params, 0.0), float)
        grid = np.array([[0.0, 1.0], [2.0, 0.5]])
        assert envelope(params, grid).shape == (2, 2)
        assert envelope(params, grid)[0, 0] == 0.0

    def test_outside_certified_range(self, std_rate):
        with pytest.raises(ValueError, match="outside certified range"):
            rate_coeff(std_rate, 1.5)
        with pytest.raises(ValueError, match="outside certified range"):
            rate_coeff(std_rate, -0.01)
        with pytest.raises(ValueError, match="outside certified range"):
            rate_coeff(std_rate, math.inf)

    def test_bitwise_equal_to_polyval_and_table(self, wide_rate):
        # the in-place Horner must give s^2 polyval(x, b[1:]) / polyval(x, a)
        # bit for bit, on an array that mixes r = 0, the Horner range and
        # the log-space tail, on an all-Horner array and point by point;
        # tail points must not depend on the other points of the call
        sigma = wide_rate.params.sigma
        r_switch = sigma * (4.0 * wide_rate.x_switch) ** 0.25
        grid = np.concatenate([
            [0.0, r_switch, wide_rate.r_max],
            np.linspace(0.0, wide_rate.r_max, 2001),
            np.geomspace(1e-300, r_switch, 200),
        ])
        s = grid / sigma
        x = s**4 / 4.0
        near = x <= wide_rate.x_switch
        expected = np.zeros(grid.shape)
        expected[near] = (
            s[near] ** 2
            * npoly.polyval(x[near], wide_rate.b[1:])
            / npoly.polyval(x[near], wide_rate.c)
        )
        tail = ~near
        expected[tail] = log_space_rho(wide_rate, s[tail])
        assert near.any() and tail.any()
        assert np.array_equal(rate_coeff(wide_rate, grid), expected)
        assert np.array_equal(rate_coeff(wide_rate, grid[near]), expected[near])
        pointwise = [rate_coeff(wide_rate, float(v)) for v in grid[::7]]
        assert np.array_equal(pointwise, expected[::7])

    @pytest.mark.parametrize("side", [-1, 1])
    def test_r_max_one_ulp_either_side_of_the_switch(self, side, monkeypatch):
        # the log-space branch runs exactly when some certified r reaches it,
        # and the two branches meet there to rounding
        sigma = 0.5

        def past_switch(r):
            return np.power(r / sigma, 4.0) / 4.0 > HORNER_X_MAX

        r_edge = sigma * (4.0 * HORNER_X_MAX) ** 0.25
        while past_switch(r_edge):
            r_edge = np.nextafter(r_edge, 0.0)
        while not past_switch(np.nextafter(r_edge, 1.0)):
            r_edge = np.nextafter(r_edge, 1.0)
        r_max = float(r_edge if side < 0 else np.nextafter(r_edge, 1.0))
        rate = build_rate(build_kernel(ModelParams(2, sigma, 0.5), r_max=r_max))
        calls = []
        log_sums = series_module._log_sums

        def counted(log_a, log_x):
            calls.append(log_x.size)
            return log_sums(log_a, log_x)

        monkeypatch.setattr(series_module, "_log_sums", counted)
        grid = np.linspace(0.0, r_max, 33)
        rho = rate_coeff(rate, grid)
        assert (calls == [1]) == (side > 0) and (calls == []) == (side < 0)
        assert np.all(np.isfinite(rho)) and np.all(np.diff(rho) >= 0.0)
        assert rate_coeff(rate, r_max) == rho[-1]
        s_max = np.asarray([r_max / sigma])
        horner = horner_rho(rate, s_max)
        assert rho[-1] == pytest.approx(horner[0], rel=1e-13)

    @pytest.mark.parametrize(
        "n,sigma,r_max,points",
        [(n, sigma, 4.0 * sigma, 400) for n in (1, 2, 10, 100, 1000) for sigma in (0.5, 2.0)]
        + [(1, 1.0, 80.0, 200)],
    )
    def test_tail_matches_log_space_kernel_ratio(self, n, sigma, r_max, points):
        # independent routes: the log-space kernel series and the Bessel
        # oracle share no code with the rate's series ratio
        kernel = build_kernel(ModelParams(n, sigma, 1.0), r_max=r_max)
        rate = build_rate(kernel)
        r_switch = sigma * (4.0 * rate.x_switch) ** 0.25
        r = np.linspace(r_switch, r_max, points)[1:]
        direct = sigma**2 * np.exp(eval_log_u_prime(kernel, r) - eval_log_u(kernel, r)) / r
        rho = rate_coeff(rate, r)
        assert np.max(np.abs(rho - direct) / direct) < 1e-12
        closed_form = bessel_rate(kernel.params, r)
        assert np.max(np.abs(closed_form - direct) / direct) < 1e-12
        assert np.max(np.abs(closed_form - rho) / rho) < 1e-12

    @pytest.mark.xfail(
        strict=True,
        reason="build_kernel stops once the first omitted term is below 1e-15 of "
        "A ~ 1, but rho ~ s^2/(N+2) is itself small here: 1.5e-8 relative off",
    )
    def test_small_range_at_many_goods_matches_closed_form(self):
        kernel = build_kernel(ModelParams(100, 1.0, 0.05), r_max=0.05)
        r = np.linspace(0.0, 0.05, 41)[1:]
        rho = rate_coeff(build_rate(kernel), r)
        assert np.max(np.abs(rho - bessel_rate(kernel.params, r)) / rho) < 1e-12

    @given(
        n=st.integers(min_value=1, max_value=2000),
        sigma=st.floats(min_value=0.25, max_value=4.0),
        log10_x_max=st.floats(min_value=-3.0, max_value=4.0),
        log_fractions=st.lists(st.floats(min_value=0.0, max_value=1.0), max_size=16),
        fractions=st.lists(st.floats(min_value=0.0, max_value=1.0), max_size=16),
    )
    @example(n=1, sigma=0.25, log10_x_max=4.0, log_fractions=[0.0, 0.5], fractions=[0.01, 0.5])
    @example(n=2000, sigma=4.0, log10_x_max=4.0, log_fractions=[0.0, 0.49], fractions=[0.0])
    @example(n=2, sigma=1.0, log10_x_max=0.0, log_fractions=[0.4836, 0.99], fractions=[1.0])
    @settings(max_examples=60, deadline=None)
    def test_property_over_the_domain(self, n, sigma, log10_x_max, log_fractions, fractions):
        # radii from 1e-300 sigma to r_max: log-uniform ones reach the
        # subnormal range of rho, linear ones cover both sides of the split
        s_max = (4.0 * 10.0**log10_x_max) ** 0.25
        r_max = sigma * s_max
        params = ModelParams(n, sigma, r_max)
        kernel = build_kernel(params, r_max=r_max)
        rate = build_rate(kernel)
        exponents = -300.0 + np.asarray(log_fractions) * (300.0 + math.log10(s_max))
        r = np.unique(np.concatenate([
            sigma * 10.0**exponents,
            r_max * np.asarray(fractions),
            [r_max, sigma * 2.0**0.5],
        ]))
        r = r[(r >= 1e-300 * sigma) & (r <= r_max)]
        rho = rate_coeff(rate, r)
        # relative checks, floored at the smallest normal double where rho
        # itself is subnormal and carries only a few significant bits
        tiny = np.finfo(float).tiny

        def slack(v, rel):
            return rel * np.maximum(v, tiny)

        assert np.all(np.isfinite(rho)) and np.all(rho >= 0.0)
        env = envelope(params, r)
        assert np.all(rho <= env + slack(env, 1e-12))
        assert np.all(np.diff(rho) >= -slack(rho[1:], 1e-13))
        direct = sigma**2 * np.exp(
            eval_log_u_prime(kernel, r) - eval_log_u(kernel, r) - np.log(r)
        )
        assert np.all(np.abs(rho - direct) <= slack(direct, 1e-12))

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
            assert info.match("r = " + re.escape(repr(float(bad))))


class TestFeedback:
    def test_zero_state(self, std_rate):
        assert np.array_equal(feedback(std_rate, np.zeros(2)), np.zeros(2))

    def test_pinned_example(self, std_rate):
        control = feedback(std_rate, [0.6, 0.8])  # |y| = 1
        expected = rate_coeff(std_rate, 1.0) * np.asarray([0.6, 0.8])
        assert np.array_equal(control, expected)

    def test_rate_identical_across_goods(self, std_rate):
        y = np.asarray([0.3, -0.4])
        ratios = feedback(std_rate, y) / y
        assert ratios[0] == pytest.approx(ratios[1], rel=1e-15)
        doubled = feedback(std_rate, 2 * y) / (2 * y)
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
        assert np.array_equal(control, expected)
        assert float(control @ y) >= 0.0  # control never points inward

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


def test_rate_table_grid_shapes(tmp_path, std_rate):
    # a scalar is one point; a grid of more than one dimension is refused
    # before any file is made, not paired row by row
    assert "".join(rate_table_chunks(std_rate, 0.5)) == (
        f"r,rate\n0.5,{rate_coeff(std_rate, 0.5):.17g}\n"
    )
    out = tmp_path / "sub" / "rate.csv"
    with pytest.raises(ValueError, match=r"one-dimensional, got shape \(2, 2\)"):
        write_rate_table(std_rate, [[0.0, 0.5], [1.0, 2.0]], out)
    with pytest.raises(ValueError, match=r"one-dimensional, got shape \(1, 3\)"):
        rate_table_chunks(std_rate, [[0.0, 0.5, 1.0]])
    assert not (tmp_path / "sub").exists()
