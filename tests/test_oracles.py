import warnings
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from hjb_planner import (
    BoundViolation,
    ModelParams,
    build_kernel,
    check_bounds,
    eval_u,
    max_rel_diff,
    ode_solve,
    picard_solve,
    picard_step_bound,
    verify_exact_4d,
)
from hjb_planner import oracles
from hjb_planner.oracles import quotient_coeffs, riccati_rate
from hjb_planner.sweep import _corrupt

GRID = np.linspace(0.0, 1.0, 200)


class TestPicard:
    def test_first_iterate_exact_form(self):
        # with a large stopping tol the returned limit is the first iterate
        # alpha (1 + r^4 / (4 sigma^4 (N+2)))
        p = ModelParams(2, 1.0, 1.0)
        got = picard_solve(p, GRID, tol=0.1)
        assert len(got.sup_diffs) == 1
        assert got.refinement_level >= 4  # two extrapolations to compare
        expected = 1.0 + GRID**4 / 16.0
        assert max_rel_diff(got.values, expected) < 1e-9

    def test_iterates_nondecreasing(self):
        p = ModelParams(2, 1.0, 1.0)
        got = picard_solve(p, GRID)
        assert all(d >= 0.0 for d in got.sup_diffs)
        assert np.all(got.values >= 1.0)

    def test_successive_differences_under_factorial_bound(self):
        p = ModelParams(2, 1.0, 1.0)
        got = picard_solve(p, GRID)
        for k, measured in enumerate(got.sup_diffs):
            bound = picard_step_bound(p, 1.0, k)
            assert measured <= bound * (1 + 1e-9)

    def test_agrees_with_series(self, std_kernel):
        got = picard_solve(ModelParams(2, 1.0, 1.0), GRID)
        assert max_rel_diff(got.values, eval_u(std_kernel, GRID)) < 1e-8

    @pytest.mark.parametrize("n", [1, 2, 4, 10, 100])
    def test_richardson_stops_early_and_matches_series(self, n):
        # plain trapezoid needs level 12-14 on these cells for 1e-10
        p = ModelParams(n, 0.5, 2.0)
        grid = np.linspace(0.0, 2.0, 200)
        got = picard_solve(p, grid)
        assert got.refinement_level <= 8
        assert max_rel_diff(got.values, eval_u(build_kernel(p, r_max=2.0), grid)) < 1e-10

    def test_refinement_failure_names_gap_and_level(self):
        with pytest.raises(RuntimeError, match="did not reach self-consistency") as info:
            picard_solve(ModelParams(2, 1.0, 1.0), np.linspace(0.0, 1.0, 10), quad_tol=1e-30)
        message = str(info.value)
        gap = float(message.split("best relative gap ")[1].split(",")[0])
        assert 0.0 <= gap < 1e-10
        assert message.endswith("last level 14")

    def test_not_converged_error(self):
        with pytest.raises(RuntimeError, match="Picard not converged"):
            picard_solve(ModelParams(1, 0.5, 2.0), np.linspace(0, 2, 50), k_max=2)

    def test_grid_validation(self):
        p = ModelParams(2, 1.0, 1.0)
        with pytest.raises(ValueError):
            picard_solve(p, np.asarray([0.5, 1.0]))  # must start at 0
        with pytest.raises(ValueError):
            picard_solve(p, np.asarray([0.0, 0.5, 0.5]))  # not strictly increasing
        with pytest.raises(ValueError):
            picard_solve(p, np.linspace(0, 2, 10))  # beyond the radius


class TestOdeSolve:
    def test_matches_series_and_initial_conditions(self, std_kernel):
        got = ode_solve(ModelParams(2, 1.0, 1.0), 1.0, grid=GRID)
        assert got.values[0] == 1.0
        assert got.refinement_level is None
        assert max_rel_diff(got.values, eval_u(std_kernel, GRID)) < 1e-8
        # flat at the origin: the first grid step gains only O(h^4), at the
        # integrator's absolute noise floor
        h = GRID[1]
        assert got.values[1] - 1.0 == pytest.approx(h**4 / 16.0, rel=0.05)

    def test_numerically_convex(self):
        got = ode_solve(ModelParams(4, 1.0, 1.0), 1.5, grid=np.linspace(0, 1.5, 150))
        second = np.diff(got.values, 2)
        assert np.all(second >= -1e-12 * np.maximum(1.0, got.values[1:-1]))

    def test_overflow_range_refused(self):
        with pytest.raises(RuntimeError, match="direct integration range exceeded"):
            ode_solve(ModelParams(2, 0.5, 1.0), 20.0)

    def test_cross_matches_series(self):
        # the 40 cells of criterion 1, held far tighter than its 1e-8
        worst = 0.0
        for n in (1, 2, 4, 10, 100):
            for sigma in (0.5, 1.0, 2.0, 5.0):
                for radius in (1.0, 2.0):
                    params = ModelParams(n, sigma, radius)
                    grid = np.linspace(0.0, radius, 200)
                    series = eval_u(build_kernel(params, r_max=radius), grid)
                    got = ode_solve(params, radius, grid=grid)
                    worst = max(worst, max_rel_diff(got.values, series))
        assert worst <= 5e-11

    @pytest.mark.parametrize("n", [300, 1000])
    def test_large_n_matches_series(self, n):
        for sigma in (0.5, 1.0, 2.0):
            params = ModelParams(n, sigma, 1.0)
            grid = np.linspace(0.0, 1.0, 200)
            series = eval_u(build_kernel(params, r_max=1.0), grid)
            got = ode_solve(params, 1.0, grid=grid)
            assert max_rel_diff(got.values, series) <= 1e-13

    @pytest.mark.parametrize("n,sigma", [(2, 1.0), (100, 0.5), (1000, 2.0)])
    def test_head_is_the_four_term_series(self, n, sigma):
        # a_j / a_(j-1) = 1/(j (N + 4j - 2)); r0 is where a_4 x^4 and
        # 4 a_4 x^3 / a_1 reach 1e-18, here below the r_max/2 cap
        a = [1.0]
        for j in range(1, 5):
            a.append(a[-1] / (j * (n + 4 * j - 2)))
        x0 = min((1e-18 / a[4]) ** 0.25, (1e-18 * a[1] / (4 * a[4])) ** (1 / 3))
        r0 = sigma * (4.0 * x0) ** 0.25
        r_max = 4.0 * r0
        grid = np.concatenate([[0.0, 1e-300, 1e-150], np.linspace(r0 / 50, r_max, 200)])
        got = ode_solve(ModelParams(n, sigma, r_max), r_max, grid=grid)
        head = grid <= r0
        assert got.series_points == np.count_nonzero(head) > 3
        x = grid[head] ** 4 / (4.0 * sigma**4)
        expected = a[0] + a[1] * x + a[2] * x**2 + a[3] * x**3
        np.testing.assert_allclose(got.values[head], expected, rtol=4e-16, atol=0.0)
        assert got.values[1] == got.values[2] == 1.0
        assert np.all(np.isfinite(got.values))
        assert got.nfev > 0

    def test_start_capped_at_half_range(self):
        # uncapped, the start radius here is about 0.8
        grid = np.linspace(0.0, 1.0, 201)
        got = ode_solve(ModelParams(100, 5.0, 1.0), 1.0, grid=grid)
        assert got.series_points == np.count_nonzero(grid <= 0.5) == 101
        assert got.nfev > 0

    def test_origin_only_grid(self):
        got = ode_solve(ModelParams(2, 1.0, 1.0), 1.0, grid=[0.0])
        assert got.values.tolist() == [1.0]
        assert got.nfev == 0
        assert got.series_points == 1

    @pytest.mark.parametrize("step_tol", [0.0, -1.0, np.nan, np.inf, 2e-14])
    def test_step_tol_below_floor_refused(self, step_tol):
        with pytest.raises(ValueError, match="2.220e-14"):
            ode_solve(ModelParams(2, 1.0, 1.0), 1.0, step_tol=step_tol)

    def test_step_tol_at_floor_accepted(self):
        floor = 100 * np.finfo(float).eps
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # scipy warns when it clamps rtol
            got = ode_solve(ModelParams(2, 1.0, 1.0), 1.0, step_tol=floor, grid=GRID)
        default = ode_solve(ModelParams(2, 1.0, 1.0), 1.0, grid=GRID)
        assert got.nfev > default.nfev

    def test_observability_fields(self):
        got = ode_solve(ModelParams(2, 1.0, 1.0), 1.0, grid=GRID)
        assert 0 < got.series_points < GRID.size
        assert got.nfev > 0
        picard = picard_solve(ModelParams(2, 1.0, 1.0), GRID)
        assert picard.nfev is None and picard.series_points is None


class TestExact4d:
    @pytest.mark.parametrize("sigma", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("which", ["growing", "decaying"])
    def test_residual_at_rounding_level(self, sigma, which):
        residual = verify_exact_4d(sigma, which, np.linspace(0.1, 3.0, 200))
        assert residual <= 1e-9

    def test_single_point(self):
        assert verify_exact_4d(1.0, "growing", np.asarray([1.0])) <= 1e-12

    def test_decaying_branch_positive_and_decreasing_far_out(self):
        sigma = 1.5
        grid = np.linspace(2 * sigma, 6 * sigma, 50)
        u = np.exp(-(grid**2) / (2 * sigma**2)) / grid**2
        assert np.all(u > 0.0)
        assert np.all(np.diff(u) < 0.0)
        assert verify_exact_4d(sigma, "decaying", grid) <= 1e-9

    def test_validation(self):
        with pytest.raises(ValueError):
            verify_exact_4d(1.0, "sideways", np.asarray([1.0]))
        with pytest.raises(ValueError):
            verify_exact_4d(1.0, "growing", np.asarray([0.0, 1.0]))


class TestCheckBounds:
    def test_std_kernel_all_margins_hold(self, std_kernel):
        report = check_bounds(std_kernel, GRID)
        assert report.ok
        assert report.min_margin >= -1e-12
        # origin rows: equality for the kernel bound, full slack for the cap
        origin = {name: m for r, name, m in report.rows if r == 0.0}
        assert origin["kernel_growth"] == 0.0
        assert origin["rate_sigma_bound"] == 1.0

    def test_large_n_small_sigma(self):
        kernel = build_kernel(ModelParams(100, 0.5, 2.0), r_max=2.0)
        report = check_bounds(kernel, np.linspace(0.0, 2.0, 200))
        assert report.ok

    def test_wide_range(self, wide_kernel):
        report = check_bounds(wide_kernel, np.linspace(0.0, 20.0, 400))
        assert report.ok

    def test_slope_margin_where_x_underflows(self, wide_kernel):
        # x = r^4/(4 sigma^4) is subnormal or 0 here; ln x must come from
        # ln r, else ln u' is off or -inf and the slope margin is spurious
        report = check_bounds(wide_kernel, [0.0, 1e-105, 9.63295e-81, 1.0])
        assert report.ok
        # the bound is tight to O(x) there; r = 1 (x = 4) has real slack
        slope = {r: m for r, name, m in report.rows if name == "kernel_slope_growth"}
        assert abs(slope[1e-105]) <= 1e-12
        assert abs(slope[9.63295e-81]) <= 1e-12
        assert slope[1.0] > 0.0

    def test_corrupted_kernel_flagged(self, std_kernel):
        with pytest.raises(BoundViolation, match="bound violation"):
            check_bounds(_corrupt(std_kernel), GRID)
        try:
            check_bounds(_corrupt(std_kernel), GRID)
        except BoundViolation as exc:
            assert not exc.report.ok
            assert exc.report.worst_bound in {
                "rate_envelope",
                "rate_sigma_bound",
                "kernel_growth",
                "kernel_slope_growth",
            }

    def test_report_csv(self, tmp_path, std_kernel):
        report = check_bounds(std_kernel, np.linspace(0.0, 1.0, 5))
        out = tmp_path / "bounds.csv"
        report.write_csv(out)
        lines = out.read_text().splitlines()
        assert lines[0] == "r,bound_name,margin"
        assert len(lines) == 1 + 4 * 5


def test_max_rel_diff():
    assert max_rel_diff([1.0, 2.0], [1.0, 2.0]) == 0.0
    assert max_rel_diff([2.0], [1.0]) == pytest.approx(0.5)
    assert max_rel_diff([0.0], [1e-12]) == pytest.approx(1e-12)


def test_picard_step_bound_values():
    p = ModelParams(2, 1.0, 1.0)
    assert picard_step_bound(p, 1.0, 0) == pytest.approx(1 / 16, rel=1e-15)
    assert picard_step_bound(p, 1.0, 1) == pytest.approx(1 / 512, rel=1e-15)
    assert picard_step_bound(p, 0.0, 3) == 0.0


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
    def test_leading_values_n2(self):
        c = quotient_coeffs(2, 40)
        assert c.size == 41
        assert c[0] == 0.0
        assert c[1] == 0.25
        assert c[2] == pytest.approx(-1 / 32, rel=1e-15)
        assert c[3] == pytest.approx(1 / 192, rel=1e-14)

    @pytest.mark.parametrize("n", [1, 2, 4, 10, 100])
    def test_recursion_matches_exact_rationals(self, n):
        c = quotient_coeffs(n, 40)
        exact = exact_quotient_coeffs(n, 30)
        assert c[1] == pytest.approx(1.0 / (n + 2), rel=1e-15)
        for j in range(1, 31):
            assert c[j] == pytest.approx(float(exact[j]), rel=1e-13)

    @pytest.mark.parametrize("n", [1, 2, 10, 100])
    def test_stored_floats_satisfy_recursion_pointwise(self, n):
        # single-step residual of the float identity c_j = b_j - conv
        c = quotient_coeffs(n, 40)
        a = [1.0]
        for j in range(1, c.size):
            a.append(a[j - 1] / (j * (n + 4 * j - 2)))
        a = np.asarray(a)
        for j in range(1, c.size):
            terms = c[j - 1 :: -1][:j] * a[1 : j + 1]
            residual = c[j] - (j * a[j] - float(np.sum(terms)))
            # backward-error scale: the convolution cancels internally by
            # many orders of magnitude in the deep tail at large N
            scale = max(abs(c[j]), j * a[j], float(np.sum(np.abs(terms))), 1e-300)
            assert abs(residual) <= 1e-13 * scale


def test_solver_failure_raises_with_its_message(monkeypatch, wide_params):
    def failing_solve_ivp(*args, **kwargs):
        return SimpleNamespace(success=False, message="stub: step size too small")

    monkeypatch.setattr(oracles, "solve_ivp", failing_solve_ivp)
    with pytest.raises(
        RuntimeError,
        match="logarithmic-derivative integration failed: stub: step size too small",
    ):
        riccati_rate(wide_params, np.linspace(1.0, 20.0, 5))
