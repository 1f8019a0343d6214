import dataclasses
import math
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest
import scipy.integrate

from hjb_planner import (
    BoundViolation,
    ModelParams,
    build_kernel,
    check_bounds,
    eval_u,
    max_rel_diff,
    ode_solve,
    oracles,
    picard_solve,
    picard_step_bound,
    verify_exact_4d,
)
from hjb_planner.oracles import bessel_rate, quotient_coeffs

GRID = np.linspace(0.0, 1.0, 200)
# grids with a non-finite point, and the refusal naming it
NONFINITE_GRIDS = [
    ([0.0, math.nan, 1.0], "nan at index 1"),
    ([0.0, 0.5, math.nan], "nan at index 2"),
    ([0.0, 0.5, math.inf], "inf at index 2"),
]


def _series_start(n, sigma):
    """ode_solve's a_0..a_4 and its r0 below the r_max/2 cap:
    a_j / a_(j-1) = 1/(j (N + 4j - 2)), and r0 is where a_4 x^4 and
    4 a_4 x^3 / a_1 reach 1e-18."""
    a = [1.0]
    for j in range(1, 5):
        a.append(a[-1] / (j * (n + 4 * j - 2)))
    x0 = min((1e-18 / a[4]) ** 0.25, (1e-18 * a[1] / (4 * a[4])) ** (1 / 3))
    return a, sigma * (4.0 * x0) ** 0.25


def _lsoda_profile(n, sigma, radius, grid):
    """u at the grid points past ode_solve's series head, by scipy's LSODA
    at rtol 1e-13 from the same four-term series at r0/2: the reference
    the library's own integrator replaced."""
    a, r0 = _series_start(n, sigma)
    r0 = min(r0, 0.5 * radius)
    sigma4 = sigma**4

    def rhs(r, y):
        return [y[1], r * r * y[0] / sigma4 - (n - 1) * y[1] / r]

    r_start = 0.5 * r0
    x = r_start**4 / (4.0 * sigma4)
    u = a[0] + x * (a[1] + x * (a[2] + x * a[3]))
    up = r_start**3 / sigma4 * (a[1] + x * (2.0 * a[2] + x * 3.0 * a[3]))
    tail = grid[grid > r0]
    y = scipy.integrate.odeint(
        rhs, [u, up], np.concatenate(([r_start], tail)), tfirst=True,
        rtol=1e-13, atol=1e-30, mxstep=1_000_000,
    )
    return tail, y[1:, 0]


def _assert_series_head(got, a, sigma, r0):
    """Grid points up to r0 hold the four-term series; every value is
    finite and the rest came from the integrator."""
    head = got.r <= r0
    assert got.series_points == np.count_nonzero(head)
    x = got.r[head] ** 4 / (4.0 * sigma**4)
    expected = a[0] + a[1] * x + a[2] * x**2 + a[3] * x**3
    np.testing.assert_allclose(got.values[head], expected, rtol=4e-16, atol=0.0)
    assert np.all(np.isfinite(got.values))
    assert got.nfev > 0


class TestPicard:
    def test_first_iterate_exact_form(self, monkeypatch):
        # with a large stopping tol the returned limit is the first iterate
        # 1 + r^4 / (4 sigma^4 (N+2))
        monkeypatch.setattr(oracles, "_PICARD_TOL", 0.1)
        p = ModelParams(2, 1.0, 1.0)
        got = picard_solve(p, GRID)
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

    def test_verify_gate_cells_stop_at_level_4(self):
        # two Romberg steps cancel the h^2 and h^4 terms, so levels 1-4
        # settle every cell of the gate
        grid = np.linspace(0.0, 2.0, 200)
        for n in (1, 2, 4, 10, 100):
            p = ModelParams(n, 0.5, 2.0)
            got = picard_solve(p, grid)
            assert got.refinement_level == 4
            assert max_rel_diff(got.values, eval_u(build_kernel(p, r_max=2.0), grid)) < 1e-12

    @pytest.mark.parametrize("grid_points", [2, 3])
    @pytest.mark.parametrize("n", [1, 2, 4, 10, 100])
    def test_levels_too_coarse_to_converge_are_skipped(self, n, grid_points):
        # at N=1 the first levels' largest diagonal weight is 11.3 and 3.4
        # (2 points) or 3.4 and 0.92 (3 points): the iteration diverges or
        # stalls there, so refinement starts on the first level below 1/2
        p = ModelParams(n, 0.5, 2.0)
        grid = np.linspace(0.0, 2.0, grid_points)
        got = picard_solve(p, grid)
        assert max_rel_diff(got.values, eval_u(build_kernel(p, r_max=2.0), grid)) < 1e-10

    def test_every_level_too_coarse_is_refused(self):
        # R/sigma = 200 on one interval: level 14's diagonal weight is still
        # above 1/2, so no level is iterated
        with pytest.raises(RuntimeError, match="cannot converge on any refinement level through 14"):
            picard_solve(ModelParams(2, 0.005, 1.0), np.linspace(0.0, 1.0, 2))

    def test_refinement_failure_names_gap_and_level(self, monkeypatch):
        monkeypatch.setattr(oracles, "_QUAD_SELF_CONSISTENCY", 1e-30)
        with pytest.raises(RuntimeError, match="did not reach self-consistency") as info:
            picard_solve(ModelParams(2, 1.0, 1.0), np.linspace(0.0, 1.0, 10))
        message = str(info.value)
        gap = float(message.split("best relative gap ")[1].split(",")[0])
        assert 0.0 <= gap < 1e-10
        assert message.endswith("last level 14")

    def test_not_converged_error(self, monkeypatch):
        monkeypatch.setattr(oracles, "_PICARD_MAX_ITER", 2)
        with pytest.raises(RuntimeError, match="Picard not converged after 2 iterations"):
            picard_solve(ModelParams(1, 0.5, 2.0), np.linspace(0, 2, 50))

    def test_grid_validation(self, monkeypatch):
        p = ModelParams(2, 1.0, 1.0)
        with pytest.raises(ValueError):
            picard_solve(p, np.asarray([0.5, 1.0]))  # must start at 0
        with pytest.raises(ValueError):
            picard_solve(p, np.asarray([0.0, 0.5, 0.5]))  # not strictly increasing
        with pytest.raises(ValueError):
            picard_solve(p, np.linspace(0, 2, 10))  # beyond the radius
        with pytest.raises(ValueError, match="needs a grid of at least 2 points"):
            picard_solve(p, np.asarray([0.0]))  # the origin alone
        # the profile type also refuses values that do not fit its grid
        grid = np.asarray([0.0, 0.5, 1.0])
        with pytest.raises(ValueError, match=r"values of shape \(2,\) do not match the grid's \(3,\)"):
            oracles.RadialGridFn(grid, np.ones(2))
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="profile values must be finite"):
                oracles.RadialGridFn(grid, [1.0, bad, 2.0])
        # a non-finite point is named before any refinement level runs, and
        # the profile type refuses the same grid
        monkeypatch.setattr(oracles, "_picard_once", None)
        for grid, named in NONFINITE_GRIDS:
            with pytest.raises(ValueError, match=rf"^grid must be finite .*, got r = {named}$"):
                picard_solve(p, grid)
            with pytest.raises(ValueError, match=rf"within \[0, inf\], got r = {named}$"):
                oracles.RadialGridFn(grid, np.ones(3))

    def test_range_refusal_names_largest_point(self):
        # the first point past the radius is named, here also the largest
        with pytest.raises(ValueError, match=r"within \[0, 1\.0\], got r = 2\.0 at index 2$"):
            picard_solve(ModelParams(2, 1.0, 1.0), np.array([0.0, 1.0, 2.0]))


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
            ode_solve(ModelParams(2, 0.5, 1.0), 20.0, grid=np.linspace(0.0, 20.0, 50))

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

    def test_cross_matches_lsoda(self):
        # the same 40 cells against scipy's LSODA, which the library does
        # not import
        worst = 0.0
        for n in (1, 2, 4, 10, 100):
            for sigma in (0.5, 1.0, 2.0, 5.0):
                for radius in (1.0, 2.0):
                    grid = np.linspace(0.0, radius, 200)
                    got = ode_solve(ModelParams(n, sigma, radius), radius, grid=grid)
                    tail, lsoda = _lsoda_profile(n, sigma, radius, grid)
                    assert tail.size == grid.size - got.series_points
                    worst = max(worst, max_rel_diff(got.values[got.series_points :], lsoda))
        assert worst <= 5e-11

    def test_gate_cells_match_series_within_budget(self):
        # the sigma=0.5, R=2 cells of every N, where the two mesh levels
        # evaluate A(r) 16,893 times; the budget is that plus 24%, and
        # refuses an explicit stepper such as DOP853, which needs about
        # 24,800 right-hand-side evaluations here
        nfev = 0
        for n in (1, 2, 4, 10, 100):
            params = ModelParams(n, 0.5, 2.0)
            grid = np.linspace(0.0, 2.0, 200)
            series = eval_u(build_kernel(params, r_max=2.0), grid)
            got = ode_solve(params, 2.0, grid=grid)
            assert max_rel_diff(got.values, series) <= 5e-11
            nfev += got.nfev
        assert nfev < 21_000

    @pytest.mark.parametrize("grid_points", [2, 3])
    def test_gate_cells_on_coarse_grids(self, grid_points):
        # one or two output intervals span the whole range: at 2 points
        # ODEPACK's default cap of 500 steps per interval refuses N=4 and 10
        for n in (1, 2, 4, 10, 100):
            params = ModelParams(n, 0.5, 2.0)
            grid = np.linspace(0.0, 2.0, grid_points)
            series = eval_u(build_kernel(params, r_max=2.0), grid)
            got = ode_solve(params, 2.0, grid=grid)
            assert max_rel_diff(got.values, series) <= 5e-11

    def test_refusal_is_one_named_error_not_a_warning(self, monkeypatch):
        # the two mesh levels agree to 1.6e-11 here, past a 1e-15 bound
        monkeypatch.setattr(oracles, "_ODE_LEVEL_GAP", 1e-15)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(RuntimeError) as excinfo:
                ode_solve(ModelParams(2, 1.0, 1.0), 1.0, grid=GRID)
        assert re.fullmatch(
            r"radial ODE integration failed: the mesh and its halving differ by "
            r"\d\.\d{3}e-1[0-5] relative at r = [\d.]+, past 1e-15",
            str(excinfo.value),
        )

    def test_too_coarse_mesh_is_refused(self, monkeypatch):
        # a growth bound ten times looser, h <= sigma^2/(r + sigma), leaves
        # the two levels 3e-6 apart at R
        monkeypatch.setattr(oracles, "_GROWTH_STEP", 1.0)
        with pytest.raises(RuntimeError, match=r"differ by \d\.\d{3}e-06 relative at r = 2, past 1e-08$"):
            ode_solve(ModelParams(2, 0.5, 2.0), 2.0, grid=[0.0, 2.0])

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
        a, r0 = _series_start(n, sigma)
        r_max = 4.0 * r0
        grid = np.concatenate([[0.0, 1e-300, 1e-150], np.linspace(r0 / 50, r_max, 200)])
        got = ode_solve(ModelParams(n, sigma, r_max), r_max, grid=grid)
        _assert_series_head(got, a, sigma, r0)
        assert got.series_points > 3
        assert got.values[1] == got.values[2] == 1.0

    @pytest.mark.parametrize("n,sigma", [(2, 1.0), (100, 0.5), (1000, 2.0)])
    def test_point_one_ulp_past_the_series_start(self, n, sigma):
        # the point past r0 by one ulp is integrated, from r0/2
        a, r0 = _series_start(n, sigma)
        r_max = 4.0 * r0
        grid = np.array([0.0, 0.5 * r0, r0, np.nextafter(r0, np.inf), 2.0 * r0, r_max])
        got = ode_solve(ModelParams(n, sigma, r_max), r_max, grid=grid)
        _assert_series_head(got, a, sigma, r0)
        assert got.series_points == 3

    def test_start_capped_at_half_range(self):
        # uncapped, the start radius here is about 0.8
        grid = np.linspace(0.0, 1.0, 201)
        got = ode_solve(ModelParams(100, 5.0, 1.0), 1.0, grid=grid)
        assert got.series_points == np.count_nonzero(grid <= 0.5) == 101
        assert got.nfev > 0

    def test_grid_refusal_names_r_max_and_ends(self, monkeypatch):
        with pytest.raises(ValueError, match=r"within \[0, 1\.0\], got r = 1\.5 at index 1$"):
            ode_solve(ModelParams(2, 1.0, 1.0), 1.0, grid=[0.0, 1.5])
        with pytest.raises(ValueError, match="non-empty"):
            ode_solve(ModelParams(2, 1.0, 1.0), 1.0, grid=[])
        # a non-finite point is named before any integration, which would
        # refuse at a negative level gap
        monkeypatch.setattr(oracles, "_ODE_LEVEL_GAP", -1.0)
        for grid, named in NONFINITE_GRIDS:
            with pytest.raises(ValueError, match=rf"within \[0, 1\.0\], got r = {named}$"):
                ode_solve(ModelParams(2, 1.0, 1.0), 1.0, grid=grid)

    def test_origin_only_grid(self):
        got = ode_solve(ModelParams(2, 1.0, 1.0), 1.0, grid=[0.0])
        assert got.values.tolist() == [1.0]
        assert got.nfev == 0
        assert got.series_points == 1

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

    def test_margins_finite_where_rho_underflows(self, wide_kernel):
        # rho and its envelope both underflow to 0 at these radii; the
        # envelope margin 1 - rho/env must still come out finite, tending
        # to 2/(N+2) at the origin
        report = check_bounds(wide_kernel, [0.0, 1e-300, 1e-200, 1e-105, 1.0])
        assert report.ok
        assert all(math.isfinite(m) for _, _, m in report.rows)
        envelope_margin = {r: m for r, name, m in report.rows if name == "rate_envelope"}
        assert envelope_margin[1e-300] == pytest.approx(0.5, rel=1e-15)
        assert envelope_margin[0.0] == 2.0 / (wide_kernel.params.n_goods + 2)
        assert envelope_margin[0.0] == pytest.approx(envelope_margin[1e-300], abs=1e-15)
        assert envelope_margin[1.0] == pytest.approx(0.1063066810927880, rel=1e-13)

    def test_origin_alone_reports_first_tied_bound(self, std_kernel):
        # both kernel margins are exactly 0 at the origin; the first wins
        report = check_bounds(std_kernel, [0.0])
        assert [name for _, name, _ in report.rows] == [
            "kernel_growth",
            "kernel_slope_growth",
            "rate_sigma_bound",
            "rate_envelope",
        ]
        assert report.min_margin == 0.0
        assert report.worst_bound == "kernel_growth"
        assert report.worst_r == 0.0

    def test_grid_without_origin(self, std_kernel):
        report = check_bounds(std_kernel, [0.25, 0.5, 1.0])
        assert len(report.rows) == 12
        assert all(r > 0.0 for r, _, _ in report.rows)
        assert [r for r, _, _ in report.rows[::4]] == [0.25, 0.5, 1.0]

    def test_nan_radius_refused(self, std_kernel):
        with pytest.raises(ValueError, match="nonnegative"):
            check_bounds(std_kernel, [0.0, math.nan, 1.0])

    def test_non_finite_margin_raises(self, wide_kernel):
        log_a = wide_kernel.log_a.copy()
        log_a[3] = math.nan
        broken = dataclasses.replace(wide_kernel, log_a=log_a)
        with pytest.raises(BoundViolation, match="margin nan") as info:
            check_bounds(broken, np.linspace(0.0, 20.0, 50))
        assert not info.value.report.ok
        assert math.isnan(info.value.report.min_margin)
        assert not dataclasses.replace(info.value.report, min_margin=math.inf).ok

    def test_corrupted_kernel_flagged(self, std_kernel, corrupt):
        with pytest.raises(BoundViolation, match="bound violation"):
            check_bounds(corrupt(std_kernel), GRID)
        try:
            check_bounds(corrupt(std_kernel), GRID)
        except BoundViolation as exc:
            assert not exc.report.ok
            assert exc.report.worst_bound in {
                "rate_envelope",
                "rate_sigma_bound",
                "kernel_growth",
                "kernel_slope_growth",
            }


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


class TestBesselRate:
    @pytest.mark.parametrize("n", [1, 2, 3, 100])
    def test_origin_is_exactly_zero(self, n):
        # at N=1 the denominator I_(-1/4)(z) is infinite at z = 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rho = bessel_rate(ModelParams(n, 1.0, 1.0), np.array([0.0, 0.5]))
        assert rho[0] == 0.0 and rho[1] > 0.0

    @pytest.mark.parametrize("n", [1, 2, 100])
    def test_subnormal_rates_stay_above_zero(self, n):
        # z = s^2/2 from 5e-321 up: rho ~ s^2/(N+2) is subnormal, where a
        # recurrence in the form 1/(2k/z + R_k) overflows and returns 0
        sigma = 0.5
        r = sigma * np.array([1e-160, 3e-158, 1e-156, 1e-154])
        rho = bessel_rate(ModelParams(n, sigma, 1.0), r)
        lead = (r / sigma) ** 2 / (n + 2)
        assert np.all(rho > 0.0)
        assert np.all(np.abs(rho - lead) <= 1e-15 * lead + 2e-323)

    @pytest.mark.parametrize("bad", [math.nan, -1.0, -5e-324, math.inf])
    def test_bad_radius_refused(self, bad):
        with pytest.raises(ValueError, match="finite radii r >= 0"):
            bessel_rate(ModelParams(2, 1.0, 1.0), np.array([0.5, bad]))

    def test_open_bracket_refused(self, monkeypatch):
        monkeypatch.setattr(oracles, "_BESSEL_GAP", -1.0)
        with pytest.raises(RuntimeError, match="Bessel ratio bracket did not close"):
            bessel_rate(ModelParams(2, 1.0, 1.0), np.array([0.5, 1.0]))
