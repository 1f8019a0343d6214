"""Acceptance gate.

Runs every acceptance criterion at its stated tolerance and prints one
pass/fail line per criterion (pytest -rP shows the lines for passing
tests too).  Expected values marked "brute force" were computed from
high-precision partial sums of the coefficient formula, independently of
the library code.
"""

import math

import numpy as np
import pytest
from fractions import Fraction

from hjb_planner import (
    ModelParams,
    SweepSpec,
    build_kernel,
    build_rate,
    check_bounds,
    envelope,
    eval_u,
    eval_u_prime,
    expected_optimal_cost,
    max_rel_diff,
    monte_carlo_cost,
    ode_solve,
    picard_solve,
    picard_step_bound,
    rate_coeff,
    run_simulate,
    run_verify,
    sweep_rate,
    verify_exact_4d,
)
from hjb_planner.oracles import quotient_coeffs, quotient_rate
from hjb_planner.simulate import SimConfig

CROSS_N = (1, 2, 4, 10, 100)
CROSS_SIGMA = (0.5, 1.0, 2.0, 5.0)
CROSS_RADIUS = (1.0, 2.0)
GRID_POINTS = 200

# 2 ln u(1) for N=2, sigma=1, R=1; brute-force series sum at 40 digits
COST_TARGET = 0.12309943837096261


def report(num: int, ok: bool, detail: str) -> None:
    line = f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


def test_criterion_1_triangular_oracle_equivalence():
    worst = 0.0
    for n in CROSS_N:
        for sigma in CROSS_SIGMA:
            for radius in CROSS_RADIUS:
                params = ModelParams(n, sigma, radius)
                grid = np.linspace(0.0, radius, GRID_POINTS)
                series = eval_u(build_kernel(params, r_max=radius), grid)
                picard = picard_solve(params, grid).values
                ode = ode_solve(params, radius, grid=grid).values
                worst = max(
                    worst,
                    max_rel_diff(series, picard),
                    max_rel_diff(series, ode),
                    max_rel_diff(picard, ode),
                )
    report(1, worst <= 1e-8, f"worst pairwise rel diff {worst:.3e} <= 1e-8")


def test_criterion_2_exact_4d_fixtures():
    grid = np.linspace(0.1, 3.0, GRID_POINTS)
    worst = max(
        verify_exact_4d(sigma, which, grid)
        for sigma in (0.5, 1.0, 2.0)
        for which in ("growing", "decaying")
    )
    report(2, worst <= 1e-9, f"max radial-ODE residual {worst:.3e} <= 1e-9")


def test_criterion_3_bound_suite():
    min_margin = math.inf
    for n in CROSS_N:
        for sigma in CROSS_SIGMA:
            for radius in CROSS_RADIUS:
                kernel = build_kernel(ModelParams(n, sigma, radius), r_max=radius)
                rep = check_bounds(kernel, np.linspace(0.0, radius, GRID_POINTS))
                min_margin = min(min_margin, rep.min_margin)
    report(3, min_margin >= -1e-12, f"min bound margin {min_margin:.3e} >= -1e-12")


def test_criterion_4_rate_monotone_and_limit():
    min_diff = math.inf
    worst_gap_ratio = 0.0
    for n in CROSS_N:
        for sigma in CROSS_SIGMA:
            r_max = 2.0
            rate = build_rate(build_kernel(ModelParams(n, sigma, 1.0), r_max=r_max))
            grid = np.linspace(0.0, r_max, 400)
            rho = rate_coeff(rate, grid)
            min_diff = min(min_diff, float(np.min(np.diff(rho))))
            gap = 1.0 - envelope(rate.params, r_max)
            worst_gap_ratio = max(worst_gap_ratio, abs(rho[-1] - 1.0) / (2.0 * gap))

    wide = build_rate(build_kernel(ModelParams(2, 0.5, 1.0), r_max=20.0))
    grid = np.linspace(0.0, 20.0, 2001)
    min_diff = min(min_diff, float(np.min(np.diff(rate_coeff(wide, grid)))))
    limit_err = abs(rate_coeff(wide, 20.0) - 1.0)
    gap_ratio = limit_err / (2.0 * (1.0 - envelope(wide.params, 20.0)))
    worst_gap_ratio = max(worst_gap_ratio, gap_ratio)

    ok = min_diff >= -1e-12 and worst_gap_ratio <= 1.0 and limit_err <= 1e-3
    report(
        4,
        ok,
        f"min rho first-difference {min_diff:.3e} >= -1e-12; "
        f"|rho(r_max)-1| within 2x envelope gap (worst ratio {worst_gap_ratio:.3f}); "
        f"|rho(20)-1| = {limit_err:.3e} <= 1e-3 at N=2 sigma=0.5",
    )


def _long_divide(numerator, denominator, count):
    """Classic subtract-and-shift polynomial long division, exact rationals."""
    remainder = dict(enumerate(numerator))
    quotient = []
    for k in range(count):
        q = remainder.get(k, Fraction(0)) / denominator[0]
        quotient.append(q)
        if q:
            for i, d in enumerate(denominator):
                if k + i >= count + len(denominator):
                    break
                remainder[k + i] = remainder.get(k + i, Fraction(0)) - q * d
    return quotient


def test_criterion_5_quotient_recursion_and_rate():
    # (a) division recursion vs polynomial long division of the truncated
    # derivative series by the kernel series, performed in exact arithmetic
    worst_coeff = 0.0
    for n in CROSS_N:
        count = 31
        c = quotient_coeffs(n, count - 1)
        a = [Fraction(1)]
        for j in range(1, count):
            a.append(a[j - 1] / (j * (n + 4 * j - 2)))
        b = [j * a[j] for j in range(count)]
        divided = _long_divide(b, a, count)
        for j in range(1, count):
            rel = abs(c[j] - float(divided[j])) / abs(float(divided[j]))
            worst_coeff = max(worst_coeff, rel)

    # (b) quotient-series rate and the production rate vs direct
    # sigma^2 u'/(r u) for x <= 0.25
    worst_rate = 0.0
    for n in CROSS_N:
        for sigma in CROSS_SIGMA:
            r_top = (4.0 * sigma**4 * 0.25) ** 0.25
            params = ModelParams(n, sigma, r_top)
            kernel = build_kernel(params, r_max=r_top)
            rate = build_rate(kernel)
            grid = np.linspace(r_top / 50, r_top, 50)
            direct = sigma**2 * eval_u_prime(kernel, grid) / (grid * eval_u(kernel, grid))
            for rho in (quotient_rate(params, grid), rate_coeff(rate, grid)):
                worst_rate = max(worst_rate, float(np.max(np.abs(rho - direct) / direct)))

    ok = worst_coeff <= 1e-13 and worst_rate <= 1e-10
    report(
        5,
        ok,
        f"c_j vs long division rel {worst_coeff:.3e} <= 1e-13 (j <= 30); "
        f"quotient and production rate vs direct rate rel {worst_rate:.3e} <= 1e-10 "
        "(x <= 0.25)",
    )


def test_criterion_6_picard_factorial_envelope():
    params = ModelParams(2, 1.0, 1.0)
    picard = picard_solve(params, np.linspace(0.0, 1.0, GRID_POINTS))
    worst_ratio = 0.0
    for k, measured in enumerate(picard.sup_diffs):
        bound = picard_step_bound(params, params.radius, k)
        worst_ratio = max(worst_ratio, measured / bound)
    ok = worst_ratio <= 1.0 + 1e-9
    report(
        6,
        ok,
        f"{len(picard.sup_diffs)} iterations, worst measured/bound ratio "
        f"{worst_ratio:.12f} <= 1 + 1e-9 quadrature slack",
    )


def test_criterion_7_monte_carlo_verification_identity():
    params = ModelParams(2, 1.0, 1.0)
    kernel = build_kernel(params, r_max=1.0)
    rate = build_rate(kernel)
    target = expected_optimal_cost(kernel, 0.0)
    assert target == pytest.approx(COST_TARGET, rel=1e-13)

    def run(dt):
        cfg = SimConfig(dt=dt, max_steps=1_000_000, n_paths=10_000, seed=20240811,
                        y0=np.zeros(2))
        return monte_carlo_cost(rate, cfg)

    mean_1, se_1, exited_1 = run(1e-4)
    mean_2, se_2, exited_2 = run(5e-5)
    assert exited_1 == exited_2 == 10_000

    # dt-refinement allowance confirmed by the dt/2 rerun
    allowance = abs(mean_1 - mean_2) + 3.0 * se_2
    err = abs(mean_1 - target)
    ok = err <= 3.0 * se_1 + allowance
    # halving dt moves the mean by less than the combined noise at 3 sigma
    drift = abs(mean_1 - mean_2)
    combined = 3.0 * math.hypot(se_1, se_2)
    ok = ok and drift <= combined
    report(
        7,
        ok,
        f"|mc - 2 ln u(R)| = {err:.5f} <= 3*se + allowance = "
        f"{3 * se_1 + allowance:.5f} (mean {mean_1:.5f}, target {target:.5f}); "
        f"dt-halving drift {drift:.5f} <= {combined:.5f}",
    )


def test_criterion_8_large_n_decay_exponent():
    counts = (10, 20, 40, 80, 160)
    values = []
    for n in counts:
        rate = build_rate(build_kernel(ModelParams(n, 0.5, 1.0), r_max=1.0))
        values.append(rate_coeff(rate, 1.0))
    slope = float(np.polyfit(np.log(counts), np.log(values), 1)[0])
    ok = -1.2 <= slope <= -0.8
    report(8, ok, f"fitted log-log slope of rho vs N is {slope:.4f}, within -1 +- 0.2")


def test_criterion_9_byte_identical_reruns(tmp_path):
    def verify_run(out):
        run_verify(out, n_list=(2,), sigma_list=(1.0,), radius_list=(1.0,),
                   grid_points=100, echo=lambda *_: None)

    def sweep_run(out):
        sweep_rate(SweepSpec(n_list=(2, 10), sigma_list=(0.5, 1.0),
                             r_grid=np.linspace(0.0, 2.0, 21), output_dir=out))

    def simulate_run(out):
        cfg = SimConfig(dt=1e-3, max_steps=100_000, n_paths=50, seed=7,
                        y0=np.zeros(2))
        run_simulate(2, 1.0, 1.0, cfg, out, trace=True, n_trace_paths=4)

    mismatches = []
    for name, runner in (("verify", verify_run), ("sweep", sweep_run),
                         ("simulate", simulate_run)):
        first = tmp_path / f"{name}_a"
        second = tmp_path / f"{name}_b"
        runner(first)
        runner(second)
        files_a = sorted(p.name for p in first.iterdir())
        files_b = sorted(p.name for p in second.iterdir())
        if files_a != files_b:
            mismatches.append(f"{name}: file sets differ")
            continue
        for fname in files_a:
            if (first / fname).read_bytes() != (second / fname).read_bytes():
                mismatches.append(f"{name}/{fname}")
    report(
        9,
        not mismatches,
        "verify, sweep, simulate outputs byte-identical across reruns"
        if not mismatches
        else f"differing outputs: {mismatches}",
    )
