"""Experiment harness: rate sweeps, the oracle verification gate, and
simulation runs with CSV/SVG artifacts.

Everything here is a thin orchestration layer; every number written to a
file is reproducible by calling the library operations with the same
parameters.  File writes are atomic (temp + rename) and floats carry 17
significant digits, so reruns with identical parameters produce
byte-identical outputs.  Sweep and verify cells run serially, in a fixed
order.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .fileio import atomic_write_text, csv_text, write_csv
from .oracles import (
    BoundViolation,
    check_bounds,
    max_rel_diff,
    ode_solve,
    picard_solve,
    picard_step_bound,
    verify_exact_4d,
)
from .params import ModelParams, exact_int
from .rate import build_rate, rate_coeff
from .series import build_kernel, eval_u
from .simulate import (
    SimConfig,
    _run_paths,  # unused here; perfbench/layers.py wraps sweep._run_paths by name
    collect_costs,
    cost_statistics,
    write_mc_summary,
    write_trace,
)
from .svg import render_norm_paths

# Verification gate defaults: the full cross the oracle suite certifies.
VERIFY_N = (1, 2, 4, 10, 100)
VERIFY_SIGMA = (0.5, 1.0, 2.0, 5.0)
VERIFY_RADIUS = (1.0, 2.0)
VERIFY_GRID_POINTS = 200

EQUIVALENCE_TOL = 1e-8
EXACT4D_TOL = 1e-9
PICARD_BOUND_SLACK = 1e-9  # relative quadrature slack on the factorial envelope


def _goods_count(n) -> int:
    """A sweep's N as an exact integer >= 1; 2.5 is refused, not truncated."""
    count = exact_int("sweep N", n)
    if count < 1:
        raise ValueError(f"sweep N must be >= 1, got {n!r}")
    return count


@dataclass(frozen=True)
class SweepSpec:
    """Axes of a rate sweep: goods counts x diffusions x radii grid."""

    n_list: tuple
    sigma_list: tuple
    r_grid: np.ndarray
    output_dir: Path

    def __post_init__(self) -> None:
        object.__setattr__(self, "n_list", tuple(_goods_count(n) for n in self.n_list))
        object.__setattr__(self, "sigma_list", tuple(float(s) for s in self.sigma_list))
        object.__setattr__(self, "r_grid", np.asarray(self.r_grid, dtype=float))
        object.__setattr__(self, "output_dir", Path(self.output_dir))
        if not self.n_list or not self.sigma_list or self.r_grid.size == 0:
            raise ValueError("sweep axes must be non-empty")
        for s in self.sigma_list:
            if not (math.isfinite(s) and s > 0.0):
                raise ValueError(f"sweep sigma must be a positive finite real, got {s!r}")
        if np.any(self.r_grid < 0) or not np.all(np.isfinite(self.r_grid)):
            raise ValueError("r grid must be finite and nonnegative")
        if float(np.max(self.r_grid)) <= 0.0:
            raise ValueError("r grid needs at least one positive radius")


@dataclass(frozen=True)
class SweepTable:
    """Rectangular sweep result; rows are (N, sigma, r, rate) with rate
    left empty for cells whose series build was refused."""

    rows: tuple

    def write(self, path) -> Path:
        return write_csv(path, ["N", "sigma", "r", "rate"], self.rows)


def sweep_rate(spec: SweepSpec) -> SweepTable:
    """rho(r) over the full (N, sigma, r) cross product.

    A cell whose kernel build is refused with a ValueError (the series
    builder's truncation overflow at extreme r/sigma ratios) is reported
    with an empty rate rather than aborting the sweep, and
    rate_sweep_skipped.txt gets one line per such cell naming N, sigma and
    the reason.  Any other exception propagates.  Writes rate_sweep.csv
    into the requested output directory and returns the table.
    """
    r_max = float(np.max(spec.r_grid))
    radii = spec.r_grid.tolist()
    rows: list = []
    notes: list = []
    for n, s in itertools.product(spec.n_list, spec.sigma_list):
        params = ModelParams(n_goods=n, sigma=s, radius=r_max)
        try:
            kernel = build_kernel(params, r_max=r_max)
        except ValueError as exc:
            notes.append(f"skipped cell N={n} sigma={s!r}: {exc}\n")
            rows.extend((n, s, r, "") for r in radii)
            continue
        values = np.atleast_1d(rate_coeff(build_rate(kernel), spec.r_grid))
        rows.extend((n, s, r, v) for r, v in zip(radii, values.tolist()))
    table = SweepTable(rows=tuple(rows))
    table.write(spec.output_dir / "rate_sweep.csv")
    if notes:
        atomic_write_text(spec.output_dir / "rate_sweep_skipped.txt", "".join(notes))
    return table


def run_verify(
    output_dir,
    n_list=VERIFY_N,
    sigma_list=VERIFY_SIGMA,
    radius_list=VERIFY_RADIUS,
    grid_points: int = VERIFY_GRID_POINTS,
    echo=print,
) -> int:
    """Run the oracle gate; returns 0 iff every check passes.

    Checks, with one echoed line each: (1) triangular equivalence of the
    series kernel, the integral-form iteration, and direct ODE integration;
    (2) the bound suite margins; (3) closed-form 4-D fixtures; (4) the
    factorial envelope on the iteration's successive differences.  A cell
    whose Picard or ODE oracle raises RuntimeError has no equivalence row;
    it fails check (1) with one echoed line naming N, sigma, R and the
    reason, and gets a row in verify_failed_cells.csv (header only when
    every cell ran).  Reports are written as CSV into output_dir regardless
    of outcome.

    Raises:
        ValueError: if an axis is empty, so no cell would be checked.
    """
    if not (n_list and sigma_list and radius_list):
        raise ValueError("verify axes must be non-empty")
    out = Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)
    failures: list[str] = []

    eq_rows = []
    failed_cells = []
    bound_rows = []
    bound_failures: list[str] = []
    min_margin = math.inf
    for n, s, radius in itertools.product(n_list, sigma_list, radius_list):
        params = ModelParams(n_goods=n, sigma=s, radius=radius)
        grid = np.linspace(0.0, radius, grid_points)
        kernel = build_kernel(params, r_max=radius)
        series_vals = np.atleast_1d(eval_u(kernel, grid))
        try:
            picard = picard_solve(params, grid)
            ode = ode_solve(params, radius, grid=grid)
        except RuntimeError as exc:
            failed_cells.append((n, s, radius, str(exc)))
        else:
            diffs = (
                max_rel_diff(series_vals, picard.values),
                max_rel_diff(series_vals, ode.values),
                max_rel_diff(picard.values, ode.values),
            )
            eq_rows.append((n, s, radius, *diffs))
        try:
            report = check_bounds(kernel, grid)
        except BoundViolation as exc:
            report = exc.report
            bound_failures.append(str(exc))
        bound_rows.extend((n, s, radius, *row) for row in report.rows)
        min_margin = min(min_margin, report.min_margin)

    write_csv(
        out / "verify_equivalence.csv",
        ["N", "sigma", "radius", "series_vs_picard", "series_vs_ode", "picard_vs_ode"],
        eq_rows,
    )
    write_csv(
        out / "verify_failed_cells.csv",
        ["N", "sigma", "radius", "reason"],
        [(*cell, csv_text(reason)) for *cell, reason in failed_cells],
    )
    for n, s, radius, reason in failed_cells:
        cell = f"N={n} sigma={s!r} R={radius!r}"
        failures.append(f"equivalence cell {cell}")
        echo(f"equivalence: FAIL (cell {cell}: {reason})")
    # no equivalence rows only when every cell failed, reported above
    worst_eq = max((max(row[3:6]) for row in eq_rows), default=0.0)
    if not worst_eq <= EQUIVALENCE_TOL:
        failures.append(f"equivalence (worst rel diff {worst_eq:.3e} > {EQUIVALENCE_TOL})")
        echo(f"equivalence: FAIL (worst pairwise rel diff {worst_eq:.3e})")
    elif not failed_cells:
        echo(f"equivalence: PASS (worst pairwise rel diff {worst_eq:.3e})")

    write_csv(
        out / "verify_bounds.csv",
        ["N", "sigma", "radius", "r", "bound_name", "margin"],
        bound_rows,
    )
    failures.extend(bound_failures)
    if bound_failures:
        echo(f"bounds: FAIL ({bound_failures[0]})")
    else:
        echo(f"bounds: PASS (min margin {min_margin:.3e})")

    exact_rows = []
    for s in (0.5, 1.0, 2.0):
        for which in ("growing", "decaying"):
            residual = verify_exact_4d(s, which, np.linspace(0.1, 3.0, 200))
            exact_rows.append((s, which, residual))
    write_csv(out / "verify_exact4d.csv", ["sigma", "which", "max_residual"], exact_rows)
    worst_exact = max(row[2] for row in exact_rows)
    if worst_exact <= EXACT4D_TOL:
        echo(f"exact-4d fixtures: PASS (max residual {worst_exact:.3e})")
    else:
        failures.append(f"exact-4d fixtures (max residual {worst_exact:.3e})")
        echo(f"exact-4d fixtures: FAIL (max residual {worst_exact:.3e})")

    pb_params = ModelParams(n_goods=2, sigma=1.0, radius=1.0)
    picard = picard_solve(pb_params, np.linspace(0.0, 1.0, grid_points))
    pb_rows = []
    pb_ok = True
    for k, measured in enumerate(picard.sup_diffs):
        bound = picard_step_bound(pb_params, pb_params.radius, k)
        pb_rows.append((k, measured, bound))
        if measured > bound * (1.0 + PICARD_BOUND_SLACK):
            pb_ok = False
    write_csv(
        out / "verify_picard_bound.csv",
        ["k", "measured_sup_diff", "analytic_bound"],
        pb_rows,
    )
    if pb_ok:
        echo(f"picard factorial envelope: PASS ({len(pb_rows)} iterations)")
    else:
        failures.append("picard factorial envelope exceeded")
        echo("picard factorial envelope: FAIL")

    status = 0 if not failures else 1
    echo(f"verify: {'PASS' if status == 0 else 'FAIL'} ({len(failures)} failing check(s))")
    return status


def run_simulate(
    n_goods: int,
    sigma: float,
    radius: float,
    cfg: SimConfig,
    output_dir,
    trace: bool = False,
    n_trace_paths: int = 8,
) -> dict:
    """Monte Carlo run with summary CSV, |y(t)| SVG, optional trace CSVs.

    Horizon truncation is informational here, not an error: with no exited
    paths the summary simply records n_exited=0 and nan statistics.  The
    first min(n_trace_paths, n_paths) paths are traced for the plot in the
    same pass that computes the Monte Carlo mean, so the plotted paths are
    the ones that entered it; the rate's range is checked once per batch.
    """
    out = Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)
    params = ModelParams(n_goods=n_goods, sigma=sigma, radius=radius)
    rate = build_rate(build_kernel(params, r_max=radius))

    n_traced = min(n_trace_paths, cfg.n_paths)
    # sample ~2000 points over a few noise-driven exit times (R^2/(N sigma^2)),
    # capped by the horizon; deterministic in (params, cfg) so reruns match
    typical_steps = int(3.0 * radius**2 / (n_goods * sigma**2) / cfg.dt) + 1
    stride = max(1, min(cfg.max_steps, typical_steps) // 2000)
    costs, exited, traces = collect_costs(
        rate, cfg, trace_paths=frozenset(range(n_traced)), trace_stride=stride
    )
    mean, stderr, n_exited = cost_statistics(costs, exited)
    summary_path = out / "mc_summary.csv"
    write_mc_summary(summary_path, mean, stderr, n_exited, cfg)

    curves = []
    trace_files = []
    for pid in range(n_traced):
        arr = traces[pid]
        t = arr[:, 0]
        norms = np.sqrt(np.sum(arr[:, 1 : 1 + n_goods] ** 2, axis=1))
        curves.append((t, norms))
        if trace:
            path = out / f"trace_path{pid:04d}.csv"
            write_trace(path, arr, n_goods)
            trace_files.append(path)

    title = (
        f"inventory norm paths: N={n_goods}, sigma={sigma:g}, R={radius:g}, "
        f"dt={cfg.dt:g}, seed={cfg.seed}"
    )
    svg_path = out / "paths.svg"
    atomic_write_text(svg_path, render_norm_paths(curves, radius, title))

    return {
        "mean": mean,
        "stderr": stderr,
        "n_exited": n_exited,
        "summary_csv": summary_path,
        "svg": svg_path,
        "trace_files": trace_files,
    }
