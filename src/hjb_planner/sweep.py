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

from .fileio import atomic_write_text, column_blocks, csv_text, fmt, write_csv
from .oracles import (
    BOUND_NAMES,
    BoundViolation,
    check_bounds,
    max_rel_diff,
    ode_solve,
    picard_solve,
    picard_step_bound,
    verify_exact_4d,
)
from .params import ModelParams
from .rate import build_rate, radius_grid, rate_coeff
from .series import build_kernel, eval_u
from .simulate import (
    SimConfig,
    _run_paths,  # unused here; perfbench/layers.py wraps sweep._run_paths by name
    collect_costs,
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


@dataclass(frozen=True)
class SweepSpec:
    """Axes of a rate sweep: goods counts x diffusions x radii grid, the
    grid read by radius_grid."""

    n_list: tuple
    sigma_list: tuple
    r_grid: np.ndarray
    output_dir: Path

    def __post_init__(self) -> None:
        object.__setattr__(self, "r_grid", radius_grid(self.r_grid))
        object.__setattr__(self, "output_dir", Path(self.output_dir))
        if not self.n_list or not self.sigma_list or self.r_grid.size == 0:
            raise ValueError("sweep axes must be non-empty")
        r_max = float(np.max(self.r_grid))
        if r_max <= 0.0:
            raise ValueError("r grid needs at least one positive radius")
        # ModelParams accepts or refuses every cell's N and sigma; the axes
        # keep its values, so 2.5 is refused, not truncated
        cells = [[ModelParams(n, s, r_max) for s in self.sigma_list] for n in self.n_list]
        object.__setattr__(self, "n_list", tuple(row[0].n_goods for row in cells))
        object.__setattr__(self, "sigma_list", tuple(p.sigma for p in cells[0]))


@dataclass(frozen=True, eq=False)
class SweepTable:
    """Rectangular sweep result, held by column: the radii shared by every
    cell once, and one (N, sigma, rates) entry per cell in sweep order.
    radii and each cell's rates are read-only float64 arrays; rates is
    None for a cell whose series build was refused."""

    radii: np.ndarray
    cells: tuple

    @property
    def rows(self) -> tuple:
        """(N, sigma, r, rate) per grid point as Python floats, rate "" in a
        refused cell."""
        radii = self.radii.tolist()
        return tuple(
            (n, s, r, v)
            for n, s, rates in self.cells
            for r, v in zip(radii, itertools.repeat("") if rates is None else rates.tolist())
        )

    def write(self, path) -> Path:
        """rate_sweep.csv as write_csv would render rows, streamed in blocks
        of CHUNK_ROWS rows.  Only one block's text is live: each block is
        one %-format of its rows, with the cell's N,sigma prefix in the row
        format."""

        def chunks():
            yield "N,sigma,r,rate\n"
            for n, s, rates in self.cells:
                if rates is None:  # a refused cell: the radii column alone
                    yield from column_blocks(f"{n},{s:.17g},%.17g,\n", self.radii)
                else:
                    yield from column_blocks(f"{n},{s:.17g},%.17g,%.17g\n", self.radii, rates)

        return atomic_write_text(path, chunks())


def sweep_rate(spec: SweepSpec) -> SweepTable:
    """rho(r) over the full (N, sigma, r) cross product.

    A cell whose kernel build is refused with a ValueError (the series
    builder's truncation overflow at extreme r/sigma ratios) is reported
    with an empty rate rather than aborting the sweep, and
    rate_sweep_skipped.txt gets one line per such cell naming N, sigma and
    the reason.  Any other exception propagates.  Writes rate_sweep.csv
    into the requested output directory and returns the columnar table.
    """
    r_max = float(np.max(spec.r_grid))
    cells: list = []
    notes: list = []
    for n, s in itertools.product(spec.n_list, spec.sigma_list):
        params = ModelParams(n_goods=n, sigma=s, radius=r_max)
        try:
            kernel = build_kernel(params, r_max=r_max)
        except ValueError as exc:
            notes.append(f"skipped cell N={n} sigma={s!r}: {exc}\n")
            cells.append((n, s, None))
            continue
        values = rate_coeff(build_rate(kernel), spec.r_grid)
        values.flags.writeable = False
        cells.append((n, s, values))
    radii = spec.r_grid.copy()
    radii.flags.writeable = False
    table = SweepTable(radii=radii, cells=tuple(cells))
    table.write(spec.output_dir / "rate_sweep.csv")
    if notes:
        atomic_write_text(spec.output_dir / "rate_sweep_skipped.txt", notes)
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
    factorial envelope on each cell's Picard successive differences.  Each
    cell runs the ODE oracle before the Picard one, because the ODE's
    overflow refusal is an up-front check while a Picard solve can take
    seconds.  A cell whose ODE or Picard oracle raises RuntimeError adds no
    row to checks (1) and (4); it fails check (1) with one echoed line
    naming N, sigma, R and the first oracle's reason, and gets a row in
    verify_failed_cells.csv (header only when every cell ran).  When every
    cell fails, neither check echoes a PASS line.  Reports are written as
    CSV into output_dir regardless of outcome.

    Raises:
        ValueError: if an axis is empty, so no cell would be checked,
            grid_points < 2, ModelParams refuses a cell's N, sigma or R,
            or a cell's kernel build is refused; all before output_dir is
            created or any oracle runs.
    """
    if not (n_list and sigma_list and radius_list):
        raise ValueError("verify axes must be non-empty")
    if grid_points < 2:
        raise ValueError(f"verify grid_points must be >= 2, got {grid_points}")
    # every cell's parameters and kernel are refused or accepted up front;
    # reports render the raw axis values
    cells = []
    for n, s, radius in itertools.product(n_list, sigma_list, radius_list):
        params = ModelParams(n, s, radius)
        grid = np.linspace(0.0, radius, grid_points)
        cells.append((n, s, radius, params, grid, build_kernel(params, r_max=radius)))
    out = Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)

    eq_rows, failed_cells, envelope_rows, bound_failures = [], [], [], []
    bound_parts = ["N,sigma,radius,r,bound_name,margin\n"]
    min_margin = math.inf
    for n, s, radius, params, grid, kernel in cells:
        series_vals = eval_u(kernel, grid)
        try:
            ode = ode_solve(params, radius, grid=grid)
            picard = picard_solve(params, grid)
        except RuntimeError as exc:
            failed_cells.append((n, s, radius, str(exc)))
        else:
            diffs = (
                max_rel_diff(series_vals, picard.values),
                max_rel_diff(series_vals, ode.values),
                max_rel_diff(picard.values, ode.values),
            )
            eq_rows.append((n, s, radius, *diffs))
            envelope_rows.extend(
                (n, s, radius, k, measured, picard_step_bound(params, radius, k))
                for k, measured in enumerate(picard.sup_diffs)
            )
        try:
            report = check_bounds(kernel, grid)
        except BoundViolation as exc:
            report = exc.report
            bound_failures.append(str(exc))
        # verify_bounds.csv from the report's columns: a row per bound per
        # grid point, the cell prefix and the bound names in the row format
        prefix = f"{fmt(n)},{fmt(s)},{fmt(radius)},%.17g,"
        row = "".join(f"{prefix}{name},%.17g\n" for name in BOUND_NAMES)
        columns = itertools.chain.from_iterable((report.radii, m) for m in report.margins.T)
        bound_parts.extend(column_blocks(row, *columns))
        min_margin = min(min_margin, report.min_margin)

    failures = 0

    def verdict(name, failed, detail, count=1):
        nonlocal failures
        failures += count if failed else 0
        echo(f"{name}: {'FAIL' if failed else 'PASS'} ({detail})")

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
        verdict("equivalence", True, f"cell N={n} sigma={s!r} R={radius!r}: {reason}")
    # no equivalence rows only when every cell failed, reported above
    worst_eq = max((max(row[3:6]) for row in eq_rows), default=0.0)
    eq_failed = not worst_eq <= EQUIVALENCE_TOL
    if eq_failed or not failed_cells:
        verdict("equivalence", eq_failed, f"worst pairwise rel diff {worst_eq:.3e}")

    atomic_write_text(out / "verify_bounds.csv", bound_parts)
    detail = bound_failures[0] if bound_failures else f"min margin {min_margin:.3e}"
    verdict("bounds", bool(bound_failures), detail, count=len(bound_failures))

    exact_rows = [
        (s, which, verify_exact_4d(s, which, np.linspace(0.1, 3.0, 200)))
        for s in (0.5, 1.0, 2.0)
        for which in ("growing", "decaying")
    ]
    write_csv(out / "verify_exact4d.csv", ["sigma", "which", "max_residual"], exact_rows)
    worst_exact = max(row[2] for row in exact_rows)
    verdict("exact-4d fixtures", not worst_exact <= EXACT4D_TOL, f"max residual {worst_exact:.3e}")

    write_csv(
        out / "verify_picard_bound.csv",
        ["N", "sigma", "radius", "k", "measured_sup_diff", "analytic_bound"],
        envelope_rows,
    )
    over = [row for row in envelope_rows if not row[4] <= row[5] * (1 + PICARD_BOUND_SLACK)]
    if over:
        n, s, radius, k, measured, bound = over[0]
        detail = f"cell N={n} sigma={s!r} R={radius!r} k={k}: {measured:.3e} > {bound:.3e}"
    else:
        detail = f"{len(envelope_rows)} iterations, {len(eq_rows)} cell(s)"
    if envelope_rows:
        verdict("picard factorial envelope", bool(over), detail)

    echo(f"verify: {'FAIL' if failures else 'PASS'} ({failures} failing check(s))")
    return 1 if failures else 0


def simulation_params(n_goods: int, sigma: float, radius: float) -> ModelParams:
    """ModelParams for a first-exit run.  A radius below sqrt of the
    smallest normal double is refused: |y|^2 underflows there, so no path
    could exit."""
    params = ModelParams(n_goods=n_goods, sigma=sigma, radius=radius)
    floor = math.sqrt(np.finfo(float).tiny)
    if params.radius < floor:
        raise ValueError(f"stopping radius {radius!r} is below {floor:.3e}: |y|^2 underflows")
    return params


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
    Every artifact is written atomically, and a refused input writes none:
    output_dir is created with the first file.  The model values are
    checked by simulation_params.
    """
    out = Path(output_dir)
    params = simulation_params(n_goods, sigma, radius)
    rate = build_rate(build_kernel(params, r_max=radius))

    # sample ~2000 points over a few noise-driven exit times (R^2/(N sigma^2)),
    # capped by the horizon; deterministic in (params, cfg) so reruns match
    exit_steps = min(3.0 * radius**2 / (n_goods * sigma**2) / cfg.dt, cfg.max_steps)
    stride = max(1, min(cfg.max_steps, int(exit_steps) + 1) // 2000)
    batch = collect_costs(rate, cfg, n_trace_paths, stride)
    mean, stderr, n_exited = batch.statistics()
    summary_path = out / "mc_summary.csv"
    write_mc_summary(summary_path, mean, stderr, n_exited, cfg)

    curves = []
    trace_files = []
    for pid, arr in enumerate(batch.traces):
        t = arr[:, 0]
        y = arr[:, 1 : 1 + n_goods]
        with np.errstate(over="ignore"):
            norms = np.sqrt(np.sum(y**2, axis=1))
        # hypot where the sum of squares overflowed, so a far start plots finite
        wide = ~np.isfinite(norms)
        norms[wide] = np.hypot.reduce(y[wide], axis=1)
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
