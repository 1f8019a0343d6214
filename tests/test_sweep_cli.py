import csv
import dataclasses
import itertools
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import hjb_planner
from hjb_planner import SweepSpec, oracles, run_simulate, run_verify, sweep, sweep_rate
from hjb_planner import cli
from hjb_planner.cli import main
from hjb_planner.fileio import CHUNK_ROWS, write_csv
from hjb_planner.params import ModelParams
from hjb_planner.rate import build_rate, rate_coeff
from hjb_planner.series import HORNER_X_MAX, build_kernel
from hjb_planner.simulate import SimConfig
from hjb_planner.svg import render_norm_paths


@pytest.fixture(scope="module")
def small_sweep(tmp_path_factory):
    out = tmp_path_factory.mktemp("sweep")
    spec = SweepSpec(
        n_list=(2, 10, 100),
        sigma_list=(0.5, 1.0, 2.0),
        r_grid=np.linspace(0.0, 3.0, 16),
        output_dir=out,
    )
    return spec, sweep_rate(spec)


class TestSweep:
    def test_csv_written_with_schema(self, small_sweep):
        spec, table = small_sweep
        lines = (spec.output_dir / "rate_sweep.csv").read_text().splitlines()
        assert lines[0] == "N,sigma,r,rate"
        assert len(lines) == 1 + 3 * 3 * 16

    def test_origin_column_exactly_zero(self, small_sweep):
        _, table = small_sweep
        assert all(row[3] == 0.0 for row in table.rows if row[2] == 0.0)

    def test_monotone_in_radius(self, small_sweep):
        _, table = small_sweep
        for n in (2, 10, 100):
            for s in (0.5, 1.0, 2.0):
                rates = [row[3] for row in table.rows if row[0] == n and row[1] == s]
                assert all(b >= a - 1e-12 for a, b in zip(rates, rates[1:]))

    def test_decreasing_in_goods_count(self, small_sweep):
        _, table = small_sweep
        for s in (0.5, 1.0, 2.0):
            for r in np.linspace(0.0, 3.0, 16)[1:]:
                by_n = [
                    row[3]
                    for row in sorted(table.rows)
                    if row[1] == s and row[2] == float(r)
                ]
                assert all(b <= a + 1e-12 for a, b in zip(by_n, by_n[1:]))

    def test_decreasing_in_sigma(self, small_sweep):
        _, table = small_sweep
        for n in (2, 10, 100):
            for r in np.linspace(0.0, 3.0, 16)[1:]:
                by_sigma = [
                    row[3]
                    for row in sorted(table.rows)
                    if row[0] == n and row[2] == float(r)
                ]
                assert all(b <= a + 1e-12 for a, b in zip(by_sigma, by_sigma[1:]))

    def test_refused_cells_left_empty(self, tmp_path):
        # sigma=0.02 at r=3 needs a series order past the hard cap
        spec = SweepSpec(
            n_list=(2,),
            sigma_list=(0.02, 1.0),
            r_grid=np.linspace(0.0, 3.0, 4),
            output_dir=tmp_path,
        )
        table = sweep_rate(spec)
        empty = [row for row in table.rows if row[3] == ""]
        good = [row for row in table.rows if row[3] != ""]
        assert {row[1] for row in empty} == {0.02}
        assert {row[1] for row in good} == {1.0}
        note = (tmp_path / "rate_sweep_skipped.txt").read_text().splitlines()
        assert len(note) == 1
        assert note[0].startswith("skipped cell N=2 sigma=0.02: series truncation overflow")

    def test_columnar_write_equals_row_writer(self, tmp_path):
        # a refused cell (sigma=0.02), r = 0, the subnormal 5e-324, and
        # radii on both sides of the Horner/log-space split x = s^4/4 = 1
        r_grid = np.array([0.0, 5e-324, 0.7, 1.41, 1.42, 3.0])
        x = (r_grid / 1.0) ** 4 / 4.0
        assert np.any((x > 0.0) & (x <= HORNER_X_MAX)) and np.any(x > HORNER_X_MAX)
        spec = SweepSpec(
            n_list=(2, 5), sigma_list=(0.02, 1.0), r_grid=r_grid, output_dir=tmp_path
        )
        table = sweep_rate(spec)

        radii = r_grid.tolist()
        rows = []
        for n, s in [(2, 0.02), (2, 1.0), (5, 0.02), (5, 1.0)]:
            if s == 0.02:
                rows.extend((n, s, r, "") for r in radii)
                continue
            rate = build_rate(build_kernel(ModelParams(n, s, 3.0), r_max=3.0))
            values = np.atleast_1d(rate_coeff(rate, r_grid)).tolist()
            rows.extend((n, s, r, v) for r, v in zip(radii, values))
        assert table.rows == tuple(rows)

        write_csv(tmp_path / "rows.csv", ["N", "sigma", "r", "rate"], table.rows)
        columnar = (tmp_path / "rate_sweep.csv").read_bytes()
        assert columnar == (tmp_path / "rows.csv").read_bytes()
        assert table.write(tmp_path / "again.csv").read_bytes() == columnar

    def test_write_memory_is_bounded_by_blocks(self, tmp_path):
        # 6 cells x 16,385 points is 4 MB of CSV; streamed in blocks, the
        # peak holds one block of text, the radius column's text and one
        # float64 column per cell, where holding the table's text peaks
        # near 17 MB
        spec = SweepSpec((2, 10, 100), (0.5, 2.0), np.linspace(0.0, 4.0, 16385), tmp_path)
        sweep_rate(spec)  # first-call caches stay out of the measurement
        tracemalloc.start()
        try:
            table = sweep_rate(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (tmp_path / "rate_sweep.csv").stat().st_size > 3_900_000
        assert peak < 4 * 2**20
        for column in [table.radii, *(rates for _, _, rates in table.cells)]:
            assert column.dtype == np.float64 and not column.flags.writeable

    def test_unexpected_error_propagates(self, tmp_path, monkeypatch):
        # only a refused build is a skipped cell; anything else is a bug
        def broken(rate, r):
            raise RuntimeError("stub: broken rate")

        monkeypatch.setattr(sweep, "rate_coeff", broken)
        spec = SweepSpec(n_list=(2,), sigma_list=(1.0,), r_grid=[0.0, 1.0], output_dir=tmp_path)
        with pytest.raises(RuntimeError, match="stub: broken rate"):
            sweep_rate(spec)
        assert not (tmp_path / "rate_sweep_skipped.txt").exists()

    def test_spec_validation(self, tmp_path):
        with pytest.raises(ValueError):
            SweepSpec(n_list=(), sigma_list=(1.0,), r_grid=[1.0], output_dir=tmp_path)
        with pytest.raises(ValueError):
            SweepSpec(n_list=(2,), sigma_list=(1.0,), r_grid=[0.0], output_dir=tmp_path)
        # a grid of more than one dimension is refused, not paired row by row
        with pytest.raises(ValueError, match=r"one-dimensional, got shape \(2, 2\)"):
            SweepSpec((2,), (1.0,), [[0.0, 0.5], [1.0, 2.0]], tmp_path)
        # the first negative or non-finite radius is named
        for bad in (math.nan, math.inf, -1.0, -5e-324):
            with pytest.raises(ValueError, match=f"finite and >= 0, got r = {re.escape(repr(bad))}$"):
                SweepSpec((2,), (1.0,), [0.0, 1.0, bad, math.nan], tmp_path)
        # a scalar grid is one point
        spec = SweepSpec((2,), (1.0,), 0.5, tmp_path)
        assert spec.r_grid.shape == (1,)
        table = sweep_rate(spec)
        assert (tmp_path / "rate_sweep.csv").read_text().splitlines()[1:] == [
            f"2,1,0.5,{table.cells[0][2][0]:.17g}"
        ]

    @pytest.mark.parametrize("n", [0, -1, 2.5, np.float64(2.0)])
    def test_spec_rejects_bad_goods_counts(self, tmp_path, n):
        # refused at the boundary, not truncated by int() or left as an
        # empty cell
        with pytest.raises(ValueError, match="n_goods must be .*got " + re.escape(repr(n))):
            SweepSpec(n_list=(2, n), sigma_list=(1.0,), r_grid=[1.0], output_dir=tmp_path)

    @pytest.mark.parametrize("sigma", [-1.0, math.nan, 0.0, math.inf])
    def test_spec_rejects_bad_sigmas(self, tmp_path, sigma):
        with pytest.raises(ValueError, match="sigma must be .*got " + re.escape(repr(sigma))):
            SweepSpec(n_list=(2,), sigma_list=(1.0, sigma), r_grid=[1.0], output_dir=tmp_path)

    @pytest.mark.parametrize("axis", [["--n", "0"], ["--sigma=-1,nan,0"]])
    def test_cli_bad_axis_writes_nothing(self, tmp_path, axis):
        with pytest.raises(SystemExit, match="sweep: (n_goods|sigma) must"):
            main(["sweep", *axis, "--r-grid", "0:1:5", "--out", str(tmp_path)])
        assert not any(tmp_path.iterdir())


class TestRunVerify:
    def test_small_scope_passes(self, tmp_path, capsys):
        status = run_verify(
            tmp_path, n_list=(2,), sigma_list=(1.0,), radius_list=(1.0,), grid_points=120
        )
        assert status == 0
        out = capsys.readouterr().out
        assert "equivalence: PASS" in out
        assert "verify: PASS" in out
        for name in (
            "verify_equivalence.csv",
            "verify_bounds.csv",
            "verify_exact4d.csv",
            "verify_picard_bound.csv",
        ):
            assert (tmp_path / name).exists()
        bounds = (tmp_path / "verify_bounds.csv").read_text().splitlines()
        assert bounds[0] == "N,sigma,radius,r,bound_name,margin"
        assert len(bounds) == 1 + 4 * 120

    def test_bounds_csv_is_the_write_csv_rendering(self, tmp_path):
        # the bounds report is formatted by cell; write_csv of the report
        # rows is the reference, with an int sigma rendered as str() does
        run_verify(
            tmp_path,
            n_list=(2, 10),
            sigma_list=(1, 2.5),
            radius_list=(1.0,),
            grid_points=30,
            echo=lambda line: None,
        )
        rows = []
        for n in (2, 10):
            for s in (1, 2.5):
                kernel = build_kernel(ModelParams(n, s, 1.0), r_max=1.0)
                report = oracles.check_bounds(kernel, np.linspace(0.0, 1.0, 30))
                rows.extend((n, s, 1.0, *row) for row in report.rows)
        header = ["N", "sigma", "radius", "r", "bound_name", "margin"]
        write_csv(tmp_path / "rows.csv", header, rows)
        expected = (tmp_path / "rows.csv").read_bytes()
        assert (tmp_path / "verify_bounds.csv").read_bytes() == expected
        assert b"\n2,1,1,0," in expected

    @pytest.mark.parametrize("axis", ["n_list", "sigma_list", "radius_list"])
    def test_empty_axis_refused(self, tmp_path, axis):
        # an empty cross would otherwise pass the equivalence check vacuously
        with pytest.raises(ValueError, match="verify axes must be non-empty"):
            run_verify(tmp_path / "out", **{axis: ()})
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("grid_points", [0, 1])
    def test_too_few_grid_points_refused(self, tmp_path, grid_points):
        with pytest.raises(ValueError, match=f"grid_points must be >= 2, got {grid_points}"):
            run_verify(tmp_path / "out", grid_points=grid_points)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "axis,values,reason",
        [
            ("n_list", (2, 0), "n_goods must be >= 1, got 0"),
            ("sigma_list", (1.0, -1.0), "sigma must be a positive finite real, got -1.0"),
            ("radius_list", (1.0, 0.0), "radius must be a positive finite real, got 0.0"),
            ("sigma_list", (1.0, 1e-170), "exceeded for r_max=1.0, sigma=1e-170"),
        ],
    )
    def test_bad_cell_refused_before_any_work(self, tmp_path, monkeypatch, axis, values, reason):
        # the good cell comes first, so a late check would run its oracles
        calls = []
        for name in ("ode_solve", "picard_solve"):
            solve = getattr(sweep, name)
            monkeypatch.setattr(
                sweep, name, lambda *a, _n=name, _f=solve, **k: calls.append(_n) or _f(*a, **k)
            )
        axes = {"n_list": (2,), "sigma_list": (1.0,), "radius_list": (1.0,), axis: values}
        with pytest.raises(ValueError, match=re.escape(reason)):
            run_verify(tmp_path / "out", grid_points=20, echo=lambda line: None, **axes)
        assert not (tmp_path / "out").exists()
        assert calls == []

    def test_envelope_reads_each_cells_own_picard_run(self, tmp_path, monkeypatch):
        solved = []
        solve = sweep.picard_solve

        def counted(params, grid):
            solved.append(solve(params, grid))
            return solved[-1]

        monkeypatch.setattr(sweep, "picard_solve", counted)
        axes = ((1, 2), (1, 2.5), (1.0, 2.0))
        status = run_verify(tmp_path, *axes, grid_points=30, echo=lambda line: None)
        assert status == 0
        cells = list(itertools.product(*axes))
        assert len(solved) == len(cells) == 8
        rows = [
            (n, s, radius, k, measured,
             oracles.picard_step_bound(ModelParams(n, s, radius), radius, k))
            for (n, s, radius), picard in zip(cells, solved)
            for k, measured in enumerate(picard.sup_diffs)
        ]
        header = ["N", "sigma", "radius", "k", "measured_sup_diff", "analytic_bound"]
        write_csv(tmp_path / "rows.csv", header, rows)
        expected = (tmp_path / "rows.csv").read_bytes()
        assert (tmp_path / "verify_picard_bound.csv").read_bytes() == expected
        assert b"\n2,2.5,2,0," in expected

    @pytest.mark.parametrize(
        "inflate", [lambda bound: 2.0 * bound, lambda bound: math.nan], ids=["above", "nan"]
    )
    def test_fault_injection_names_envelope_cell_and_k(
        self, tmp_path, capsys, monkeypatch, inflate
    ):
        # cell N=10 reports a k=2 difference above the bound (or NaN); only
        # check (4) fails, and its line names that cell and k
        solve = sweep.picard_solve

        def inflated(params, grid):
            picard = solve(params, grid)
            if params.n_goods != 10:
                return picard
            diffs = list(picard.sup_diffs)
            diffs[2] = inflate(oracles.picard_step_bound(params, params.radius, 2))
            return dataclasses.replace(picard, sup_diffs=tuple(diffs))

        monkeypatch.setattr(sweep, "picard_solve", inflated)
        status = run_verify(
            tmp_path, n_list=(2, 10), sigma_list=(1.0,), radius_list=(1.0,), grid_points=30
        )
        assert status == 1
        lines = capsys.readouterr().out.splitlines()
        envelope = [ln for ln in lines if ln.startswith("picard")]
        assert len(envelope) == 1
        assert envelope[0].startswith(
            "picard factorial envelope: FAIL (cell N=10 sigma=1.0 R=1.0 k=2: "
        )
        assert lines[-1] == "verify: FAIL (1 failing check(s))"

    def test_fault_injection_names_bound_violation(self, tmp_path, capsys, monkeypatch, corrupt):
        build_kernel = sweep.build_kernel
        monkeypatch.setattr(sweep, "build_kernel", lambda *a, **k: corrupt(build_kernel(*a, **k)))
        status = run_verify(
            tmp_path, n_list=(2,), sigma_list=(1.0,), radius_list=(1.0,), grid_points=120
        )
        assert status != 0
        assert "bound violation" in capsys.readouterr().out


class TestRunSimulate:
    def test_artifacts_written(self, tmp_path):
        cfg = SimConfig(dt=1e-3, max_steps=50_000, n_paths=40, seed=9, y0=np.zeros(2))
        result = run_simulate(2, 1.0, 1.0, cfg, tmp_path, trace=True, n_trace_paths=3)
        summary = (tmp_path / "mc_summary.csv").read_text().splitlines()
        assert summary[0] == "mean,stderr,n_exited,n_paths,dt,seed"
        cells = summary[1].split(",")
        assert cells[3] == "40" and cells[5] == "9"
        svg = (tmp_path / "paths.svg").read_text()
        assert svg.count("<polyline") == 3
        assert "R = 1" in svg
        assert len(result["trace_files"]) == 3
        trace_lines = result["trace_files"][0].read_text().splitlines()
        assert trace_lines[0] == "t,y_1,y_2,cost"

    def test_list_and_array_curves_render_the_same(self):
        rng = np.random.default_rng(3)
        curves = [
            (np.linspace(0.0, 0.7, 50), np.abs(rng.standard_normal(50))),
            (np.linspace(0.0, 1.3, 80), np.abs(rng.standard_normal(80))),
            (np.empty(0), np.empty(0)),
        ]
        as_lists = [(list(t), [float(v) for v in norms]) for t, norms in curves]
        text = render_norm_paths(curves, 1.0, "paths")
        assert text.count("<polyline") == 2
        assert render_norm_paths(as_lists, 1.0, "paths") == text

    def test_no_exit_is_informational(self, tmp_path):
        # truncated horizon: summary written with n_exited=0, no exception
        cfg = SimConfig(dt=1e-6, max_steps=5, n_paths=1, seed=9, y0=np.zeros(2))
        result = run_simulate(2, 1.0, 1.0, cfg, tmp_path)
        assert result["n_exited"] == 0
        summary = (tmp_path / "mc_summary.csv").read_text().splitlines()[1]
        cells = summary.split(",")
        assert cells[0] == "nan" and cells[2] == "0"


class TestCli:
    def test_rate_single_value(self, capsys):
        assert main(["rate", "--n", "2", "--sigma", "1", "--r", "1.0"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "r,rate"
        assert float(out[1].split(",")[1]) == pytest.approx(0.24249961258080194)

    def test_rate_at_zero_radius(self, capsys):
        assert main(["rate", "--n", "2", "--sigma", "1", "--r", "0"]) == 0
        assert capsys.readouterr().out.splitlines() == ["r,rate", "0,0"]

    def test_rate_at_tiny_radius(self, capsys):
        assert main(["rate", "--n", "2", "--sigma", "1", "--r", "1e-200"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "r,rate" and len(out) == 2
        rho = float(out[1].split(",")[1])
        assert math.isfinite(rho) and rho >= 0.0

    def test_rate_stdout_equals_table_file(self, tmp_path, capsys):
        # one block of rows, then a grid that spans three blocks
        for steps in (65, 2 * CHUNK_ROWS + 3):
            argv = ["rate", "--n", "2", "--sigma", "1", "--r-grid", f"0:4:{steps}"]
            assert main(argv) == 0
            printed = capsys.readouterr().out
            assert main([*argv, "--out", str(tmp_path / str(steps))]) == 0
            assert printed == (tmp_path / str(steps) / "rate_table.csv").read_text()
            assert printed.startswith("r,rate\n0,0\n") and printed.count("\n") == steps + 1

    def test_cost_boundary_is_zero(self, capsys):
        assert main(
            ["cost", "--n", "2", "--sigma", "1", "--radius", "1", "--r0", "0,1"]
        ) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "r0,cost"
        assert float(lines[1].split(",")[1]) == pytest.approx(0.12309943837096261)
        assert float(lines[2].split(",")[1]) == 0.0

    def test_sweep_and_out_dir(self, tmp_path, capsys):
        code = main(
            ["sweep", "--n", "2", "--sigma", "1", "--r-grid", "0:1:5",
             "--out", str(tmp_path)]
        )
        assert code == 0
        assert (tmp_path / "rate_sweep.csv").exists()

    def test_simulate_with_config_precedence(self, tmp_path, capsys):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(
            "n=2\nsigma=1\nradius=1\npaths=24\nmax_steps=50000\nseed=77\ndt=5e-3\n"
        )
        code = main(
            ["simulate", "--config", str(cfg_file), "--dt", "1e-3",
             "--out", str(tmp_path / "sim")]
        )
        assert code == 0
        summary = (tmp_path / "sim" / "mc_summary.csv").read_text().splitlines()[1]
        cells = summary.split(",")
        assert cells[4] == "0.001"  # flag beats config file
        assert cells[5] == "77"  # config beats default
        assert cells[3] == "24"

    def test_simulate_tiny_dt_runs_to_the_horizon(self, tmp_path, capsys):
        # 3 R^2/(N sigma^2)/dt overflows to inf; the plot stride must not
        # convert it to an int before capping it by the horizon
        out = tmp_path / "sim"
        argv = ["simulate", "--dt", "1e-320", "--max-steps", "5", "--paths", "3"]
        assert main([*argv, "--out", str(out)]) == 0
        summary = (out / "mc_summary.csv").read_text().splitlines()
        assert summary[0].split(",")[2] == "n_exited"
        assert summary[1].split(",")[2] == "0"

    @pytest.mark.parametrize(
        "word,traced", [("false", False), ("true", True), ("Off", False)]
    )
    def test_simulate_config_trace_boolean(self, tmp_path, capsys, word, traced):
        # bool("false") is True: config words must be parsed, not truth-tested
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(f"paths=4\nmax_steps=2000\ndt=1e-2\ntrace={word}\n")
        out = tmp_path / "sim"
        assert main(["simulate", "--config", str(cfg_file), "--out", str(out)]) == 0
        assert bool(sorted(out.glob("trace_path*.csv"))) is traced

    def test_simulate_config_trace_rejects_unknown_word(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("paths=4\ntrace=maybe\n")
        with pytest.raises(SystemExit, match="hjb-planner simulate: bad --trace 'maybe'"):
            main(["simulate", "--config", str(cfg_file), "--out", str(tmp_path / "s")])
        assert not (tmp_path / "s").exists()

    def test_verify_exit_status(self, tmp_path, capsys):
        code = main(
            ["verify", "--n", "2", "--sigma", "1", "--radius", "1",
             "--grid-points", "80", "--out", str(tmp_path)]
        )
        assert code == 0

    def test_verify_oracle_failure_is_one_line_per_cell(self, tmp_path, capsys, monkeypatch):
        # sigma = 0.1: the direct ODE would overflow u, refused before any
        # Picard work; sigma = 0.5: the ODE runs but Picard, capped at 10
        # iterations, needs 19.  Neither cell may end in a traceback, and
        # neither adds an envelope row.
        monkeypatch.setattr(oracles, "_PICARD_MAX_ITER", 10)
        code = main(
            ["verify", "--n", "2", "--sigma", "0.1,0.5", "--radius", "2",
             "--grid-points", "50", "--out", str(tmp_path)]
        )
        assert code == 1
        lines = capsys.readouterr().out.splitlines()
        assert "Traceback" not in "\n".join(lines)
        cells = [ln for ln in lines if "cell " in ln]
        assert cells == [
            "equivalence: FAIL (cell N=2 sigma=0.1 R=2.0: direct integration range "
            "exceeded (u would overflow; use the logarithmic-derivative path))",
            "equivalence: FAIL (cell N=2 sigma=0.5 R=2.0: Picard not converged after 10 "
            "iterations (achieved sup-difference 9.489e-02, tol 1.000e-10))",
        ]
        assert lines[-1] == "verify: FAIL (2 failing check(s))"
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "verify_bounds.csv",
            "verify_equivalence.csv",
            "verify_exact4d.csv",
            "verify_failed_cells.csv",
            "verify_picard_bound.csv",
        ]
        with open(tmp_path / "verify_failed_cells.csv", newline="") as fh:
            failed = list(csv.reader(fh))
        assert failed[0] == ["N", "sigma", "radius", "reason"]
        assert [row[:3] for row in failed[1:]] == [
            ["2", "0.10000000000000001", "2"],
            ["2", "0.5", "2"],
        ]
        assert failed[1][3].startswith("direct integration range exceeded")
        assert failed[2][3].startswith("Picard not converged after 10 iterations")
        equivalence = (tmp_path / "verify_equivalence.csv").read_text().splitlines()
        assert equivalence == ["N,sigma,radius,series_vs_picard,series_vs_ode,picard_vs_ode"]

    def test_verify_ode_refusal_is_one_line(self, tmp_path, capsys, refusing_odeint):
        # the refusal arrives as an ODEintWarning; no warning may escape
        # the cell, which fails in one line while every report is written
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run_verify(
                tmp_path, n_list=(2,), sigma_list=(1.0,), radius_list=(1.0,), grid_points=50
            )
        assert code == 1
        lines = capsys.readouterr().out.splitlines()
        assert [ln for ln in lines if ln.startswith("equivalence")] == [
            "equivalence: FAIL (cell N=2 sigma=1.0 R=1.0: radial ODE integration failed: "
            f"{refusing_odeint})"
        ]
        assert lines[-1] == "verify: FAIL (1 failing check(s))"
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "verify_bounds.csv",
            "verify_equivalence.csv",
            "verify_exact4d.csv",
            "verify_failed_cells.csv",
            "verify_picard_bound.csv",
        ]

    def test_verify_picard_failure_is_reported_once(self, tmp_path, capsys, monkeypatch):
        # the cell (N=2, sigma=1, R=1) needs 5 Picard iterations; capped at
        # 4 it raises, which fails its equivalence cell and adds no envelope
        # row, so check (4) has nothing to report
        monkeypatch.setattr(oracles, "_PICARD_MAX_ITER", 4)
        code = main(
            ["verify", "--n", "2", "--sigma", "1", "--radius", "1",
             "--grid-points", "50", "--out", str(tmp_path)]
        )
        assert code == 1
        captured = capsys.readouterr()
        assert "Traceback" not in captured.out + captured.err
        lines = captured.out.splitlines()
        failed = [ln for ln in lines if ln.startswith("equivalence: FAIL")]
        assert len(failed) == 1
        assert failed[0].startswith(
            "equivalence: FAIL (cell N=2 sigma=1.0 R=1.0: Picard not converged after 4 iterations"
        )
        assert not [ln for ln in lines if ln.startswith("picard")]
        assert lines[-1] == "verify: FAIL (1 failing check(s))"
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "verify_bounds.csv",
            "verify_equivalence.csv",
            "verify_exact4d.csv",
            "verify_failed_cells.csv",
            "verify_picard_bound.csv",
        ]
        picard_bound = (tmp_path / "verify_picard_bound.csv").read_text().splitlines()
        assert picard_bound == ["N,sigma,radius,k,measured_sup_diff,analytic_bound"]

    @pytest.mark.parametrize("verb", ["rate", "sweep"])
    def test_empty_r_grid_rejected(self, tmp_path, verb):
        with pytest.raises(SystemExit, match=f"hjb-planner {verb}: bad --r-grid '0:1:0'"):
            main([verb, "--r-grid", "0:1:0", "--out", str(tmp_path)])

    @pytest.mark.parametrize(
        "argv,reason",
        [
            (["rate", "--n", "0", "--r", "1"], "hjb-planner rate: n_goods must be >= 1, got 0"),
            (["rate", "--n", "2", "--sigma", "-1", "--r", "1"], "hjb-planner rate: sigma .*-1"),
            (["cost", "--n", "2", "--radius", "1", "--r0", "2"], r"hjb-planner cost: .*r0 = 2\.0"),
            (["sweep", "--n", "x"], "hjb-planner sweep: .*'x'"),
            (["cost", "--n", "2", "--radius", "1", "--r0", "-1"], r"hjb-planner cost: .*r = -1\.0"),
            (["simulate", "--n", "2", "--y0", "0,0,0"], "hjb-planner simulate: .*3 components"),
            (["verify", "--n", "0"], "hjb-planner verify: n_goods must be >= 1, got 0"),
            (["verify", "--n", "2,0"], "hjb-planner verify: n_goods must be >= 1, got 0"),
            (["verify", "--sigma", "-1"], "hjb-planner verify: sigma .*got -1.0"),
            (["verify", "--radius", "0"], "hjb-planner verify: radius .*got 0.0"),
            # the default dt is not computed when --dt is given, and never
            # divides by an underflowed sigma^2
            (["simulate", "--sigma", "1e-170", "--dt", "1e-3"],
             "hjb-planner simulate: series truncation overflow: .*sigma=1e-170"),
            (["simulate", "--sigma", "1e-170"],
             "hjb-planner simulate: series truncation overflow: .*sigma=1e-170"),
            (["simulate", "--radius", "1e-170", "--sigma", "1e-170", "--dt", "1e-3",
              "--max-steps", "5"], "hjb-planner simulate: stopping radius 1e-170 is below"),
            (["simulate", "--radius", "1e-170", "--sigma", "1e-165"],
             "hjb-planner simulate: stopping radius 1e-170 is below"),
            # the default dt underflows to 0: below the radius floor the
            # floor refuses R, above it the line names R and sigma, not dt
            (["simulate", "--radius", "1e-170"],
             "hjb-planner simulate: stopping radius 1e-170 is below 1.492e-154"),
            (["simulate", "--radius", "1e-150", "--sigma", "1e20"],
             r"hjb-planner simulate: .*R=1e-150, sigma=1e\+20: give --dt"),
            (["verify", "--n", "2", "--sigma", "1,1e-170", "--radius", "1"],
             "hjb-planner verify: series truncation overflow: .*sigma=1e-170"),
            (["sweep", "--r-grid", "bad"], "hjb-planner sweep: bad --r-grid 'bad'"),
            (["rate", "--n", "2.5", "--r", "1"], "hjb-planner rate: bad --n '2.5'"),
            # a comma list with no values, not an empty run or the origin
            (["cost", "--n", "2", "--radius", "1", "--r0", ","],
             "hjb-planner cost: bad --r0 ',': want at least one value"),
            (["simulate", "--y0", ","],
             "hjb-planner simulate: bad --y0 ',': want at least one value"),
            # a radius either verb cannot take is refused by radius_grid where
            # its flag is parsed, naming the flag and the first bad radius;
            # a grid's ends are checked before np.linspace, which would warn
            # on an infinite end
            (["rate", "--r", "-1"],
             r"hjb-planner rate: bad --r '-1': radii must be finite and >= 0, got r = -1\.0$"),
            (["rate", "--r", "nan"],
             "hjb-planner rate: bad --r 'nan': radii must be finite and >= 0, got r = nan$"),
            (["rate", "--r", "inf"],
             "hjb-planner rate: bad --r 'inf': radii must be finite and >= 0, got r = inf$"),
            (["rate", "--r-grid", "0:nan:3"],
             "hjb-planner rate: bad --r-grid '0:nan:3': radii must be finite and >= 0, got r = nan$"),
            (["rate", "--r-grid", "0:inf:3"],
             "hjb-planner rate: bad --r-grid '0:inf:3': radii must be finite and >= 0, got r = inf$"),
            (["sweep", "--r-grid", "0:inf:3"],
             "hjb-planner sweep: bad --r-grid '0:inf:3': radii must be finite and >= 0, got r = inf$"),
            (["rate", "--r-grid=-inf:1:3"],
             "hjb-planner rate: bad --r-grid '-inf:1:3': radii must be finite and >= 0, got r = -inf$"),
            (["rate", "--r-grid=-1e308:1e308:3"],
             r"hjb-planner rate: bad --r-grid '-1e308:1e308:3': "
             r"radii must be finite and >= 0, got r = -1e\+308$"),
            # a negative value only in the = form: argparse reads -1:1:3 or
            # -5e-324 as a flag
            (["rate", "--r=-5e-324"],
             "hjb-planner rate: bad --r '-5e-324': radii must be finite and >= 0, got r = -5e-324$"),
            (["rate", "--r-grid=-1:1:3"],
             r"hjb-planner rate: bad --r-grid '-1:1:3': radii must be finite and >= 0, got r = -1\.0$"),
            (["rate", "--r-grid=-5e-324:1:3"],
             "hjb-planner rate: bad --r-grid '-5e-324:1:3': "
             "radii must be finite and >= 0, got r = -5e-324$"),
            (["sweep", "--r-grid", "0:nan:3"],
             "hjb-planner sweep: bad --r-grid '0:nan:3': radii must be finite and >= 0, got r = nan$"),
            (["sweep", "--r-grid=-1:1:3"],
             r"hjb-planner sweep: bad --r-grid '-1:1:3': radii must be finite and >= 0, got r = -1\.0$"),
            (["sweep", "--r-grid=-5e-324:1:3"],
             "hjb-planner sweep: bad --r-grid '-5e-324:1:3': "
             "radii must be finite and >= 0, got r = -5e-324$"),
            # cost's start radii go through the same rule, not the kernel's
            # range check or the boundary test
            (["cost", "--r0", "nan"],
             "hjb-planner cost: bad --r0 'nan': radii must be finite and >= 0, got r = nan$"),
            (["cost", "--r0", "inf"],
             "hjb-planner cost: bad --r0 'inf': radii must be finite and >= 0, got r = inf$"),
            (["cost", "--r0=-5e-324"],
             "hjb-planner cost: bad --r0 '-5e-324': radii must be finite and >= 0, got r = -5e-324$"),
        ],
    )
    def test_refused_value_is_one_line(self, tmp_path, capsys, argv, reason):
        # --out only to a verb that declares it; cost prints to stdout
        out = tmp_path / "out"
        declared = [flag for flag, *_ in cli.OPTIONS[argv[0]][1]]
        with pytest.raises(SystemExit, match=reason):
            main([*argv, *(["--out", str(out)] if "--out" in declared else [])])
        assert capsys.readouterr().out == ""
        assert not out.exists()

    def test_rate_requires_radius_argument(self):
        with pytest.raises(SystemExit, match="hjb-planner rate: provide --r or --r-grid"):
            main(["rate", "--n", "2", "--sigma", "1"])

    def test_bad_config_line_is_one_line(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("paths=4\njunk\n")
        with pytest.raises(SystemExit, match="hjb-planner simulate: bad config line .*'junk'"):
            main(["simulate", "--config", str(cfg_file), "--out", str(tmp_path / "s")])
        assert not (tmp_path / "s").exists()

    @pytest.mark.parametrize(
        "config,reason",
        [
            ("none.cfg", r"bad --config '.*none\.cfg': No such file or directory"),
            (".", r"bad --config '.*': Is a directory"),
            ("paths=4\npath=3\n", r"config key 'path' in '.*run\.cfg' names no option"),
            ("max-step=5\n", r"config key 'max-step' in '.*run\.cfg' names no option"),
            ("y0=\n", "bad --y0 '': want at least one value"),
        ],
        ids=["missing", "directory", "key-path", "key-max-step", "empty-y0"],
    )
    def test_bad_config_file_is_one_line(self, tmp_path, capsys, config, reason):
        # a file that cannot be read, or a key naming no option of the verb
        path = tmp_path / config
        if config.endswith("\n"):
            path = tmp_path / "run.cfg"
            path.write_text(config)
        with pytest.raises(SystemExit, match="hjb-planner simulate: " + reason):
            main(["simulate", "--config", str(path), "--out", str(tmp_path / "s")])
        assert capsys.readouterr().out == ""
        assert not (tmp_path / "s").exists()

    def test_cost_takes_no_out(self, tmp_path, capsys):
        # cost prints its table to stdout: --out and an out= config line are refused
        cfg = tmp_path / "cost.cfg"
        cfg.write_text("out=elsewhere\n")
        with pytest.raises(SystemExit, match=r"cost: config key 'out' in '.*cost\.cfg' names no"):
            main(["cost", "--config", str(cfg)])
        with pytest.raises(SystemExit) as info:
            main(["cost", "--out", str(tmp_path / "o")])
        assert info.value.code == 2 and "unrecognized arguments: --out" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cost.cfg"]

    @pytest.mark.parametrize("verb", ["rate", "sweep", "simulate", "verify", "cost"])
    def test_help_lists_every_default(self, capsys, verb):
        with pytest.raises(SystemExit):
            main([verb, "--help"])
        text = " ".join(capsys.readouterr().out.split())
        for flag, _, default, _ in cli.OPTIONS[verb][1]:
            if default is not None:
                assert f"{flag} " in text and f"(default {default})" in text


def test_cli_import_loads_no_scipy():
    # scipy serves only the oracles' ODE solves, so simulate, sweep and rate
    # start without it
    code = (
        "import sys, hjb_planner.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(hjb_planner.__file__).parents[1]))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"
