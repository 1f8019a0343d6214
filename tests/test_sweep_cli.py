import csv
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hjb_planner
from hjb_planner import SweepSpec, run_simulate, run_verify, sweep, sweep_rate
from hjb_planner.cli import main
from hjb_planner.simulate import SimConfig


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

    @pytest.mark.parametrize("n", [0, -1, 2.5, np.float64(2.0)])
    def test_spec_rejects_bad_goods_counts(self, tmp_path, n):
        # refused at the boundary, not truncated by int() or left as an
        # empty cell
        with pytest.raises(ValueError, match="sweep N .*got " + re.escape(repr(n))):
            SweepSpec(n_list=(2, n), sigma_list=(1.0,), r_grid=[1.0], output_dir=tmp_path)

    @pytest.mark.parametrize("sigma", [-1.0, math.nan, 0.0, math.inf])
    def test_spec_rejects_bad_sigmas(self, tmp_path, sigma):
        with pytest.raises(ValueError, match="sweep sigma .*got " + re.escape(repr(sigma))):
            SweepSpec(n_list=(2,), sigma_list=(1.0, sigma), r_grid=[1.0], output_dir=tmp_path)

    @pytest.mark.parametrize("axis", [["--n", "0"], ["--sigma=-1,nan,0"]])
    def test_cli_bad_axis_writes_nothing(self, tmp_path, axis):
        with pytest.raises(SystemExit, match="sweep (N|sigma) .*must"):
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

    @pytest.mark.parametrize("axis", ["n_list", "sigma_list", "radius_list"])
    def test_empty_axis_refused(self, tmp_path, axis):
        # an empty cross would otherwise pass the equivalence check vacuously
        with pytest.raises(ValueError, match="verify axes must be non-empty"):
            run_verify(tmp_path / "out", **{axis: ()})
        assert not (tmp_path / "out").exists()

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
        with pytest.raises(SystemExit, match="trace"):
            main(["simulate", "--config", str(cfg_file), "--out", str(tmp_path / "s")])
        assert not (tmp_path / "s").exists()

    def test_verify_exit_status(self, tmp_path, capsys):
        code = main(
            ["verify", "--n", "2", "--sigma", "1", "--radius", "1",
             "--grid-points", "80", "--out", str(tmp_path)]
        )
        assert code == 0

    def test_verify_oracle_failure_is_one_line_per_cell(self, tmp_path, capsys):
        # sigma = 0.1: Picard diverges; sigma = 0.15: Picard converges but
        # the direct ODE would overflow u.  Neither may end in a traceback.
        code = main(
            ["verify", "--n", "2", "--sigma", "0.1,0.15", "--radius", "2",
             "--grid-points", "50", "--out", str(tmp_path)]
        )
        assert code == 1
        lines = capsys.readouterr().out.splitlines()
        assert "Traceback" not in "\n".join(lines)
        cells = [ln for ln in lines if "cell " in ln]
        assert cells == [
            "equivalence: FAIL (cell N=2 sigma=0.1 R=2.0: Picard not converged after 200 "
            "iterations (achieved sup-difference 8.161e+111, tol 1.000e-10))",
            "equivalence: FAIL (cell N=2 sigma=0.15 R=2.0: direct integration range "
            "exceeded (u would overflow; use the logarithmic-derivative path))",
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
            ["2", "0.14999999999999999", "2"],
        ]
        assert failed[1][3].startswith("Picard not converged after 200 iterations")
        assert failed[2][3].startswith("direct integration range exceeded")
        equivalence = (tmp_path / "verify_equivalence.csv").read_text().splitlines()
        assert equivalence == ["N,sigma,radius,series_vs_picard,series_vs_ode,picard_vs_ode"]

    @pytest.mark.parametrize("verb", ["rate", "sweep"])
    def test_empty_r_grid_rejected(self, tmp_path, verb):
        with pytest.raises(SystemExit, match="bad --r-grid '0:1:0'"):
            main([verb, "--r-grid", "0:1:0", "--out", str(tmp_path)])

    @pytest.mark.parametrize(
        "argv,reason",
        [
            (["rate", "--n", "0", "--r", "1"], "hjb-planner rate: n_goods must be >= 1, got 0"),
            (["rate", "--n", "2", "--sigma", "-1", "--r", "1"], "hjb-planner rate: sigma .*-1"),
            (["cost", "--n", "2", "--radius", "1", "--r0", "2"], r"hjb-planner cost: .*r0 = 2\.0"),
            (["sweep", "--n", "x"], "hjb-planner sweep: .*'x'"),
            (["cost", "--n", "2", "--radius", "1", "--r0", "-1"], r"hjb-planner cost: .*r = -1\.0"),
        ],
    )
    def test_refused_value_is_one_line(self, tmp_path, capsys, argv, reason):
        out = tmp_path / "out"
        with pytest.raises(SystemExit, match=reason):
            main([*argv, "--out", str(out)])
        assert capsys.readouterr().out == ""
        assert not out.exists()

    def test_rate_requires_radius_argument(self):
        with pytest.raises(SystemExit):
            main(["rate", "--n", "2", "--sigma", "1"])


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
