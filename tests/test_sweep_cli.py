import math

import numpy as np
import pytest

from hjb_planner import SweepSpec, run_simulate, run_verify, sweep, sweep_rate
from hjb_planner.cli import main
from hjb_planner.simulate import SimConfig
from hjb_planner.sweep import _thread_cap


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

    def test_thread_cap_does_not_change_output(self, tmp_path, monkeypatch, small_sweep):
        spec, _ = small_sweep
        serial = (spec.output_dir / "rate_sweep.csv").read_bytes()
        monkeypatch.setenv("HJB_PLANNER_THREADS", "4")
        threaded_spec = SweepSpec(
            n_list=spec.n_list,
            sigma_list=spec.sigma_list,
            r_grid=spec.r_grid,
            output_dir=tmp_path,
        )
        sweep_rate(threaded_spec)
        assert (tmp_path / "rate_sweep.csv").read_bytes() == serial

    def test_thread_cap_unset_is_serial(self, monkeypatch):
        monkeypatch.delenv("HJB_PLANNER_THREADS", raising=False)
        assert _thread_cap() == 1
        monkeypatch.setenv("HJB_PLANNER_THREADS", "3")
        assert _thread_cap() == 3

    @pytest.mark.parametrize("raw", ["abc", "4x", "0", "-3", ""])
    def test_thread_cap_rejects_non_positive_integers(self, monkeypatch, raw):
        monkeypatch.setenv("HJB_PLANNER_THREADS", raw)
        with pytest.raises(ValueError, match=f"HJB_PLANNER_THREADS .* got '{raw}'"):
            _thread_cap()


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

    def test_fault_injection_names_bound_violation(self, tmp_path, capsys):
        status = run_verify(
            tmp_path,
            n_list=(2,),
            sigma_list=(1.0,),
            radius_list=(1.0,),
            grid_points=120,
            inject_fault=True,
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

    def test_rate_requires_radius_argument(self):
        with pytest.raises(SystemExit):
            main(["rate", "--n", "2", "--sigma", "1"])
