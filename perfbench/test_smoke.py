"""Smoke tests for the benchmark: every workload at a tiny size (`--size
smoke`) emits every metric BENCHMARK.json names, each with its unit, and
passes its correctness checks.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
REPORTED = (
    "wall_s", "setup_s", "peak_rss_mb", "failed_frac",
    "mc.cost_rel_err", "sweep.rate_max_rel_err", "verify.worst_rel_diff",
)
ACCURACY = {
    "mc_first_exit": "mc.cost_rel_err",
    "mc_many_goods": "mc.cost_rel_err",
    "sweep_rates": "sweep.rate_max_rel_err",
    "verify_gate": "verify.worst_rel_diff",
}


def _bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), "--size", "smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_emitted_with_unit(workload, trace):
    proc = _bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1

    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for spec in declared:
        metric = result["metrics"][spec["name"]]
        assert metric["unit"] == spec["unit"]
        assert isinstance(metric["value"], (int, float))

    # the lines before the result report all seven end-to-end metrics by name and unit
    reported = {ln.split()[1]: ln.split()[2:] for ln in lines if ln.startswith("metric ")}
    assert set(reported) == set(REPORTED)
    assert all(len(fields) == 2 for fields in reported.values())
    assert reported[ACCURACY[workload]][0] != "n/a"
    assert any(ln.startswith("meta ") for ln in lines)


def test_traced_mc_run_counts_steps_and_normals():
    result = json.loads(_bench("mc_first_exit", 1).stdout.strip().splitlines()[-1])
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["simulate.steps"] > 0
    assert metrics["rng.normals.calls"] >= metrics["simulate.steps"]
    assert 0.0 < metrics["simulate.lane_util"] <= 1.0
    assert metrics["rate.build_rate.calls"] == 1


def test_fails_without_library_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
