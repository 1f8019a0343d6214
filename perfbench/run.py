"""End-to-end benchmark of the hjb-planner `simulate`, `sweep` and `verify` verbs.

    python3 perfbench/run.py --workload NAME [--seed 42] [--seconds 20] [--trace 0|1]

Run from the root of a source checkout; the library is imported from
`src/`, never from an installed copy.  Each workload is a closed loop with
one client: a fresh interpreter (perfbench/child.py) imports the package
and calls `hjb_planner.cli.main` again, one call at a time, as long as
another call fits in `--seconds`, serially with HJB_PLANNER_THREADS unset.
The Monte Carlo workloads give the CLI `--seed` for the first call and
seeds drawn from it for the rest; `sweep_rates` and `verify_gate` have no
random inputs and only record the seed.  Every call's artifacts are checked (see `_check`).

With `--trace 0` the result line carries the end-to-end metrics: medians
over the run's calls of `wall_s` (the `cli.main` call), `setup_s`
(interpreter start until the package is imported and the argv built,
sampled at least MIN_SETUP_SAMPLES times) and `peak_rss_mb`.  The lines
before it report the accuracy metrics and `failed_frac` as well.  With
`--trace 1` untraced calls and then traced calls run on one input for
half of `--seconds` each; the traced calls record spans around every
layer (perfbench/layers.py), their artifacts must equal the untraced
calls' byte for byte, and the result line carries the per-layer metrics
of the first traced call and `trace.overhead_frac`, the ratio of the two
median call times minus 1.

The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.  An operation is a path that did not
exit, a sweep cell, a verify check or one of the benchmark's own checks.
Run records with machine metadata are appended to
`.perfbench_out/results.jsonl`.  `--size smoke` swaps in tiny inputs for
the smoke tests in this directory.
"""

from __future__ import annotations

import argparse
import csv
import filecmp
import json
import math
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from child import MAX_CALLS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_ROOT = ROOT / ".perfbench_out"
CHILD = HERE / "child.py"

MIN_SETUP_SAMPLES = 5
RUN_DEADLINE_S = 170.0
SWEEP_REL_TOL = 1e-8  # the README's agreement claim for the two rho routes

# Sizes are cut from the CLI configurations they stand for so that several
# calls fit in one run; each keeps the regime it was chosen for.
WORKLOADS = {
    # N=2 model point of criterion 7: per-step overhead, the straggler tail
    # and the plot-path rerun; rate_coeff in small quotient-branch batches.
    # dt is 20x the CLI default so one call takes ~1 s instead of ~17 s and a
    # run's median spans ~20 seeds of the straggler-driven call time.
    "mc_first_exit": {
        "kind": "mc",
        "full": "simulate --n 2 --sigma 1 --radius 1 --paths 1000 --dt 2e-3",
        "smoke": "simulate --n 2 --sigma 1 --radius 1 --paths 20 --dt 1e-2",
    },
    # N=100: exit times concentrate, few wide steps, so the Philox kernel's
    # throughput dominates (1200 of the 6000 paths of the full-size run).
    "mc_many_goods": {
        "kind": "mc",
        "full": "simulate --n 100 --sigma 1 --radius 1 --paths 1200",
        "smoke": "simulate --n 100 --sigma 1 --radius 1 --paths 20",
    },
    # build_rate (RK4 table up to 65,537 nodes at N=100), lookups on a dense
    # grid with 63% of the points in rho's tail branch, and 4 MB of CSV.
    "sweep_rates": {
        "kind": "sweep",
        "full": "sweep --n 2,10,100 --sigma 0.5,2 --r-grid 0:4:16385",
        "smoke": "sweep --n 2,100 --sigma 1 --r-grid 0:2:33",
    },
    # The only workload that reaches the oracles; the sigma=0.5, R=2 cells
    # hold most of the Picard time of the full acceptance cross.
    "verify_gate": {
        "kind": "verify",
        "full": "verify --n 1,2,4,10,100 --sigma 0.5 --radius 2",
        "smoke": "verify --n 2 --sigma 1 --radius 1 --grid-points 20",
    },
}

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "failed_frac": "ratio",
    "mc.cost_rel_err": "ratio",
    "sweep.rate_max_rel_err": "ratio",
    "verify.worst_rel_diff": "ratio",
}
GATED = ("wall_s", "setup_s", "peak_rss_mb")  # the result line's end-to-end metrics


class BenchError(RuntimeError):
    """The run could not be measured; no result is printed."""


class Tally:
    """Operations attempted and failed, with a note per failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def ops(self, attempted: int, failed: int, what: str) -> None:
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.problems.append(f"{failed} {what}")

    def check(self, ok: bool, what: str) -> None:
        self.ops(1, 0 if ok else 1, f"failed check: {what}")


def _flag(argv: list[str], name: str) -> str:
    return argv[argv.index(name) + 1]


def _invoke(work: Path, tag: str, mode: str, argv: list[str], seconds: float,
            seeds: list[int] | None, deadline: float) -> dict:
    """Run one child interpreter (perfbench/child.py) and return its set-up
    time, peak RSS and calls, each with its artifact directory."""
    result_path, log_path = work / f"{tag}.json", work / f"{tag}.log"
    env = dict(os.environ)
    env.pop("HJB_PLANNER_THREADS", None)
    seed_arg = ",".join(map(str, seeds)) if seeds else "-"
    cmd = [sys.executable, str(CHILD), str(result_path), str(SRC), mode, str(seconds),
           str(work / tag), seed_arg, "--", *argv]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("run deadline passed before the next call")
    with open(log_path, "w") as log:
        spawn = time.monotonic()
        try:
            proc = subprocess.run(cmd, stdout=log, env=env, cwd=work, timeout=timeout)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{tag}: calls exceeded the run deadline") from exc
    if proc.returncode != 0:
        raise BenchError(f"{tag}: child exited with {proc.returncode} ({' '.join(argv)})")
    res = json.loads(result_path.read_text())
    if Path(res["module"]).resolve().parent.parent != SRC.resolve():
        raise BenchError(f"imported {res['module']}, not the checkout's src/")
    res["setup_s"] = res["ready"] - spawn
    res["rss_mb"] = res["maxrss_kb"] / 1024.0
    res["log"] = log_path
    res["calls"] = [
        {"out": work / tag / f"call{i}", "rc": rc, "wall_s": wall}
        for i, (rc, wall) in enumerate(zip(res["rc"], res["wall_s"]))
    ]
    return res


def _library():
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import hjb_planner

    return hjb_planner


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _same_tree(a: Path, b: Path) -> bool:
    names_a = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
    names_b = sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file())
    return names_a == names_b and all(
        filecmp.cmp(a / n, b / n, shallow=False) for n in names_a
    )


def _check_mc(call: dict, argv: list[str], tally: Tally) -> float:
    """Every path exits, the mean is finite, the stderr positive; returns the mean."""
    (row,) = _read_csv(call["out"] / "mc_summary.csv")
    n_paths, n_exited = int(row["n_paths"]), int(row["n_exited"])
    mean, stderr = float(row["mean"]), float(row["stderr"])
    tally.ops(n_paths, n_paths - n_exited, "paths did not exit")
    tally.check(n_paths == int(_flag(argv, "--paths")), "mc_summary n_paths")
    tally.check(math.isfinite(mean), "finite MC mean")
    tally.check(math.isfinite(stderr) and stderr > 0.0, "positive MC stderr")
    return mean


def _mc_target(argv: list[str]) -> float:
    """The exact expected cost 2 sigma^2 ln u(R) from the origin."""
    lib = _library()
    params = lib.ModelParams(
        n_goods=int(_flag(argv, "--n")),
        sigma=float(_flag(argv, "--sigma")),
        radius=float(_flag(argv, "--radius")),
    )
    return float(lib.expected_optimal_cost(lib.build_kernel(params, r_max=params.radius), 0.0))


def _check_sweep(call: dict, argv: list[str], tally: Tally) -> float:
    """No skipped cells, rates in [0, 1), nondecreasing in r, and within
    SWEEP_REL_TOL of sigma^2 u'/(r u); returns the worst relative gap."""
    import numpy as np

    lib = _library()
    n_list = [int(t) for t in _flag(argv, "--n").split(",")]
    sigma_list = [float(t) for t in _flag(argv, "--sigma").split(",")]
    cells: dict = {}
    for row in _read_csv(call["out"] / "rate_sweep.csv"):
        cells.setdefault((int(row["N"]), float(row["sigma"])), []).append(
            (float(row["r"]), float(row["rate"]) if row["rate"] else math.nan)
        )
    skipped = sum(
        1 for key in ((n, s) for n in n_list for s in sigma_list)
        if key not in cells or any(math.isnan(v) for _, v in cells[key])
    )
    tally.ops(len(n_list) * len(sigma_list), skipped, "sweep cells skipped")
    tally.check(not (call["out"] / "rate_sweep_skipped.txt").exists(), "no skipped-cell notes")
    worst = 0.0
    in_range = monotone = True
    for (n, s), pairs in cells.items():
        r, rate = np.array(pairs).T
        in_range &= bool(np.all((rate >= 0.0) & (rate < 1.0)))
        monotone &= bool(np.all(np.diff(rate) >= 0.0))
        r_max = float(np.max(r))
        kernel = lib.build_kernel(lib.ModelParams(n_goods=n, sigma=s, radius=r_max), r_max=r_max)
        pos = r > 0.0
        ref = s * s * lib.eval_u_prime(kernel, r[pos]) / (r[pos] * lib.eval_u(kernel, r[pos]))
        worst = max(worst, float(np.max(np.abs(rate[pos] - ref) / ref)))
        in_range &= bool(np.all(rate[~pos] == 0.0))
    tally.check(in_range, "every rate in [0, 1), 0 at r = 0")
    tally.check(monotone, "rate nondecreasing in r within each cell")
    tally.check(worst <= SWEEP_REL_TOL, f"swept rho within {SWEEP_REL_TOL:g} of sigma^2 u'/(r u)")
    return worst


def _check_verify(child: dict, tally: Tally) -> float:
    """Exit status 0 and every gate check passing, for each call; returns
    the worst pairwise relative difference in verify_equivalence.csv."""
    lines = child["log"].read_text().splitlines()
    gate = [ln for ln in lines if (": PASS" in ln or ": FAIL" in ln)]
    gate = [ln for ln in gate if not ln.startswith("verify:")]
    tally.ops(len(gate), sum(": FAIL" in ln for ln in gate), "verify checks failed")
    tally.check(len(gate) >= len(child["calls"]), "verify reported its checks")
    worst = 0.0
    cols = ("series_vs_picard", "series_vs_ode", "picard_vs_ode")
    for call in child["calls"]:
        tally.check(call["rc"] == 0, "verify exit status 0")
        rows = _read_csv(call["out"] / "verify_equivalence.csv")
        worst = max([worst] + [float(row[c]) for row in rows for c in cols])
    return worst


def _check(kind: str, children: list[dict], argv: list[str], tally: Tally) -> dict:
    """Check every call's artifacts; returns the workload's accuracy metric."""
    calls = [call for child in children for call in child["calls"]]
    if kind == "mc":
        means = [_check_mc(call, argv, tally) for call in calls]
        target = _mc_target(argv)
        # all calls have the same path count, so this is the pooled mean
        return {"mc.cost_rel_err": abs(statistics.fmean(means) - target) / target}
    if kind == "sweep":
        worst = _check_sweep(calls[0], argv, tally)
        for call in calls[1:]:  # deterministic: later calls must repeat the first
            tally.check(_same_tree(calls[0]["out"], call["out"]), "sweep rerun byte-identical")
        return {"sweep.rate_max_rel_err": worst}
    return {"verify.worst_rel_diff": max(_check_verify(child, tally) for child in children)}


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _metadata(seed: int, child: dict) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": child["numpy"],
        "scipy": child["scipy"],
        "git_commit": _git_commit(),
        "seed": seed,
        "HJB_PLANNER_THREADS": "unset",
    }


def _call_seeds(spec: dict, seed: int) -> list[int] | None:
    """For the MC workloads, the benchmark seed and then seeds drawn
    deterministically from it; the other workloads take no seed."""
    if spec["kind"] != "mc":
        return None
    draw = random.Random(seed)
    return [seed] + [draw.getrandbits(63) for _ in range(MAX_CALLS - 1)]


def _run_untraced(spec, argv, seed, seconds, work, deadline, tally):
    """Closed-loop calls for `seconds` in one interpreter, then setup-only
    interpreters until there are MIN_SETUP_SAMPLES set-up times."""
    child = _invoke(work, "calls", "run", argv, seconds, _call_seeds(spec, seed), deadline)
    setups = [child["setup_s"]]
    for i in range(MIN_SETUP_SAMPLES - 1):
        setups.append(_invoke(work, f"setup{i}", "setup", [], 0, None, deadline)["setup_s"])
    walls = [call["wall_s"] for call in child["calls"]]
    report = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": child["rss_mb"],
        **_check(spec["kind"], [child], argv, tally),
    }
    return child, report, {"wall_s": walls, "setup_s": setups}


def _run_traced(spec, argv, seed, seconds, work, deadline, tally):
    """Untraced calls, then traced calls, on one input for `seconds`/2 each;
    the per-layer metrics come from the first traced call."""
    from layers import layer_metrics

    seeds = [seed] * MAX_CALLS if spec["kind"] == "mc" else None
    plain = _invoke(work, "plain", "run", argv, seconds / 2, seeds, deadline)
    traced = _invoke(work, "traced", "trace", argv, seconds / 2, seeds, deadline)
    report = _check(spec["kind"], [plain, traced], argv, tally)
    tally.check(
        _same_tree(plain["calls"][0]["out"], traced["calls"][0]["out"]),
        "traced artifacts byte-identical",
    )
    walls = [call["wall_s"] for call in plain["calls"]]
    traced_walls = [call["wall_s"] for call in traced["calls"]]
    overhead = statistics.median(traced_walls) / statistics.median(walls) - 1.0
    layers = layer_metrics(traced["spans"], overhead)
    return plain, report, layers, {"wall_s": walls, "traced_wall_s": traced_walls}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**63:
        parser.error("--seed must be in [0, 2^63)")
    if not (SRC / "hjb_planner" / "cli.py").is_file():
        print(f"perfbench: no library source at {SRC}/hjb_planner", file=sys.stderr)
        return 2

    spec = WORKLOADS[args.workload]
    argv_cli = spec[args.size].split()
    deadline = time.monotonic() + RUN_DEADLINE_S
    tally = Tally()
    OUT_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_ROOT))
    try:
        if args.trace:
            child, report, layers, samples = _run_traced(
                spec, argv_cli, args.seed, args.seconds, work, deadline, tally
            )
            result_metrics = layers
        else:
            child, report, samples = _run_untraced(
                spec, argv_cli, args.seed, args.seconds, work, deadline, tally
            )
            result_metrics = {k: (report[k], END_TO_END_UNITS[k]) for k in GATED}
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    report["failed_frac"] = tally.failed / tally.attempted
    meta = _metadata(args.seed, child)
    print(f"workload {args.workload}: {len(samples['wall_s'])} timed call(s), seed {args.seed}, "
          f"trace {args.trace}, {tally.failed}/{tally.attempted} operations failed")
    for name, unit in END_TO_END_UNITS.items():
        value = report.get(name)
        print(f"metric {name} {'n/a' if value is None else f'{value:.6g}'} {unit}")
    for problem in tally.problems:
        print(f"problem {problem}")
    print("meta " + json.dumps(meta))
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result_metrics.items()},
    }
    record = {"workload": args.workload, "trace": args.trace, "size": args.size,
              "meta": meta, "report": report, "samples": samples,
              "problems": tally.problems, **result}
    with open(OUT_ROOT / "results.jsonl", "a") as fh:
        fh.write(json.dumps(record) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
