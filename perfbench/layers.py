"""Per-layer spans recorded from outside the library, and the metrics
derived from them.

`Tracer.install` replaces each public function at the name its calling
module imported it under (for example `hjb_planner.simulate.normals`, the
generator as the Euler loop sees it) with a wrapper that records a span:
name, start, end, the index of the enclosing span, and a few counts taken
from the call's arguments or result.  Spans stay in memory and are written
out once the CLI call returns.  The CLI runs serially (HJB_PLANNER_THREADS
unset), so one stack gives every span its parent.

`layer_metrics` turns a span list into the per-layer metrics.  A span's
self time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import os
import time

import numpy as np

# Lanes (paths or points) per call, bucketed as le1 / le100 / le10k / gt10k.
BUCKETS = (("le1", 1), ("le100", 100), ("le10k", 10_000), ("gt10k", None))


def _normals_counts(args, kwargs, result):
    return {"lanes": int(result.shape[0]), "normals": int(result.size)}


def _rate_coeff_counts(args, kwargs, result):
    rate, r = args[0], np.atleast_1d(np.asarray(args[1], dtype=float))
    sigma2 = rate.params.sigma ** 2
    x = r**4 / (4.0 * sigma2 * sigma2)
    return {"points": int(r.size), "tail": int(np.count_nonzero(x > rate.x_switch))}


def _build_rate_counts(args, kwargs, result):
    return {"nodes": int(result.riccati_r.size), "order": int(result.c.size - 1)}


def _build_kernel_counts(args, kwargs, result):
    return {"order": int(result.truncation_order)}


def _picard_counts(args, kwargs, result):
    return {"iterations": len(result.sup_diffs)}


def _written_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(result)}


def _sweep_cells(args, kwargs, result):
    spec = args[0]
    skipped = {(row[0], row[1]) for row in result.rows if row[3] == ""}
    return {"cells": len(spec.n_list) * len(spec.sigma_list), "skipped": len(skipped)}


class Tracer:
    """Span recorder; `spans` holds [name, start, end, parent, counts] rows."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []

    def wrap(self, module, attr: str, name: str, counts=None) -> None:
        fn = getattr(module, attr)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if counts is not None:
                span[4] = counts(args, kwargs, result)
            return result

        setattr(module, attr, traced)

    def install(self) -> None:
        """Wrap the layer entry points the simulate, sweep and verify verbs
        reach, at the names their callers look them up under."""
        from hjb_planner import cli, simulate, sweep

        self.wrap(cli, "run_simulate", "sweep.run_simulate")
        self.wrap(cli, "sweep_rate", "sweep.sweep_rate", _sweep_cells)
        self.wrap(cli, "run_verify", "sweep.run_verify")
        self.wrap(sweep, "collect_costs", "simulate.collect_costs")
        # run_simulate's only direct _run_paths call re-simulates the plot paths
        self.wrap(sweep, "_run_paths", "simulate.trace_rerun")
        self.wrap(simulate, "normals", "rng.normals", _normals_counts)
        for module in (simulate, sweep):
            self.wrap(module, "rate_coeff", "rate.rate_coeff", _rate_coeff_counts)
            self.wrap(module, "write_csv", "fileio.write_csv", _written_bytes)
        self.wrap(sweep, "atomic_write_text", "fileio.atomic_write_text", _written_bytes)
        self.wrap(sweep, "build_rate", "rate.build_rate", _build_rate_counts)
        self.wrap(sweep, "build_kernel", "series.build_kernel", _build_kernel_counts)
        self.wrap(sweep, "eval_u", "series.eval_u")
        self.wrap(sweep, "picard_solve", "oracles.picard_solve", _picard_counts)
        for fn in ("ode_solve", "check_bounds", "verify_exact_4d"):
            self.wrap(sweep, fn, f"oracles.{fn}")
        self.wrap(sweep, "render_norm_paths", "svg.render_norm_paths")


def _bucket(lanes: int) -> str:
    return next(label for label, top in BUCKETS if top is None or lanes <= top)


def _per_call(spans, prefix: str, lane_key: str, work_key: str, per: str) -> dict:
    """Calls, busy seconds and ns per unit of work, overall and bucketed by
    lanes per call."""
    total_s = sum(s[2] - s[1] for s in spans)
    total_n = sum(s[4][work_key] for s in spans)
    out = {
        f"{prefix}.calls": (len(spans), "count"),
        f"{prefix}.s": (total_s, "s"),
        f"{prefix}.{per}": (1e9 * total_s / total_n if total_n else 0.0, "ns"),
    }
    for label, _ in BUCKETS:
        chosen = [s for s in spans if _bucket(s[4][lane_key]) == label]
        busy = sum(s[2] - s[1] for s in chosen)
        work = sum(s[4][work_key] for s in chosen)
        out[f"{prefix}.{per}.{label}"] = (1e9 * busy / work if work else 0.0, "ns")
    return out


def layer_metrics(spans, overhead_frac: float) -> dict:
    """Per-layer metrics as {name: (value, unit)} from one traced run."""
    child_s = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_s[parent] += end - start

    def named(name):
        return [s for s in spans if s[0] == name]

    def busy(name):
        return sum(s[2] - s[1] for s in named(name))

    def self_s(*names):
        return sum(
            s[2] - s[1] - child_s[i] for i, s in enumerate(spans) if s[0] in names
        )

    def total(name, key):
        return sum(s[4][key] for s in named(name))

    collect_ids = {i for i, s in enumerate(spans) if s[0] == "simulate.collect_costs"}
    steps = [s for s in named("rng.normals") if s[3] in collect_ids]
    path_steps = sum(s[4]["lanes"] for s in steps)
    width = max((s[4]["lanes"] for s in steps), default=0)
    collect_s = busy("simulate.collect_costs")
    rate_points = total("rate.rate_coeff", "points")

    m = {
        "simulate.collect_s": (collect_s, "s"),
        "simulate.self_s": (self_s("simulate.collect_costs", "simulate.trace_rerun"), "s"),
        "simulate.trace_rerun_s": (busy("simulate.trace_rerun"), "s"),
        "simulate.steps": (len(steps), "count"),
        "simulate.path_steps": (path_steps, "count"),
        "simulate.lane_util": (path_steps / (len(steps) * width) if steps else 0.0, "ratio"),
        "simulate.path_steps_per_s": (path_steps / collect_s if collect_s else 0.0, "1/s"),
    }
    m.update(
        _per_call(named("rng.normals"), "rng.normals", "lanes", "normals", "ns_per_normal")
    )
    m.update(
        _per_call(named("rate.rate_coeff"), "rate.rate_coeff", "points", "points", "ns_per_pt")
    )
    m["rate.rate_coeff.tail_frac"] = (
        total("rate.rate_coeff", "tail") / rate_points if rate_points else 0.0,
        "ratio",
    )
    m.update({
        "rate.build_rate.calls": (len(named("rate.build_rate")), "count"),
        "rate.build_rate.s": (busy("rate.build_rate"), "s"),
        "rate.riccati_nodes": (total("rate.build_rate", "nodes"), "count"),
        "rate.quotient_order": (total("rate.build_rate", "order"), "count"),
        "series.build_kernel.s": (busy("series.build_kernel"), "s"),
        "series.truncation_order": (total("series.build_kernel", "order"), "count"),
        "series.eval_u.s": (busy("series.eval_u"), "s"),
        "oracles.picard_solve.calls": (len(named("oracles.picard_solve")), "count"),
        "oracles.picard_solve.s": (busy("oracles.picard_solve"), "s"),
        "oracles.picard_iterations": (total("oracles.picard_solve", "iterations"), "count"),
        "oracles.ode_solve.calls": (len(named("oracles.ode_solve")), "count"),
        "oracles.ode_solve.s": (busy("oracles.ode_solve"), "s"),
        "oracles.check_bounds.s": (busy("oracles.check_bounds"), "s"),
        "oracles.verify_exact_4d.s": (busy("oracles.verify_exact_4d"), "s"),
        "sweep.cells": (total("sweep.sweep_rate", "cells"), "count"),
        "sweep.cells_skipped": (total("sweep.sweep_rate", "skipped"), "count"),
        "sweep.self_s": (
            self_s("sweep.run_simulate", "sweep.sweep_rate", "sweep.run_verify"), "s"
        ),
        "fileio.write_csv.s": (busy("fileio.write_csv"), "s"),
        "fileio.bytes_written": (
            total("fileio.write_csv", "bytes") + total("fileio.atomic_write_text", "bytes"),
            "bytes",
        ),
        "svg.render_norm_paths.s": (busy("svg.render_norm_paths"), "s"),
        "trace.overhead_frac": (overhead_frac, "ratio"),
    })
    return m
