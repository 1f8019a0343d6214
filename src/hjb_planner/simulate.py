"""First-exit Monte Carlo for the optimally controlled inventory.

The controlled inventory follows dy_i = p_i dt + sigma dW_i with the
radial feedback p = rho(|y|) y, run until |y| first reaches the stopping
radius R.  Discretization is plain Euler-Maruyama,

    y <- y + rho(|y|) y dt + sigma sqrt(dt) Z,

with exit tested at grid times only and the running cost
(|p|^2 + |y|^2) dt accumulated at left endpoints, which is the
Ito-consistent choice.  Noise comes from the counter-based generator, so a
path is a pure function of (seed, path_index) no matter how paths are
batched or scheduled, or how many steps one draw covers; means are reduced
in path-index order so Monte Carlo results are reproducible bit for bit.

One pass serves both the cost statistics and the plot: the first paths
of a batch are traced while it runs, so no path is simulated twice.  The
rate's certified range is checked once per batch (r_max >= R); after that
the loop keeps 0 <= |y| < R, and rho is evaluated on every step without a
range check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fileio import write_csv
from .params import exact_int
from .rate import _rho_unchecked
from .rate import rate_coeff  # unused here; perfbench/layers.py wraps it by name
from .rng import normals
from .series import SeriesKernel

_CHUNK = 65536
# Philox blocks (two normals each) per noise draw: a batch draws
# max(1, _DRAW_BUDGET // (paths * ceil(N/2))) steps at once, so wide
# batches still draw one step at a time and narrow ones amortize the
# per-call cost of the generator over many steps
_DRAW_BUDGET = 1 << 12


@dataclass(frozen=True)
class SimConfig:
    """Time step, horizon, path count, seed, and common start state.

    dt * max_steps bounds the simulated horizon.  Paths whose start already
    satisfies |y0| >= R exit immediately with tau = 0 and zero cost.
    """

    dt: float
    max_steps: int
    n_paths: int
    seed: int
    y0: np.ndarray

    def __post_init__(self) -> None:
        for name in ("max_steps", "n_paths", "seed"):
            object.__setattr__(self, name, exact_int(name, getattr(self, name)))
        object.__setattr__(self, "y0", np.array(self.y0, dtype=float, copy=True))
        if not (math.isfinite(self.dt) and self.dt > 0):
            raise ValueError(f"dt must be a positive finite real, got {self.dt}")
        if not 1 <= self.max_steps < 2**32:
            raise ValueError("max_steps must be in [1, 2^32)")
        if self.n_paths < 1:
            raise ValueError("n_paths must be >= 1")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in 64 bits")
        if self.y0.ndim != 1 or self.y0.size < 1 or not np.all(np.isfinite(self.y0)):
            raise ValueError("y0 must be a finite non-empty vector")


@dataclass(frozen=True, eq=False)
class PathResult:
    """One simulated path: exit time, accumulated cost, final state.

    tau is dt times the number of completed steps; exited is False when the
    horizon ran out first (that is not an error, just truncation).
    path_trace, when recorded, is an array with rows (t, y_1..y_N, cost).
    """

    tau: float
    cost: float
    exited: bool
    y_final: np.ndarray
    path_trace: np.ndarray | None = None


def _run_paths(
    kernel: SeriesKernel,
    cfg: SimConfig,
    path_indices: np.ndarray,
    n_traced: int = 0,
    trace_stride: int = 1,
):
    """Vectorized Euler-Maruyama over a batch of paths.

    Returns (tau, cost, exited, y_final, traces) with arrays aligned to
    path_indices; traces holds one array per path of the batch's first
    n_traced (n_traced >= 0), in batch order, with rows (t, y..., cost)
    sampled every trace_stride steps and at the exit or the horizon.  Exits
    keep the running rows in order, so the traced paths still running are
    always the first rows.  Per-path arithmetic is elementwise, so results
    do not depend on how the batch is chunked.

    Raises:
        ValueError: if y0 does not have N components, the rate's
            certified range [0, r_max] stops short of the stopping radius,
            or trace_stride < 1; all are checked once, before the first
            step.
        RuntimeError: "simulation diverged" on a non-finite state.
    """
    params = kernel.params
    n = params.n_goods
    if cfg.y0.shape[0] != n:
        raise ValueError(
            f"y0 has {cfg.y0.shape[0]} components but the rate was built for {n} goods"
        )
    radius = params.radius
    if not kernel.r_max >= radius:
        raise ValueError(
            f"rate certified on [0, {kernel.r_max}] stops short of the stopping radius {radius}"
        )
    if not trace_stride >= 1:
        raise ValueError(f"trace_stride must be >= 1, got {trace_stride!r}")
    dt = cfg.dt
    noise_scale = params.sigma * math.sqrt(dt)

    paths = np.asarray(path_indices, dtype=np.uint64)
    m = paths.size
    tau = np.full(m, cfg.max_steps * dt)
    cost_total = np.zeros(m)
    exited = np.zeros(m, dtype=bool)
    y_final = np.zeros((m, n))

    y = np.tile(cfg.y0, (m, 1))
    cost = np.zeros(m)
    pos = np.arange(m)  # result slots of still-running paths
    live = min(n_traced, m)  # rows [0, live) are the traced running paths
    traces: list = [[] for _ in range(live)]

    def record(rows, step):
        sampled = np.empty((rows.size, n + 2))
        sampled[:, 0] = step * dt
        sampled[:, 1:-1] = y[rows]
        sampled[:, -1] = cost[rows]
        for slot, row in zip(pos[rows].tolist(), sampled):
            traces[slot].append(row)

    # noise comes in blocks of consecutive steps, one row per running path:
    # a block is scaled once when drawn, compacted with the other running
    # arrays on an exit, and gives up its first column on every step
    pairs = (n + 1) // 2
    block = np.empty((m, 0, n))
    for step in range(cfg.max_steps):
        r = np.sqrt(np.einsum("ij,ij->i", y, y))
        hit = r >= radius
        if live:
            rows = np.arange(live) if step % trace_stride == 0 else np.flatnonzero(hit[:live])
            if rows.size:
                record(rows, step)
        if hit.any():
            slots = pos[hit]
            exited[slots] = True
            tau[slots] = step * dt
            cost_total[slots] = cost[hit]
            y_final[slots] = y[hit]
            keep = ~hit
            live = int(np.count_nonzero(keep[:live]))
            pos, y, cost, r, block = pos[keep], y[keep], cost[keep], r[keep], block[keep]
            if pos.size == 0:
                break
        rho = _rho_unchecked(kernel, r)
        cost += (rho * rho + 1.0) * r * r * dt
        if block.shape[1] == 0:
            k = min(max(1, _DRAW_BUDGET // (pos.size * pairs)), cfg.max_steps - step)
            block = normals(cfg.seed, paths[pos], step, n, k)
            block *= noise_scale
        z, block = block[:, 0], block[:, 1:]
        # rounds as rho[:, None] * y * dt + z, in one temporary
        drift = np.multiply(rho[:, None], y)
        drift *= dt
        drift += z
        y += drift
        if not np.isfinite(y).all():
            raise RuntimeError("simulation diverged (non-finite inventory state)")
    else:
        cost_total[pos] = cost
        y_final[pos] = y
        if live:
            record(np.arange(live), cfg.max_steps)

    traces = [np.array(rows) for rows in traces]
    return tau, cost_total, exited, y_final, traces


def euler_path(
    kernel: SeriesKernel,
    cfg: SimConfig,
    path_index: int,
    record_trace: bool = False,
    trace_stride: int = 1,
) -> PathResult:
    """Simulate one path; fully determined by (cfg.seed, path_index)."""
    if path_index < 0 or path_index >= 2**64:
        raise ValueError("path_index must be a nonnegative 64-bit integer")
    tau, cost, exited, y_final, traces = _run_paths(
        kernel,
        cfg,
        np.asarray([path_index], dtype=np.uint64),
        n_traced=int(record_trace),
        trace_stride=trace_stride,
    )
    return PathResult(
        tau=float(tau[0]),
        cost=float(cost[0]),
        exited=bool(exited[0]),
        y_final=y_final[0],
        path_trace=traces[0] if traces else None,
    )


def collect_costs(
    kernel: SeriesKernel,
    cfg: SimConfig,
    n_traced: int = 0,
    trace_stride: int = 1,
) -> tuple[np.ndarray, np.ndarray, list]:
    """Accumulated cost and exit flag for paths 0..n_paths-1, in index order,
    and the traces of paths 0..n_traced-1 (as _run_paths returns them, one
    array per path, in index order), recorded in the same pass."""
    costs = np.empty(cfg.n_paths)
    exited = np.empty(cfg.n_paths, dtype=bool)
    traces: list = []
    for start in range(0, cfg.n_paths, _CHUNK):
        stop = min(start + _CHUNK, cfg.n_paths)
        idx = np.arange(start, stop, dtype=np.uint64)
        _, chunk_cost, chunk_exited, _, chunk_traces = _run_paths(
            kernel, cfg, idx, max(0, n_traced - start), trace_stride
        )
        costs[start:stop] = chunk_cost
        exited[start:stop] = chunk_exited
        traces.extend(chunk_traces)
    return costs, exited, traces


def cost_statistics(costs: np.ndarray, exited: np.ndarray) -> tuple[float, float, int]:
    """(mean, stderr, n_exited) over the exited paths; nan when undefined."""
    n_exited = int(np.count_nonzero(exited))
    if n_exited == 0:
        return math.nan, math.nan, 0
    kept = costs[exited]
    mean = float(np.mean(kept))
    stderr = (
        float(np.std(kept, ddof=1) / math.sqrt(n_exited)) if n_exited >= 2 else math.nan
    )
    return mean, stderr, n_exited


def monte_carlo_cost(kernel: SeriesKernel, cfg: SimConfig) -> tuple[float, float, int]:
    """Mean and standard error of the accumulated cost over exited paths.

    Paths are path_index 0..n_paths-1; the reduction runs in index order,
    so the result is a pure function of (cfg, kernel).  n_exited lets callers
    detect horizon-truncation bias.

    Raises:
        RuntimeError: "no exits within horizon" when every path truncated.
    """
    if cfg.n_paths < 2:
        raise ValueError("n_paths must be >= 2 for a standard error")
    costs, exited, _ = collect_costs(kernel, cfg)
    mean, stderr, n_exited = cost_statistics(costs, exited)
    if n_exited == 0:
        raise RuntimeError("no exits within horizon")
    return mean, stderr, n_exited


def write_mc_summary(path, mean: float, stderr: float, n_exited: int, cfg: SimConfig):
    """Monte Carlo summary CSV: mean,stderr,n_exited,n_paths,dt,seed."""
    write_csv(
        path,
        ["mean", "stderr", "n_exited", "n_paths", "dt", "seed"],
        [(mean, stderr, n_exited, cfg.n_paths, cfg.dt, cfg.seed)],
    )


def write_trace(path, trace: np.ndarray, n_goods: int):
    """Path-trace CSV: t,y_1,...,y_N,cost, one row per row of trace."""
    header = ["t"] + [f"y_{i + 1}" for i in range(n_goods)] + ["cost"]
    write_csv(path, header, trace)
