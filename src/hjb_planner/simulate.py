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
range check, by the kernel's Horner pass over both of its sums at once.
Exit and divergence come from one reduction per step, the largest |y|:
no path exits while it is below R, and it is finite whenever every state
is, so the full state is tested for non-finite values only when it is
not, and once more after the horizon's last step.  A path's end stays in
its row of the batch arrays, where no later step writes, and every result
is gathered from there after the loop; only traced rows are copied out.
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
_DIVERGED = "simulation diverged (non-finite inventory state)"


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
class PathBatch:
    """Per-path results of a batch, aligned with its path indices: exit
    time, accumulated cost, exit flag and final state, plus the traces of
    the batch's first paths.

    tau is dt times the number of completed steps; exited is False where
    the horizon ran out first (that is not an error, just truncation).
    traces holds one array per traced path, in batch order, with rows
    (t, y_1..y_N, cost).
    """

    tau: np.ndarray
    cost: np.ndarray
    exited: np.ndarray
    y_final: np.ndarray
    traces: list

    def statistics(self) -> tuple[float, float, int]:
        """(mean, stderr, n_exited) of cost over the exited paths; nan when
        undefined."""
        n_exited = int(np.count_nonzero(self.exited))
        if n_exited == 0:
            return math.nan, math.nan, 0
        kept = self.cost[self.exited]
        mean = float(np.mean(kept))
        stderr = (
            float(np.std(kept, ddof=1) / math.sqrt(n_exited)) if n_exited >= 2 else math.nan
        )
        return mean, stderr, n_exited


def _run_paths(
    kernel: SeriesKernel,
    cfg: SimConfig,
    path_indices: np.ndarray,
    n_traced: int = 0,
    trace_stride: int = 1,
) -> PathBatch:
    """Vectorized Euler-Maruyama over a batch of paths.

    Returns the PathBatch of path_indices; its traces are those of the
    batch's first n_traced paths (n_traced >= 0), with rows sampled every
    trace_stride steps and at the exit or the horizon.  An exit moves its
    rows behind the running rows, which stay in order, so the traced paths
    still running are always the first rows and each path ends in the row
    where it stopped.  Per-path arithmetic is elementwise, so results do
    not depend on how the batch is chunked.

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
    y = np.tile(cfg.y0, (m, 1))
    cost = np.zeros(m)
    pos = np.arange(m)  # result slots of still-running paths
    batch = y, cost, pos  # y, cost and pos become views of its running rows
    t_end = np.empty(m)
    n_traces = live = min(n_traced, m)  # rows [0, live) are the traced running paths
    traced: list = []  # (t, slots, y, cost) copies of the traced rows every trace_stride steps

    # noise comes in blocks of consecutive steps, one column per running
    # path: a block is scaled and laid out step-major once when drawn, so
    # that a step's noise is one contiguous (paths, N) slab; it is compacted
    # with the other running arrays on an exit and gives up its first slab
    # on every step
    pairs = (n + 1) // 2
    block = np.empty((0, m, n))
    for step in range(cfg.max_steps):
        r = np.sqrt(np.einsum("ij,ij->i", y, y))
        # the largest radius decides both tests: it is finite when every
        # state is (a finite state whose |y|^2 overflows is an exit), and
        # no path exits while it is below R
        r_top = float(r.max())
        if not math.isfinite(r_top) and not np.isfinite(y).all():
            raise RuntimeError(_DIVERGED)
        if r_top >= radius:
            # take() with integer rows: the same copies as boolean indexing,
            # at a fraction of its cost on (paths, N) and block arrays
            kept = (r < radius).nonzero()[0]
            order = np.concatenate((kept, (r >= radius).nonzero()[0]))
            y[:], cost[:], pos[:] = y.take(order, axis=0), cost.take(order), pos.take(order)
            # step * dt in a Python float, which turns inf without a numpy
            # overflow warning should a huge dt overflow
            t_end[kept.size : pos.size] = step * dt
            y, cost, pos = y[: kept.size], cost[: kept.size], pos[: kept.size]
            live = int(kept.searchsorted(live))
            r, block = r.take(kept), block.take(kept, axis=1)
            if kept.size == 0:
                break
        if live and step % trace_stride == 0:
            traced.append(
                (np.full(live, step * dt), pos[:live].copy(), y[:live].copy(), cost[:live].copy())
            )
        rho = _rho_unchecked(kernel, r)
        # (rho * rho + 1.0) * r * r * dt, in one buffer
        step_cost = np.multiply(rho, rho)
        step_cost += 1.0
        step_cost *= r
        step_cost *= r
        step_cost *= dt
        cost += step_cost
        if block.shape[0] == 0:
            k = min(max(1, _DRAW_BUDGET // (pos.size * pairs)), cfg.max_steps - step)
            block = normals(cfg.seed, paths[pos], step, n, k)
            block *= noise_scale
            # normals stores blocks step-major: a copy only for odd N
            block = np.ascontiguousarray(block.transpose(1, 0, 2))
        z, block = block[0], block[1:]
        # rounds as rho[:, None] * y * dt + z, in one temporary
        drift = np.multiply(rho[:, None], y)
        drift *= dt
        drift += z
        y += drift
    else:
        if not np.isfinite(y).all():
            raise RuntimeError(_DIVERGED)
        t_end[: pos.size] = cfg.max_steps * dt

    # each slot's row; the rows behind the pos.size still running have exited
    y, cost, pos_all = batch
    row = np.empty(m, dtype=np.intp)
    row[pos_all] = np.arange(m)
    tau, cost_total, y_final, exited = t_end[row], cost[row], y[row], row >= pos.size
    traces = []
    if n_traces:
        # the stride rows in step order, then the end rows: a stable sort by
        # slot puts each trace's rows in step order
        ends = np.arange(n_traces)
        traced.append((tau[ends], ends, y_final[ends], cost_total[ends]))
        t, slots, y, cost = map(np.concatenate, zip(*traced))
        trace_rows = np.column_stack((t, y, cost))[np.argsort(slots, kind="stable")]
        traces = np.split(trace_rows, np.cumsum(np.bincount(slots, minlength=n_traces))[:-1])
    return PathBatch(tau, cost_total, exited, y_final, traces)


def euler_path(
    kernel: SeriesKernel,
    cfg: SimConfig,
    path_index: int,
    record_trace: bool = False,
    trace_stride: int = 1,
) -> PathBatch:
    """Simulate one path, as a batch of one; fully determined by
    (cfg.seed, path_index)."""
    path_index = exact_int("path_index", path_index)
    if path_index < 0 or path_index >= 2**64:
        raise ValueError("path_index must be a nonnegative 64-bit integer")
    return _run_paths(
        kernel, cfg, np.asarray([path_index], dtype=np.uint64), int(record_trace), trace_stride
    )


def collect_costs(
    kernel: SeriesKernel,
    cfg: SimConfig,
    n_traced: int = 0,
    trace_stride: int = 1,
) -> PathBatch:
    """The PathBatch of paths 0..n_paths-1, in index order, with the traces
    of paths 0..n_traced-1 recorded in the same pass.  Paths run in chunks
    of _CHUNK; several chunks are joined column by column."""
    batches = [
        _run_paths(
            kernel,
            cfg,
            np.arange(start, min(start + _CHUNK, cfg.n_paths), dtype=np.uint64),
            max(0, n_traced - start),
            trace_stride,
        )
        for start in range(0, cfg.n_paths, _CHUNK)
    ]
    if len(batches) == 1:
        return batches[0]
    columns = ("tau", "cost", "exited", "y_final")
    joined = [np.concatenate([getattr(b, name) for b in batches]) for name in columns]
    return PathBatch(*joined, [trace for b in batches for trace in b.traces])


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
    mean, stderr, n_exited = collect_costs(kernel, cfg).statistics()
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
