"""Production-rate coefficient and vector feedback control.

The optimal control is radial: every good is produced at the same scalar
rate times its inventory deviation,

    p_i = rho(|y|) * y_i,      rho(r) = sigma^2 u'(r) / (r u(r)),

with rho(0) = 0 by the series limit.  With s = r/sigma, x = s^4/4,
A(x) = sum_j a_j x^j and B(x) = sum_j j a_j x^(j-1), the rate is a ratio
of two series the kernel already stores: rho = s^2 B(x) / A(x).  All a_j
are positive, so neither sum cancels.  For x <= HORNER_X_MAX (the split
the kernel evaluators use) both sums run Horner's rule; beyond it A and B
overflow long before the certified range ends, so the ratio is taken over
weights normalized in log space,

    rho = (4/s^2) sum_j j w_j / sum_j w_j,
    w_j = exp(ln a_j + j ln x - max_k (ln a_k + k ln x)),  ln x = 4 ln s - ln 4.

Evaluation is a pure function of immutable build products and is safe for
unsynchronized concurrent use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fileio import write_csv
from .params import ModelParams
from .series import HORNER_X_MAX, SeriesKernel

# Elements per block of the log-space branch's (points, terms) matrix, so
# scratch memory stays O(points) however long the kernel is.
_LOG_BLOCK = 1 << 16


@dataclass(frozen=True, eq=False)
class RateSeries:
    """The kernel's a_j (c), j a_j (b) and ln a_j (log_a), bound for
    evaluating rho on [0, r_max]; x_switch is the Horner/log-space split in
    x.  riccati_r is always empty, kept only for perfbench/layers.py, which
    counts the nodes of the retired Riccati table."""

    params: ModelParams
    c: np.ndarray
    b: np.ndarray
    log_a: np.ndarray
    x_switch: float
    riccati_r: np.ndarray
    r_max: float


@dataclass(frozen=True, eq=False)
class ControlVector:
    """Production-rate deviations for each good; always rho(|y|) * y."""

    p: np.ndarray


def build_rate(kernel: SeriesKernel) -> RateSeries:
    """Bind a kernel's coefficient arrays for rate evaluation; computes nothing."""
    return RateSeries(
        params=kernel.params,
        c=kernel._a,
        b=kernel._b,
        log_a=kernel.log_a,
        x_switch=HORNER_X_MAX,
        riccati_r=np.empty(0),
        r_max=kernel.r_max,
    )


def rate_coeff(rate: RateSeries, r) -> float | np.ndarray:
    """rho(r) = sigma^2 u'(r) / (r u(r)) = s^2 B(x)/A(x), with rho(0) = 0.

    Horner for x = s^4/4 <= x_switch, the normalized log-space weights
    beyond.  Nondecreasing in r and bounded by 1 on the certified range.
    The Euler loop calls this on every step: validation is one min/max
    pair, the log-space branch runs only when x at the largest r exceeds
    x_switch, and Horner runs in place, bit for bit
    ``s**2 * npoly.polyval(x, b[1:]) / npoly.polyval(x, c)`` but with no
    per-term allocation.

    Raises:
        ValueError: "evaluation outside certified range" for r outside
            [0, r_max] (or non-finite r).
    """
    arr = np.asarray(r, dtype=float)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    if arr.size == 0:
        return np.zeros(arr.shape)
    lo, hi = float(arr.min()), float(arr.max())
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError("evaluation outside certified range (non-finite r)")
    if lo < 0.0 or hi > rate.r_max:
        raise ValueError(f"evaluation outside certified range [0, {rate.r_max}]")

    s = arr / rate.params.sigma
    x = np.power(s, 4.0)
    x /= 4.0
    # x is nondecreasing in r, so x(max r) alone decides whether any point
    # leaves the Horner range
    if x.max() <= rate.x_switch:
        out = _horner_ratio(rate, s, x)
    else:
        out = np.empty(arr.shape)
        near = x <= rate.x_switch
        if np.any(near):
            out[near] = _horner_ratio(rate, s[near], x[near])
        far = ~near
        out[far] = _log_space_ratio(rate, s[far])
    return float(out[0]) if scalar else out


def _horner_ratio(rate: RateSeries, s: np.ndarray, x: np.ndarray) -> np.ndarray:
    """s^2 B(x)/A(x) by in-place Horner; x is overwritten and returned.

    Division-free in s, so the s -> 0 limit comes out as exactly 0."""
    num = np.full(x.shape, rate.b[-1])
    for bj in rate.b[-2:0:-1]:
        num *= x
        num += bj
    den = np.full(x.shape, rate.c[-1])
    for aj in rate.c[-2::-1]:
        den *= x
        den += aj
    out = np.multiply(s, s, out=x)
    out *= num
    out /= den
    return out


def _log_space_ratio(rate: RateSeries, s: np.ndarray) -> np.ndarray:
    """(4/s^2) sum_j j w_j / sum_j w_j over weights normalized by their
    largest, in blocks of at most _LOG_BLOCK matrix elements.  Each point's
    bits depend on its own s only."""
    log_x = 4.0 * np.log(s) - math.log(4.0)
    j = np.arange(rate.log_a.size, dtype=float)
    out = np.empty(s.shape)
    rows = max(1, _LOG_BLOCK // j.size)
    for lo in range(0, s.size, rows):
        w = np.multiply.outer(log_x[lo : lo + rows], j)
        w += rate.log_a
        w -= w.max(axis=1, keepdims=True)
        np.exp(w, out=w)
        den = w.sum(axis=1)
        w *= j
        # row sums, not a matrix product: BLAS would sum a row in an order
        # that depends on how many rows share the call
        out[lo : lo + rows] = w.sum(axis=1) / den
    out *= 4.0
    out /= s * s
    return out


def feedback(rate: RateSeries, y) -> ControlVector:
    """Vector control p_i = rho(|y|) y_i; the zero vector when y = 0.

    Raises:
        ValueError: "invalid inventory state" for non-finite components or
            a state of the wrong dimension.
    """
    y_arr = np.asarray(y, dtype=float)
    if y_arr.ndim != 1 or y_arr.shape[0] != rate.params.n_goods:
        raise ValueError(
            f"invalid inventory state: expected {rate.params.n_goods} components"
        )
    if not np.all(np.isfinite(y_arr)):
        raise ValueError("invalid inventory state: non-finite components")
    r = float(np.linalg.norm(y_arr))
    if r == 0.0:
        return ControlVector(p=np.zeros_like(y_arr))
    return ControlVector(p=rate_coeff(rate, r) * y_arr)


def envelope(params: ModelParams, r) -> float | np.ndarray:
    """Upper envelope of rho: sigma^2 (sqrt(N^2/r^2 + 4r^2/sigma^4) - N/r) / (2r).

    Evaluated in the rationalized form 2r / (sigma^2 (sqrt(...) + N/r)),
    which avoids the catastrophic cancellation of the textbook form at
    small r.  Tends to r^2/(N sigma^2) at 0 and to 1 at infinity.
    """
    arr = np.asarray(r, dtype=float)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    n = params.n_goods
    sigma2 = params.sigma**2
    out = np.zeros(arr.shape)
    pos = arr > 0.0
    rp = arr[pos]
    root = np.hypot(n / rp, 2.0 * rp / sigma2)
    out[pos] = 2.0 * rp / (sigma2 * (root + n / rp))
    return float(out[0]) if scalar else out


def write_rate_table(rate: RateSeries, r_grid, path) -> None:
    """Export (r, rho(r)) as CSV with header ``r,rate``."""
    grid = np.asarray(r_grid, dtype=float)
    values = rate_coeff(rate, grid)
    write_csv(path, ["r", "rate"], zip(grid.tolist(), np.atleast_1d(values).tolist()))
