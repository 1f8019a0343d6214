"""Production-rate coefficient and vector feedback control.

The optimal control is radial: every good is produced at the same scalar
rate times its inventory deviation,

    p_i = rho(|y|) * y_i,      rho(r) = sigma^2 u'(r) / (r u(r)),

with rho(0) = 0 by the series limit.  With s = r/sigma, x = s^4/4,
A(x) = sum_j a_j x^j and B(x) = sum_j j a_j x^(j-1), the rate is a ratio
of two series the kernel already stores: rho = s^2 B(x) / A(x).  All a_j
are positive, so neither sum cancels.  Both come from the series module's
kernel-sum core, the same split that gives u, u', ln u and ln u': for
x <= HORNER_X_MAX one Horner pass, and beyond it, where A and B overflow
long before the certified range ends, weights normalized in log space,

    rho = (4/s^2) sum_j j w_j / sum_j w_j,
    w_j = exp(ln a_j + j ln x - max_k (ln a_k + k ln x)),  ln x = 4 ln s - ln 4.

Evaluation is a pure function of immutable build products and is safe for
unsynchronized concurrent use.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .fileio import atomic_write_text, row_blocks
from .params import ModelParams
from .series import HORNER_X_MAX, SeriesKernel, _evaluate, _split_sums


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

    Evaluated on the kernel-sum core of the series module: in-place Horner
    for x = s^4/4 <= x_switch, bit for bit
    ``s**2 * npoly.polyval(x, b[1:]) / npoly.polyval(x, c)``, and
    (4/s^2) sum_j j w_j / sum_j w_j beyond.  Nondecreasing in r and bounded
    by 1 on the certified range.  Validation is one min/max pair, then the
    same core as _rho_unchecked; the log-space branch runs only when x at
    the largest r exceeds x_switch.

    Raises:
        ValueError: "evaluation outside certified range" for r outside
            [0, r_max] (or non-finite r).
    """
    return _evaluate(
        rate.c, rate.b, rate.log_a, rate.params.sigma, rate.r_max, r, _rho_near, _rho_far
    )


def _rho_unchecked(rate: RateSeries, r: np.ndarray) -> np.ndarray:
    """rate_coeff's core without its range check, bit for bit: r must be a
    non-empty 1-d float array already known to lie in [0, r_max].  The
    Euler loop calls this on every step after checking r_max >= R once."""
    return _split_sums(rate.c, rate.b, rate.log_a, rate.params.sigma, r, _rho_near, _rho_far)


def _rho_near(r, s, t, b):
    # s^2 B / (1 + t), division-free in s, so the s -> 0 limit is exactly 0
    np.multiply(s, s, out=s)
    s *= b
    t += 1.0
    s /= t
    return s


def _rho_far(r, s, m, s0, s1):
    s1 /= s0
    s1 *= 4.0
    s1 /= s * s
    return s1


def feedback(rate: RateSeries, y) -> np.ndarray:
    """Vector control p with p_i = rho(|y|) y_i; the zero vector when y = 0.

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
        return np.zeros_like(y_arr)
    return rate_coeff(rate, r) * y_arr


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


def rate_table_chunks(rate: RateSeries, r_grid) -> Iterator[str]:
    """(r, rho(r)) as CSV text with header ``r,rate`` and 17-digit floats,
    in blocks of CHUNK_ROWS rows.  rho is evaluated over the whole grid
    before the first block, so a refused radius raises here."""
    grid = np.atleast_1d(np.asarray(r_grid, dtype=float))
    values = np.atleast_1d(rate_coeff(rate, grid))
    blocks = (
        "".join([f"{r:.17g},{v:.17g}\n" for r, v in zip(grid[b].tolist(), values[b].tolist())])
        for b in row_blocks(grid.size)
    )
    return itertools.chain(["r,rate\n"], blocks)


def write_rate_table(rate: RateSeries, r_grid, path) -> None:
    """Export rate_table_chunks(rate, r_grid) to path."""
    atomic_write_text(path, rate_table_chunks(rate, r_grid))
