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
from typing import Iterator

import numpy as np

from .fileio import atomic_write_text, column_blocks
from .params import ModelParams
from .series import SeriesKernel, _kernel_eval, _split_sums


def build_rate(kernel: SeriesKernel) -> SeriesKernel:
    """The kernel itself: rho is one more kernel quantity.  Kept as a
    name perfbench/layers.py wraps."""
    return kernel


def rate_coeff(kernel: SeriesKernel, r) -> float | np.ndarray:
    """rho(r) = sigma^2 u'(r) / (r u(r)) = s^2 B(x)/A(x), with rho(0) = 0.

    Evaluated on the kernel-sum core of the series module: in-place Horner
    for x = s^4/4 <= HORNER_X_MAX, bit for bit
    ``s**2 * npoly.polyval(x, kernel.b[1:]) / npoly.polyval(x, kernel.c)``, and
    (4/s^2) sum_j j w_j / sum_j w_j beyond.  Nondecreasing in r and bounded
    by 1 on the certified range.  Validation is one min/max pair, then the
    same core as _rho_unchecked; the log-space branch runs only when x at
    the largest r exceeds HORNER_X_MAX.

    Raises:
        ValueError: "evaluation outside certified range" for r outside
            [0, r_max] (or non-finite r).
    """
    return _kernel_eval(kernel, r, _rho_near, _rho_far)


def _rho_unchecked(kernel: SeriesKernel, r: np.ndarray) -> np.ndarray:
    """rate_coeff's core without its range check, bit for bit: r must be a
    non-empty 1-d float array already known to lie in [0, r_max].  The
    Euler loop calls this on every step after checking r_max >= R once."""
    return _split_sums(kernel, r, _rho_near, _rho_far)


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


def feedback(kernel: SeriesKernel, y) -> np.ndarray:
    """Vector control p with p_i = rho(|y|) y_i; the zero vector when y = 0.

    Raises:
        ValueError: "invalid inventory state" for non-finite components or
            a state of the wrong dimension.
    """
    y_arr = np.asarray(y, dtype=float)
    if y_arr.ndim != 1 or y_arr.shape[0] != kernel.params.n_goods:
        raise ValueError(
            f"invalid inventory state: expected {kernel.params.n_goods} components"
        )
    if not np.all(np.isfinite(y_arr)):
        raise ValueError("invalid inventory state: non-finite components")
    r = float(np.linalg.norm(y_arr))
    if r == 0.0:
        return np.zeros_like(y_arr)
    return rate_coeff(kernel, r) * y_arr


def envelope(params: ModelParams, r) -> float | np.ndarray:
    """Upper envelope of rho: sigma^2 (sqrt(N^2/r^2 + 4r^2/sigma^4) - N/r) / (2r).

    Evaluated in the rationalized form 2r / (sigma^2 (sqrt(...) + N/r)),
    which avoids the catastrophic cancellation of the textbook form at
    small r.  Tends to r^2/(N sigma^2) at 0 and to 1 at infinity.

    Raises:
        ValueError: naming the first negative or non-finite radius.
    """
    arr = np.asarray(r, dtype=float)
    flat = radius_grid(arr.ravel())
    n = params.n_goods
    sigma2 = params.sigma**2
    out = np.zeros(flat.shape)
    pos = flat > 0.0
    rp = flat[pos]
    root = np.hypot(n / rp, 2.0 * rp / sigma2)
    out[pos] = 2.0 * rp / (sigma2 * (root + n / rp))
    return float(out[0]) if arr.ndim == 0 else out.reshape(arr.shape)


def radius_grid(r_grid) -> np.ndarray:
    """r_grid as a 1-d float array, a scalar as one point: the one check
    that radii are finite and >= 0.  A ValueError names the shape of a grid
    of more than one dimension, or the first negative or non-finite radius."""
    grid = np.atleast_1d(np.asarray(r_grid, dtype=float))
    if grid.ndim != 1:
        raise ValueError(f"a radius grid must be one-dimensional, got shape {grid.shape}")
    bad = grid[~(np.isfinite(grid) & (grid >= 0.0))]
    if bad.size:
        raise ValueError(f"radii must be finite and >= 0, got r = {float(bad[0])!r}")
    return grid


def rate_table_chunks(kernel: SeriesKernel, r_grid) -> Iterator[str]:
    """(r, rho(r)) as CSV text with header ``r,rate`` and 17-digit floats,
    in blocks of CHUNK_ROWS rows.  The grid is read by radius_grid, and rho
    is evaluated over all of it before the first block, so a refused grid
    or radius raises here."""
    grid = radius_grid(r_grid)
    values = rate_coeff(kernel, grid)
    return itertools.chain(["r,rate\n"], column_blocks("%.17g,%.17g\n", grid, values))


def write_rate_table(kernel: SeriesKernel, r_grid, path) -> None:
    """Export rate_table_chunks(kernel, r_grid) to path."""
    atomic_write_text(path, rate_table_chunks(kernel, r_grid))
