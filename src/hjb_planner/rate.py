"""Production-rate coefficient and vector feedback control.

The optimal control is radial: every good is produced at the same scalar
rate times its inventory deviation,

    p_i = rho(|y|) * y_i,      rho(r) = sigma^2 u'(r) / (r u(r)),

with rho(0) = 0 by the series limit.  rho is evaluated two ways:

* quotient series: u'/(r u) = (4/r^2) * sum_{j>=1} c_j x^j with
  x = r^4/(4 sigma^4), where the c_j come from Cauchy division of the
  derivative series by the kernel series (c_0 = 0, c_j = b_j - sum_{i=1..j}
  c_{j-i} a_i, b_j = j a_j).  The division has a finite, unknown
  convergence radius, so this path is trusted only for x <= x_switch.

* logarithmic-derivative fallback: w = u'/u solves the first-order ODE
  w' = r^2/sigma^4 - w^2 - (N-1) w / r, integrated once at build time with
  a classical fixed-step 4th-order scheme on a geometric grid (step halved
  until the result moves by < 1e-10 relative).  rho(r) = sigma^2 w(r)/r.
  This path never forms u itself, so it cannot overflow at large radii.

Both paths are pure functions of immutable build products and are safe for
unsynchronized concurrent use.
"""

from __future__ import annotations

import math
from fractions import Fraction
from dataclasses import dataclass, field

import numpy as np
from scipy.interpolate import CubicHermiteSpline

from .fileio import write_csv
from .params import ModelParams
from .series import SeriesKernel

_RICCATI_REL_TOL = 1e-10
_RICCATI_START_NODES = 2048
_RICCATI_MAX_NODES = 1 << 21

# The quotient coefficients decay only geometrically (the division has a
# finite convergence radius), so they need more terms than the factorially
# decaying kernel series; built until the tail at x_switch is negligible.
_QUOTIENT_MIN_ORDER = 40
_QUOTIENT_MAX_ORDER = 400
_QUOTIENT_TAIL_TOL = 1e-17

DEFAULT_X_SWITCH = 0.5


@dataclass(frozen=True, eq=False)
class RateSeries:
    """Build products needed to evaluate rho(r) on [0, r_max].

    c is the quotient-series coefficient vector (c[0] == 0,
    c[1] == 1/(N+2)); riccati_r / riccati_w hold the logarithmic-derivative
    table used beyond the series trust region x > x_switch.
    """

    params: ModelParams
    c: np.ndarray
    x_switch: float
    riccati_r: np.ndarray
    riccati_w: np.ndarray
    r_max: float
    _w_interp: CubicHermiteSpline = field(repr=False, default=None)

    @property
    def riccati_table(self) -> np.ndarray:
        """(n, 2) array of (r, w) pairs."""
        return np.column_stack([self.riccati_r, self.riccati_w])


@dataclass(frozen=True, eq=False)
class ControlVector:
    """Production-rate deviations for each good; always rho(|y|) * y."""

    p: np.ndarray


def _w_rhs(r: float, w: float, inv_sigma4: float, n_minus_1: float) -> float:
    return r * r * inv_sigma4 - w * w - n_minus_1 * w / r


def _integrate_w(params: ModelParams, r_eps: float, r_max: float, n_steps: int):
    """Fixed-step RK4 for w on a geometric grid from r_eps to r_max."""
    inv_sigma4 = 1.0 / params.sigma**4
    n_minus_1 = float(params.n_goods - 1)
    nodes = np.geomspace(r_eps, r_max, n_steps + 1)
    w = np.empty(n_steps + 1)
    # leading-order seed w ~ r^3 / (sigma^4 (N+2)) from the series
    wi = r_eps**3 * inv_sigma4 / (params.n_goods + 2)
    w[0] = wi
    for i in range(n_steps):
        r0 = nodes[i]
        h = nodes[i + 1] - r0
        k1 = _w_rhs(r0, wi, inv_sigma4, n_minus_1)
        k2 = _w_rhs(r0 + 0.5 * h, wi + 0.5 * h * k1, inv_sigma4, n_minus_1)
        k3 = _w_rhs(r0 + 0.5 * h, wi + 0.5 * h * k2, inv_sigma4, n_minus_1)
        k4 = _w_rhs(nodes[i + 1], wi + h * k3, inv_sigma4, n_minus_1)
        wi += (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        w[i + 1] = wi
    return nodes, w


def _riccati_start_steps(r_eps: float, r_max: float, sigma: float) -> int:
    """Smallest power-of-two step count that keeps RK4 stable.

    At large radii w ~ r/sigma^2 and the local decay rate is 2w, so the
    geometric step h = r ln(r_max/r_eps)/n must satisfy h * 2w < ~2.8;
    start with a factor-4 margin below that limit.  At most half the node
    cap, because the first convergence test integrates twice as many steps."""
    span = math.log(r_max / r_eps)
    needed = 4.0 * span * r_max**2 / sigma**2 / 2.8
    n = min(_RICCATI_START_NODES, _RICCATI_MAX_NODES // 2)
    while n < needed and 2 * n < _RICCATI_MAX_NODES:
        n *= 2
    return n


def build_rate(kernel: SeriesKernel, x_switch: float = DEFAULT_X_SWITCH) -> RateSeries:
    """Derive quotient coefficients and the fallback table from a kernel.

    Raises:
        RuntimeError: "quotient series breakdown" if the division recursion
            produces non-finite coefficients (lower x_switch);
            "logarithmic-derivative table did not converge", naming the
            achieved relative change and node count, if step doubling
            reaches the node cap first.
    """
    if not (x_switch > 0.0 and math.isfinite(x_switch)):
        raise ValueError(f"x_switch must be positive, got {x_switch}")
    params = kernel.params
    n = params.n_goods

    # Division recursion in exact rational arithmetic, rounded to float64
    # once per coefficient: the convolution b_j - sum c_{j-i} a_i cancels
    # heavily at large N and a float-native recursion drifts to ~1e-9
    # relative by j ~ 30.  The c_j tail at x_switch must die out well before
    # the order cap, otherwise x_switch sits at or beyond the quotient's
    # convergence radius.
    a_exact = [Fraction(1)]
    c_exact = [Fraction(0)]
    c = [0.0]
    log_xs = math.log(x_switch)
    log_tol = math.log(_QUOTIENT_TAIL_TOL)
    log_largest = -math.inf
    order = None
    for j in range(1, _QUOTIENT_MAX_ORDER + 1):
        a_exact.append(a_exact[j - 1] / (j * (n + 4 * j - 2)))
        conv = sum(c_exact[j - i] * a_exact[i] for i in range(1, j + 1))
        c_exact.append(j * a_exact[j] - conv)
        c.append(float(c_exact[j]))
        if c[j] == 0.0:
            continue
        log_term = math.log(abs(c[j])) + j * log_xs
        log_largest = max(log_largest, log_term)
        if j >= _QUOTIENT_MIN_ORDER and log_term < log_largest + log_tol:
            order = j
            break
    if order is None or not all(map(math.isfinite, c)):
        raise RuntimeError("quotient series breakdown (lower x_switch)")
    c = np.asarray(c)

    r_max = kernel.r_max
    r_eps = min(1e-6, 1e-3 * r_max)
    n_steps = _riccati_start_steps(r_eps, r_max, params.sigma)
    with np.errstate(over="ignore", invalid="ignore"):
        nodes, w = _integrate_w(params, r_eps, r_max, n_steps)
        while True:
            nodes_fine, w_fine = _integrate_w(params, r_eps, r_max, 2 * n_steps)
            coarse_ok = np.all(np.isfinite(w)) and np.all(np.isfinite(w_fine))
            if coarse_ok:
                scale = np.maximum(np.abs(w_fine[::2]), 1e-3 * np.max(np.abs(w_fine)))
                rel = float(np.max(np.abs(w_fine[::2] - w) / scale))
            else:
                rel = math.inf
            nodes, w, n_steps = nodes_fine, w_fine, 2 * n_steps
            if rel < _RICCATI_REL_TOL or n_steps >= _RICCATI_MAX_NODES:
                break
    if not np.all(np.isfinite(w)):
        raise RuntimeError("logarithmic-derivative integration did not stabilize")
    if not rel < _RICCATI_REL_TOL:
        raise RuntimeError(
            "logarithmic-derivative table did not converge: relative change "
            f"{rel:.3e} (tol {_RICCATI_REL_TOL:.0e}) at the node cap, "
            f"{nodes.size} nodes"
        )

    inv_sigma4 = 1.0 / params.sigma**4
    dwdr = nodes**2 * inv_sigma4 - w**2 - (params.n_goods - 1) * w / nodes
    interp = CubicHermiteSpline(nodes, w, dwdr)
    return RateSeries(
        params=params,
        c=c,
        x_switch=float(x_switch),
        riccati_r=nodes,
        riccati_w=w,
        r_max=r_max,
        _w_interp=interp,
    )


def rate_coeff(rate: RateSeries, r) -> float | np.ndarray:
    """rho(r) = sigma^2 u'(r) / (r u(r)), with rho(0) = 0.

    Quotient series for x <= x_switch, logarithmic-derivative table beyond.
    Nondecreasing in r and bounded by 1 on the certified range.  This is
    the one validated route, and the Euler loop calls it on every step:
    validation is one min/max pair, the table is consulted only when x at
    the largest r exceeds x_switch, and the series runs Horner's rule in
    place, bit for bit ``npoly.polyval`` but with no per-term allocation.

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

    sigma2 = rate.params.sigma**2
    x = np.power(arr, 4.0)
    x /= 4.0 * sigma2 * sigma2
    # x is nondecreasing in r: the largest x, x(max r), decides alone
    # whether the table is needed at all
    if x.max() <= rate.x_switch:
        out = _quotient_series(rate.c, arr, x, sigma2)
    else:
        out = np.zeros(arr.shape)
        series = x <= rate.x_switch
        if np.any(series):
            out[series] = _quotient_series(rate.c, arr[series], x[series], sigma2)
        tail = ~series
        out[tail] = sigma2 * rate._w_interp(arr[tail]) / arr[tail]
    return float(out[0]) if scalar else out


def _quotient_series(c: np.ndarray, r: np.ndarray, x: np.ndarray, sigma2: float):
    """(4 sigma^2/r^2) sum_j c_j x^j = (r^2/sigma^2) sum_j c_j x^(j-1).

    Division-free, so the r -> 0 limit comes out as exactly 0.  Horner's
    rule runs in place, the same operations in the same order as
    ``npoly.polyval(x, c[1:])``; x is overwritten and returned."""
    acc = np.full(x.shape, c[-1])
    for cj in c[-2:0:-1]:
        acc *= x
        acc += cj
    out = np.multiply(r, r, out=x)
    out /= sigma2
    out *= acc
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
