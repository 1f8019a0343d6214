"""Production-rate coefficient and vector feedback control.

The optimal control is radial: every good is produced at the same scalar
rate times its inventory deviation,

    p_i = rho(|y|) * y_i,      rho(r) = sigma^2 u'(r) / (r u(r)),

with rho(0) = 0 by the series limit.  The kernel depends on r only through
s = r/sigma, so rho(r; N, sigma) = g_N(r/sigma) and both routes below work
in s.  rho is evaluated two ways:

* quotient series: g_N(s) = s^2 sum_{j>=1} c_j x^(j-1) with x = s^4/4,
  where the c_j come from Cauchy division of the derivative series by the
  kernel series (c_0 = 0, c_j = b_j - sum_{i=1..j} c_{j-i} a_i,
  b_j = j a_j).  The division has a finite, unknown convergence radius, so
  this path is trusted only for x <= X_SWITCH.

* logarithmic-derivative table: W = d ln u / ds solves the sigma-free
  Riccati equation W' = s^2 - W^2 - (N-1) W/s, stiff near s = 0 through
  the (N-1)/s term.  One BDF solve (rtol 1e-12, analytic Jacobian) from
  the series start W = s^3/(N+2) at s = 1e-6 fills a fixed geometric grid
  behind a cubic Hermite spline, and g_N(s) = W(s)/s.  It is built only
  when x(r_max) > X_SWITCH, and it never forms u itself, so it cannot
  overflow at large radii.

Both paths are pure functions of immutable build products and are safe for
unsynchronized concurrent use.
"""

from __future__ import annotations

import math
from fractions import Fraction
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import solve_ivp
from scipy.interpolate import CubicHermiteSpline

from .fileio import write_csv
from .params import ModelParams
from .series import SeriesKernel

# Trust region of the quotient series, in x = s^4/4.
X_SWITCH = 0.5

# The quotient coefficients decay only geometrically (the division has a
# finite convergence radius), so they need more terms than the factorially
# decaying kernel series; built until the tail at X_SWITCH is negligible.
_QUOTIENT_MIN_ORDER = 40
_QUOTIENT_MAX_ORDER = 400
_QUOTIENT_TAIL_TOL = 1e-17

_RICCATI_S0 = 1e-6
_RICCATI_NODES = 4097
_RICCATI_RTOL = 1e-12


@dataclass(frozen=True, eq=False)
class RateSeries:
    """Build products needed to evaluate rho(r) on [0, r_max].

    c is the quotient-series coefficient vector (c[0] == 0,
    c[1] == 1/(N+2)), trusted for x <= x_switch.  riccati_r holds the
    logarithmic-derivative table's nodes as radii, and _w_interp the
    spline of W(s) used beyond x_switch; both are empty (and None) when
    x(r_max) <= x_switch, where no point needs the table.
    """

    params: ModelParams
    c: np.ndarray
    x_switch: float
    riccati_r: np.ndarray
    r_max: float
    _w_interp: CubicHermiteSpline | None = field(repr=False, default=None)


@dataclass(frozen=True, eq=False)
class ControlVector:
    """Production-rate deviations for each good; always rho(|y|) * y."""

    p: np.ndarray


def _x_of(s: np.ndarray) -> np.ndarray:
    """x = s^4/4 for an array of s; build_rate and rate_coeff both decide
    table use from this one formula."""
    x = np.power(s, 4.0)
    x /= 4.0
    return x


def _riccati_spline(n_goods: int, s_max: float) -> tuple[np.ndarray, CubicHermiteSpline]:
    """Spline of W = d ln u / ds on a geometric grid from _RICCATI_S0 to s_max."""
    n_minus_1 = float(n_goods - 1)

    def rhs(s, w):
        return s * s - w * w - n_minus_1 * w / s

    def jac(s, w):
        return np.array([[-2.0 * w[0] - n_minus_1 / s]])

    nodes = np.geomspace(_RICCATI_S0, s_max, _RICCATI_NODES)
    sol = solve_ivp(
        rhs,
        (nodes[0], nodes[-1]),
        [_RICCATI_S0**3 / (n_goods + 2)],
        method="BDF",
        jac=jac,
        t_eval=nodes,
        rtol=_RICCATI_RTOL,
        atol=0.0,
    )
    if not sol.success:
        raise RuntimeError(f"logarithmic-derivative integration failed: {sol.message}")
    w = sol.y[0]
    return nodes, CubicHermiteSpline(nodes, w, rhs(nodes, w))


def build_rate(kernel: SeriesKernel) -> RateSeries:
    """Derive quotient coefficients, and the table when needed, from a kernel.

    The logarithmic-derivative table is integrated only when
    x(r_max) = (r_max/sigma)^4/4 exceeds X_SWITCH; below that every point
    of [0, r_max] is in the quotient series' trust region.

    Raises:
        RuntimeError: "quotient series breakdown" if the division recursion
            produces non-finite coefficients or its tail does not decay at
            X_SWITCH; "logarithmic-derivative integration failed", naming
            the solver's message, if the BDF solve fails.
    """
    params = kernel.params
    n = params.n_goods

    # Division recursion in exact rational arithmetic, rounded to float64
    # once per coefficient: the convolution b_j - sum c_{j-i} a_i cancels
    # heavily at large N and a float-native recursion drifts to ~1e-9
    # relative by j ~ 30.  The c_j tail at X_SWITCH must die out well before
    # the order cap, otherwise X_SWITCH sits at or beyond the quotient's
    # convergence radius.
    a_exact = [Fraction(1)]
    c_exact = [Fraction(0)]
    c = [0.0]
    log_xs = math.log(X_SWITCH)
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
        raise RuntimeError(f"quotient series breakdown: no decaying tail at x_switch {X_SWITCH}")

    r_max = kernel.r_max
    s_max = r_max / params.sigma
    nodes, interp = np.empty(0), None
    if _x_of(np.asarray([s_max]))[0] > X_SWITCH:
        nodes, interp = _riccati_spline(n, s_max)
    return RateSeries(
        params=params,
        c=np.asarray(c),
        x_switch=X_SWITCH,
        riccati_r=params.sigma * nodes,
        r_max=r_max,
        _w_interp=interp,
    )


def rate_coeff(rate: RateSeries, r) -> float | np.ndarray:
    """rho(r) = sigma^2 u'(r) / (r u(r)), with rho(0) = 0.

    Both branches work in s = r/sigma: the quotient series for
    x = s^4/4 <= x_switch, the logarithmic-derivative table beyond.
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

    s = arr / rate.params.sigma
    x = _x_of(s)
    # x is nondecreasing in r: the largest x, x(max r), decides alone
    # whether the table is needed at all; it exists whenever x(r_max) does
    # exceed x_switch
    if x.max() <= rate.x_switch:
        out = _quotient_series(rate.c, s, x)
    else:
        out = np.zeros(arr.shape)
        series = x <= rate.x_switch
        if np.any(series):
            out[series] = _quotient_series(rate.c, s[series], x[series])
        tail = ~series
        out[tail] = rate._w_interp(s[tail]) / s[tail]
    return float(out[0]) if scalar else out


def _quotient_series(c: np.ndarray, s: np.ndarray, x: np.ndarray):
    """(4/s^2) sum_j c_j x^j = s^2 sum_j c_j x^(j-1), with x = s^4/4.

    Division-free, so the s -> 0 limit comes out as exactly 0.  Horner's
    rule runs in place, the same operations in the same order as
    ``npoly.polyval(x, c[1:])``; x is overwritten and returned."""
    acc = np.full(x.shape, c[-1])
    for cj in c[-2:0:-1]:
        acc *= x
        acc += cj
    out = np.multiply(s, s, out=x)
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
