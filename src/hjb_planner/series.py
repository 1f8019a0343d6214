"""Radial value-kernel evaluation in overflow-safe log space.

The planning model's value function reduces to a single radial profile
u(r) solving

    u''(r) + (N-1)/r * u'(r) = r^2 u(r) / sigma^4,   u(0) = alpha, u'(0) = 0.

The regular solution is an entire even series in x = r^4 / (4 sigma^4):

    u(r)  = alpha * (1 + sum_{j>=1} a_j x^j),
    a_j   = 1 / (j! * (N+2)(N+6)...(N+4j-2)),
    u'(r) = alpha * (4/r) * sum_{j>=1} j a_j x^j      (r > 0).

u grows like exp(x/(N+2)) and overflows double precision well inside the
radii the rate evaluator needs, so coefficients are stored as logarithms
(the ratio a_j/a_{j-1} = 1/(j(N+4j-2)) makes the log recurrence exact) and
large-x sums go through log-sum-exp.  For x <= 1 the terms decay from the
first one and a plain Horner sum is both faster and fully accurate.

The expected accumulated quadratic cost of the optimally controlled
inventory, started at |y| = r0 and stopped at |y| = R, is

    2 sigma^2 * (ln u(R) - ln u(r0)),

which only ever needs log-differences of the kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial import polynomial as npoly
from scipy.special import logsumexp

from .params import ModelParams

# Hard cap on stored series terms; the term count scales like sqrt(x_max),
# so this admits x_max ~ 1.6e7 before build_kernel refuses.
_TRUNCATION_CAP = 2000

_DEFAULT_TERM_TOL = 1e-15

# Horner for x <= HORNER_X_MAX, where the terms decay; log-sum-exp beyond.
HORNER_X_MAX = 1.0


@dataclass(frozen=True, eq=False)
class SeriesKernel:
    """Truncated log-space representation of u(r) and u'(r).

    log_a[j] holds ln a_j for j = 0..truncation_order (log_a[0] == 0).
    Evaluations are certified on [0, r_max]: the truncation order was chosen
    so the first omitted term at r_max is below term_tol times the partial
    sum.  Instances are immutable and all evaluation functions are pure, so
    a kernel can be shared freely across threads.
    """

    params: ModelParams
    log_a: np.ndarray
    truncation_order: int
    term_tol: float
    r_max: float
    # Linear-space coefficient caches for the Horner fast path (a_j and
    # j*a_j); entries that underflow to 0.0 are beyond double precision
    # anyway for x <= 1.
    _a: np.ndarray = field(repr=False, default=None)
    _b: np.ndarray = field(repr=False, default=None)


def build_kernel(
    params: ModelParams,
    term_tol: float = _DEFAULT_TERM_TOL,
    r_max: float | None = None,
) -> SeriesKernel:
    """Choose a truncation order against r_max and store log coefficients.

    The order J is the smallest with term_{J+1}(x_max) < term_tol * partial
    sum once the terms have passed their hump, evaluated at
    x_max = r_max^4 / (4 sigma^4).

    Raises:
        ValueError: if term_tol is outside (0, 1), r_max < params.radius, or
            the required order exceeds the hard cap ("series truncation
            overflow"); shrink r_max or raise term_tol in that case.
    """
    if r_max is None:
        r_max = params.radius
    r_max = float(r_max)
    if not (0.0 < term_tol < 1.0):
        raise ValueError(f"term_tol must lie in (0, 1), got {term_tol}")
    if not (math.isfinite(r_max) and r_max >= params.radius):
        raise ValueError(f"r_max must be finite and >= radius, got {r_max}")

    n = params.n_goods
    log_x = 4.0 * math.log(r_max) - math.log(4.0) - 4.0 * math.log(params.sigma)
    log_tol = math.log(term_tol)

    log_a = [0.0]
    log_sum = 0.0  # ln of the partial sum at x_max
    prev_term = math.inf
    j = 1
    while True:
        if j > _TRUNCATION_CAP:
            raise ValueError(
                "series truncation overflow: order cap "
                f"{_TRUNCATION_CAP} exceeded for r_max={r_max}, "
                f"sigma={params.sigma} (shrink r_max or raise term_tol)"
            )
        cand = log_a[j - 1] - math.log(j) - math.log(n + 4 * j - 2)
        term = cand + j * log_x
        past_hump = term < prev_term
        if j > 1 and past_hump and term - log_sum < log_tol:
            break
        log_a.append(cand)
        log_sum = np.logaddexp(log_sum, term)
        prev_term = term
        j += 1

    log_a_arr = np.asarray(log_a, dtype=float)
    a = np.exp(log_a_arr)
    b = a * np.arange(len(log_a_arr))
    return SeriesKernel(
        params=params,
        log_a=log_a_arr,
        truncation_order=len(log_a_arr) - 1,
        term_tol=float(term_tol),
        r_max=r_max,
        _a=a,
        _b=b,
    )


def _as_radii(kernel: SeriesKernel, r) -> tuple[np.ndarray, bool]:
    """Validate radii against [0, r_max] and return (array, was_scalar)."""
    arr = np.asarray(r, dtype=float)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    if not np.all(np.isfinite(arr)):
        raise ValueError("radius values must be finite")
    if np.any(arr < 0.0) or np.any(arr > kernel.r_max):
        raise ValueError(
            f"evaluation outside certified range [0, {kernel.r_max}]"
        )
    return arr, scalar


def _x_of(kernel: SeriesKernel, r: np.ndarray) -> np.ndarray:
    return r**4 / (4.0 * kernel.params.sigma**4)


def _series_sum(kernel: SeriesKernel, x: np.ndarray) -> np.ndarray:
    """sum_j a_j x^j by Horner; accurate for x <= 1 where terms decay."""
    return npoly.polyval(x, kernel._a)


def _log_x_of(kernel: SeriesKernel, r: np.ndarray) -> np.ndarray:
    """ln x = 4 ln r - ln 4 - 4 ln sigma for r > 0.

    Formed from ln r rather than as ln(r^4 / (4 sigma^4)): x underflows for
    r below about 1e-77 sigma, and ln of a subnormal or zero x is inexact or
    -inf although ln x itself is an ordinary finite number.
    """
    return 4.0 * np.log(r) - math.log(4.0) - 4.0 * math.log(kernel.params.sigma)


def _log_terms_u(kernel: SeriesKernel, log_x: np.ndarray) -> np.ndarray:
    # (n_points, J+1) matrix of ln(a_j x^j); r == 0 handled by callers.
    j = np.arange(kernel.truncation_order + 1)
    return kernel.log_a[None, :] + j[None, :] * log_x[:, None]


def eval_log_u(kernel: SeriesKernel, r) -> float | np.ndarray:
    """ln u(r) by log-sum-exp over the stored log-space terms.

    Stays finite wherever the prop-style growth bound
    ln u <= ln alpha + x/(N+2) is finite, i.e. for every certified radius.
    """
    arr, scalar = _as_radii(kernel, r)
    out = np.full(arr.shape, math.log(kernel.params.alpha))
    pos = arr > 0.0
    if np.any(pos):
        log_x = _log_x_of(kernel, arr[pos])
        out[pos] += logsumexp(_log_terms_u(kernel, log_x), axis=1)
    return float(out[0]) if scalar else out


def eval_u(kernel: SeriesKernel, r) -> float | np.ndarray:
    """u(r), truncated at the build order.

    Horner on the linear coefficients for x <= 1, exp of the log-sum-exp
    path otherwise; may overflow to inf at radii where u itself exceeds
    double range (use eval_log_u there).
    """
    arr, scalar = _as_radii(kernel, r)
    x = _x_of(kernel, arr)
    out = np.empty(arr.shape)
    small = x <= HORNER_X_MAX
    if np.any(small):
        out[small] = kernel.params.alpha * _series_sum(kernel, x[small])
    big = ~small
    if np.any(big):
        big_log = math.log(kernel.params.alpha) + logsumexp(
            _log_terms_u(kernel, _log_x_of(kernel, arr[big])), axis=1
        )
        with np.errstate(over="ignore"):
            out[big] = np.exp(big_log)
    return float(out[0]) if scalar else out


def _log_u_prime(kernel: SeriesKernel, r: np.ndarray) -> np.ndarray:
    """ln u'(r) for r > 0 via log-sum-exp (ln 4 - ln r + ln j + ln a_j + j ln x)."""
    log_x = _log_x_of(kernel, r)
    j = np.arange(1, kernel.truncation_order + 1)
    terms = (
        np.log(j)[None, :]
        + kernel.log_a[None, 1:]
        + j[None, :] * log_x[:, None]
    )
    return (
        math.log(kernel.params.alpha)
        + math.log(4.0)
        - np.log(r)
        + logsumexp(terms, axis=1)
    )


def eval_log_u_prime(kernel: SeriesKernel, r) -> float | np.ndarray:
    """ln u'(r), finite for every r in (0, r_max]; -inf at r = 0.

    For x <= 1 this is ln alpha + 3 ln r - 4 ln sigma + ln(sum_j j a_j
    x^(j-1)) with the sum by Horner, so no factor underflows however small
    r is; beyond that it is the log-sum-exp over the stored terms.  Use it
    wherever u' may leave the normal double range (eval_u_prime is exactly
    0 below r ~ 1.35e-108 and overflows at large r).
    """
    arr, scalar = _as_radii(kernel, r)
    x = _x_of(kernel, arr)
    out = np.full(arr.shape, -math.inf)
    pos = arr > 0.0
    small = pos & (x <= HORNER_X_MAX)
    if np.any(small):
        out[small] = (
            math.log(kernel.params.alpha)
            + 3.0 * np.log(arr[small])
            - 4.0 * math.log(kernel.params.sigma)
            + np.log(npoly.polyval(x[small], kernel._b[1:]))
        )
    big = pos & (x > HORNER_X_MAX)
    if np.any(big):
        out[big] = _log_u_prime(kernel, arr[big])
    return float(out[0]) if scalar else out


def eval_u_prime(kernel: SeriesKernel, r) -> float | np.ndarray:
    """u'(r) from the term-by-term derivative series; exactly 0 at r = 0.

    Accurate to relative precision only where the result is a normal
    double.  Near the origin u' ~ alpha r^3 / (sigma^4 (N+2)) drops into
    the subnormal range, where it carries fewer significant bits, and is
    exactly 0 once r^3 underflows (r below about 1.35e-108); at large r it
    overflows to inf.  Take ln u' from eval_log_u_prime, not from the log
    of this value.
    """
    arr, scalar = _as_radii(kernel, r)
    x = _x_of(kernel, arr)
    out = np.zeros(arr.shape)
    pos = arr > 0.0
    small = pos & (x <= HORNER_X_MAX)
    if np.any(small):
        # (4/r) sum_j j a_j x^j recast as (r^3/sigma^4) sum_j j a_j x^(j-1),
        # which needs no division and vanishes cleanly as r -> 0
        rs = arr[small]
        out[small] = (
            kernel.params.alpha
            * rs**3
            / kernel.params.sigma**4
            * npoly.polyval(x[small], kernel._b[1:])
        )
    big = pos & (x > HORNER_X_MAX)
    if np.any(big):
        with np.errstate(over="ignore"):
            out[big] = np.exp(_log_u_prime(kernel, arr[big]))
    return float(out[0]) if scalar else out


def expected_optimal_cost(kernel: SeriesKernel, r0) -> float | np.ndarray:
    """Expected accumulated quadratic cost 2 sigma^2 (ln u(R) - ln u(r0)).

    This is the mean of the running cost integral under the optimal
    feedback control, started from |y(0)| = r0 and stopped when |y| first
    reaches R.  The kernel scale alpha cancels in the log-difference.

    Raises:
        ValueError: "start beyond stopping boundary" when r0 > R.
    """
    arr = np.atleast_1d(np.asarray(r0, dtype=float))
    if np.any(arr > kernel.params.radius):
        raise ValueError("start beyond stopping boundary (r0 > radius)")
    log_at_boundary = eval_log_u(kernel, kernel.params.radius)
    cost = 2.0 * kernel.params.sigma**2 * (log_at_boundary - eval_log_u(kernel, r0))
    return cost
