"""Radial value-kernel evaluation through one Horner / log-space split.

The planning model's value function reduces to a single radial profile
u(r) solving

    u''(r) + (N-1)/r * u'(r) = r^2 u(r) / sigma^4,   u(0) = 1, u'(0) = 0.

The kernel's scale is fixed at u(0) = 1: the optimal control and the
expected cost below depend on u only through ln u differences and u'/u.
With s = r/sigma and x = s^4/4 the regular solution is an entire even
series,

    u(r)  = A(x) = sum_{j>=0} a_j x^j,    a_0 = 1,
    a_j   = 1 / (j! * (N+2)(N+6)...(N+4j-2)),
    u'(r) = (r^3/sigma^4) B(x),           B(x) = sum_{j>=1} j a_j x^(j-1),

and every quantity the package needs (u, u', ln u, ln u' and the rate
rho = s^2 B/A) comes from the two sums A and B.  One private core
evaluates them, split at x = HORNER_X_MAX:

* x <= HORNER_X_MAX: the terms decay from the first, and one in-place
  Horner pass gives t = A - 1 = x (a_1 + a_2 x + ...) and B.  Because
  a_0 is exactly 1, t + 1.0 is bit for bit the Horner value of A, and
  ln u = log1p(t) stays above 0 as r -> 0, where a plain ln(A) would round
  to 0.  Its relative error there is the truncation's (see build_kernel).
* beyond: A and B overflow double precision long before the certified
  range ends, so the sums are taken over weights normalized in log space,
  w_j = exp(ln a_j + j ln x - m) with m = max_k (ln a_k + k ln x), giving
  A = e^m sum_j w_j and x B = e^m sum_j j w_j; ln x = 4 ln s - ln 4 is
  formed once per point.

Coefficients are stored as logarithms (the ratio a_j/a_{j-1} =
1/(j(N+4j-2)) makes the log recurrence exact); the kernel derives the
linear ones Horner needs from them.  The production path uses numpy only.

The expected accumulated quadratic cost of the optimally controlled
inventory, started at |y| = r0 and stopped at |y| = R, is

    2 sigma^2 * (ln u(R) - ln u(r0)),

which only ever needs log-differences of the kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .params import ModelParams

# Hard cap on stored series terms; the term count scales like sqrt(x_max),
# so this admits x_max ~ 1.6e7 before build_kernel refuses.
_TRUNCATION_CAP = 2000

# The first omitted term at r_max stays below this fraction of the partial sum.
_TERM_TOL = 1e-15

# Horner for x <= HORNER_X_MAX, where the terms decay; log space beyond.
HORNER_X_MAX = 1.0

# Elements per block of the log-space branch's (points, terms) matrix, so
# scratch memory stays O(points) however long the kernel is.
_LOG_BLOCK = 1 << 16

_LN4 = math.log(4.0)


@dataclass(frozen=True, eq=False)
class SeriesKernel:
    """Truncated representation of u(r) and u'(r).

    log_a[j] holds ln a_j for j = 0..truncation_order (log_a[0] == 0); c
    (a_j) and b (j a_j), the Horner branch's linear coefficients, are
    derived from it, so a kernel never holds two disagreeing copies.
    Evaluations are certified on [0, r_max]: the truncation order was chosen
    so the first omitted term at r_max is below _TERM_TOL = 1e-15 times the
    partial sum.  Instances are immutable and all evaluation functions are
    pure, so a kernel can be shared freely across threads.
    """

    params: ModelParams
    log_a: np.ndarray
    r_max: float
    # entries of c and b that underflow to 0.0 are beyond double precision
    # anyway for x <= 1
    c: np.ndarray = field(init=False, repr=False)
    b: np.ndarray = field(init=False, repr=False)
    # read by perfbench/layers.py only
    x_switch: ClassVar[float] = HORNER_X_MAX
    riccati_r: ClassVar[np.ndarray] = np.empty(0)

    def __post_init__(self) -> None:
        c = np.exp(self.log_a)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "b", c * np.arange(c.size))

    @property
    def truncation_order(self) -> int:
        return self.log_a.size - 1


def build_kernel(params: ModelParams, r_max: float | None = None) -> SeriesKernel:
    """Choose a truncation order against r_max and store log coefficients.

    The order J is the smallest with term_{J+1}(x_max) < 1e-15 * partial
    sum once the terms have passed their hump, evaluated at
    x_max = r_max^4 / (4 sigma^4).  The partial sum is A ~ 1, so ln u and
    rho, both ~ x/(N+2), keep only about 1e-15 (J+1)(N+2)/x_max relative:
    rho is 1.5e-8 off at N=100, r_max = 0.05 sigma.

    Raises:
        ValueError: if r_max < params.radius, or the required order exceeds
            the hard cap ("series truncation overflow"); shrink r_max in that
            case.
    """
    r_max = float(params.radius if r_max is None else r_max)
    if not (math.isfinite(r_max) and r_max >= params.radius):
        raise ValueError(f"r_max must be finite and >= radius, got {r_max}")

    n = params.n_goods
    log_x = 4.0 * math.log(r_max) - math.log(4.0) - 4.0 * math.log(params.sigma)
    log_tol = math.log(_TERM_TOL)

    log_a = [0.0]
    log_sum = 0.0  # ln of the partial sum at x_max
    j = 1
    while True:
        if j > _TRUNCATION_CAP:
            raise ValueError(
                "series truncation overflow: order cap "
                f"{_TRUNCATION_CAP} exceeded for r_max={r_max}, "
                f"sigma={params.sigma} (shrink r_max)"
            )
        cand = log_a[j - 1] - math.log(j) - math.log(n + 4 * j - 2)
        term = cand + j * log_x
        # before the terms' single peak T_j >= every earlier term, so
        # T_j / sum_(i<j) T_i >= 1/j > 1e-15 and this cannot pass there
        if j > 1 and term - log_sum < log_tol:
            break
        log_a.append(cand)
        log_sum = np.logaddexp(log_sum, term)
        j += 1

    return SeriesKernel(params=params, log_a=np.asarray(log_a, dtype=float), r_max=r_max)


def _horner(a: np.ndarray, b: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """t = A(x) - 1 = x * Horner(a_1..a_J) and B(x) = Horner(b_1..b_J) by
    in-place Horner; x is only read.  a_0 is exactly 1, so t + 1.0 is bit
    for bit polyval(x, a), and log1p(t) is ln A with no rounding of 1 + t."""
    t = np.full(x.shape, a[-1])
    bsum = np.full(x.shape, b[-1])
    for aj, bj in zip(a[-2:0:-1], b[-2:0:-1]):
        t *= x
        t += aj
        bsum *= x
        bsum += bj
    t *= x
    return t, bsum


def _log_sums(log_a: np.ndarray, log_x: np.ndarray):
    """m = max_j (ln a_j + j ln x), sum_j w_j and sum_j j w_j, with
    w_j = exp(ln a_j + j ln x - m), in blocks of at most _LOG_BLOCK matrix
    elements.  Each point's bits depend on its own ln x only."""
    j = np.arange(log_a.size, dtype=float)
    m = np.empty(log_x.shape)
    s0 = np.empty(log_x.shape)
    s1 = np.empty(log_x.shape)
    rows = max(1, _LOG_BLOCK // j.size)
    for lo in range(0, log_x.size, rows):
        block = slice(lo, lo + rows)
        w = np.multiply.outer(log_x[block], j)
        w += log_a
        m[block] = w.max(axis=1)
        w -= m[block, None]
        np.exp(w, out=w)
        # row sums, not a matrix product: BLAS would sum a row in an order
        # that depends on how many rows share the call
        s0[block] = w.sum(axis=1)
        w *= j
        s1[block] = w.sum(axis=1)
    return m, s0, s1


def _kernel_eval(kernel: SeriesKernel, r, near, far):
    """One kernel quantity at radii r: the boundary checks (one min/max
    pair), then the unchecked core _split_sums.  Returns a float for
    scalar r.

    Raises:
        ValueError: "evaluation outside certified range", naming the
            offending extreme, for r outside [0, r_max] (or non-finite r).
    """
    arr = np.asarray(r, dtype=float)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    if arr.size == 0:
        return np.zeros(arr.shape)
    lo, hi = float(arr.min()), float(arr.max())
    if not (math.isfinite(lo) and math.isfinite(hi)):
        bad = hi if math.isfinite(lo) else lo
        raise ValueError(f"evaluation outside certified range (non-finite r = {bad!r})")
    if lo < 0.0 or hi > kernel.r_max:
        bad = lo if lo < 0.0 else hi
        raise ValueError(f"evaluation outside certified range [0, {kernel.r_max}]: r = {bad!r}")
    out = _split_sums(kernel, arr, near, far)
    return float(out[0]) if scalar else out


def _split_sums(kernel: SeriesKernel, r: np.ndarray, near, far) -> np.ndarray:
    """The unchecked core: one kernel quantity at a non-empty 1-d array of
    radii already known to lie in [0, r_max].

    near(r, s, t, B) is called on the points with x = s^4/4 <= HORNER_X_MAX
    (t = A - 1 and B from _horner), far(r, s, m, S0, S1) on the rest
    (_log_sums); s = r/sigma.  Both may overwrite every argument but r,
    which can be the caller's own array.  The log-space branch runs only
    when the largest x exceeds the split.
    """
    s = r / kernel.params.sigma
    x = np.power(s, 4.0)
    x /= 4.0
    if x.max() <= HORNER_X_MAX:
        return near(r, s, *_horner(kernel.c, kernel.b, x))
    out = np.empty(r.shape)
    inside = x <= HORNER_X_MAX
    if inside.any():
        out[inside] = near(r[inside], s[inside], *_horner(kernel.c, kernel.b, x[inside]))
    beyond = ~inside
    s_far = s[beyond]
    log_x = 4.0 * np.log(s_far) - _LN4
    out[beyond] = far(r[beyond], s_far, *_log_sums(kernel.log_a, log_x))
    return out


def _log_u_far(r, s, m, s0, s1):
    return m + np.log(s0)


def _log_u_prime_far(r, s, m, s0, s1):
    # u' = (4/r) x B(x) = (4/r) e^m sum_j j w_j
    return _LN4 - np.log(r) + m + np.log(s1)


def _exp_of(log_far):
    """The far branch of a linear-space value: exp of log_far, overflowing
    to inf without a warning where the value exceeds double range."""

    def far(*sums):
        with np.errstate(over="ignore"):
            return np.exp(log_far(*sums))

    return far


def eval_log_u(kernel: SeriesKernel, r) -> float | np.ndarray:
    """ln u(r): log1p(A - 1) in the Horner range, m + ln sum_j w_j beyond.

    Finite for every certified radius and above 0 as r -> 0, where
    ln u ~ x/(N+2) keeps only build_kernel's truncation accuracy.
    """
    return _kernel_eval(kernel, r, lambda r, s, t, b: np.log1p(t), _log_u_far)


def eval_u(kernel: SeriesKernel, r) -> float | np.ndarray:
    """u(r), truncated at the build order.

    In the Horner range this is bit for bit the Horner value of
    sum_j a_j x^j; beyond it, exp of eval_log_u's log-space value, which
    overflows to inf where u itself exceeds double range (use eval_log_u
    there).
    """
    return _kernel_eval(kernel, r, lambda r, s, t, b: t + 1.0, _exp_of(_log_u_far))


def eval_log_u_prime(kernel: SeriesKernel, r) -> float | np.ndarray:
    """ln u'(r), finite for every r in (0, r_max]; -inf at r = 0.

    In the Horner range this is 3 ln r - 4 ln sigma + ln B(x), so no factor
    underflows however small r is; beyond it, ln 4 - ln r + m +
    ln sum_j j w_j.  Use it wherever u' may leave the normal double range
    (eval_u_prime is exactly 0 below r ~ 1.35e-108 and overflows at large
    r).
    """
    log_sigma4 = 4.0 * math.log(kernel.params.sigma)

    def near(r, s, t, b):
        with np.errstate(divide="ignore"):  # ln 0 = -inf at the origin
            return 3.0 * np.log(r) - log_sigma4 + np.log(b)

    return _kernel_eval(kernel, r, near, _log_u_prime_far)


def eval_u_prime(kernel: SeriesKernel, r) -> float | np.ndarray:
    """u'(r) = (r^3/sigma^4) B(x); exactly 0 at r = 0.

    Accurate to relative precision only where the result is a normal
    double.  Near the origin u' ~ r^3 / (sigma^4 (N+2)) drops into the
    subnormal range, where it carries fewer significant bits, and is
    exactly 0 once r^3 underflows (r below about 1.35e-108); at large r it
    overflows to inf.  Take ln u' from eval_log_u_prime, not from the log
    of this value.
    """
    sigma4 = kernel.params.sigma**4
    return _kernel_eval(
        kernel, r, lambda r, s, t, b: r**3 / sigma4 * b, _exp_of(_log_u_prime_far)
    )


def expected_optimal_cost(kernel: SeriesKernel, r0) -> float | np.ndarray:
    """Expected accumulated quadratic cost 2 sigma^2 (ln u(R) - ln u(r0)).

    This is the mean of the running cost integral under the optimal
    feedback control, started from |y(0)| = r0 and stopped when |y| first
    reaches R.

    Raises:
        ValueError: "start beyond stopping boundary" when r0 > R.
    """
    arr = np.atleast_1d(np.asarray(r0, dtype=float))
    if np.any(arr > kernel.params.radius):
        raise ValueError(
            "start beyond stopping boundary "
            f"(r0 = {float(arr.max())!r} > radius = {kernel.params.radius!r})"
        )
    log_at_boundary = eval_log_u(kernel, kernel.params.radius)
    cost = 2.0 * kernel.params.sigma**2 * (log_at_boundary - eval_log_u(kernel, r0))
    return cost
