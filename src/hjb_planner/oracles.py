"""Independent brute-force solvers that certify the series kernel.

Three routes to the same radial profile, none of which shares code with the
series evaluation:

* picard_solve: successive approximation of the integral form
  u(r) = alpha + int_0^r t^(1-N) int_0^t s^(N+1) u(s)/sigma^4 ds dt,
  discretized with composite trapezoid sums on refinements of the caller's
  grid.  The trapezoid error expands in even powers of the step (Linz,
  Analytical and Numerical Methods for Volterra Equations, SIAM 1985,
  ch. 7), so one Richardson step on two adjacent refinement levels makes
  the result fourth-order; levels are added until two successive
  extrapolations agree.  The iterates increase pointwise and their
  sup-differences, extrapolated the same way, obey the factorial envelope
  (alpha/(k+1)!) (R^4/(4 sigma^4 (N+2)))^(k+1), which doubles as a
  convergence certificate.

* ode_solve: direct high-order integration of the second-order radial ODE,
  usable wherever u itself stays inside double range.  It starts at a
  radius r0 from a four-term local series built from the ODE's own
  coefficient recurrence, so the integrator never steps through the stiff
  (N-1)/r stretch next to the origin; grid points inside r0 take the
  series value.

* verify_exact_4d: two closed-form four-dimensional solutions
  exp(+-r^2/(2 sigma^2)) / r^2 whose ODE residual is algebraically zero,
  evaluated with analytic derivatives so the fixture carries no
  discretization error at all.

Test-only references for rho = sigma^2 u'/(r u), sharing no code with the
rate module: quotient_rate, the rate's own power series in x with
coefficients from exact-rational Cauchy division (finite convergence
radius, so small x only); and riccati_rate, BDF on the Riccati equation
W' = s^2 - W^2 - (N-1) W/s for W = d ln u/ds, s = r/sigma, rho = W/s.

check_bounds sweeps the growth/slope/rate inequalities the kernel must
satisfy and reports a signed relative margin per grid point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.integrate import solve_ivp

from .fileio import write_csv
from .params import ModelParams
from .rate import envelope
from .series import SeriesKernel, _log_u_prime, eval_log_u

MARGIN_FLOOR = -1e-12

_QUAD_SELF_CONSISTENCY = 1e-10
_MAX_REFINE_DOUBLINGS = 14
_OVERFLOW_LOG_LIMIT = 645.0  # ln of the largest double, with headroom
_START_REL = 1e-18  # largest relative size of the first omitted term at r0
_RTOL_FLOOR = 100.0 * np.finfo(float).eps  # DOP853 clamps rtol below this
_RICCATI_S0 = 1e-6  # start of the Riccati solve, in s = r/sigma
_RICCATI_RTOL = 1e-12


@dataclass(frozen=True, eq=False)
class RadialGridFn:
    """A radial profile tabulated on a strictly increasing grid from 0."""

    r: np.ndarray
    values: np.ndarray
    meta: str  # origin tag: picard | ode | exact4d
    sup_diffs: tuple[float, ...] | None = None  # picard successive sup-differences
    refinement_level: int | None = None  # picard: level the refinement stopped at
    nfev: int | None = None  # ode: right-hand-side evaluations
    series_points: int | None = None  # ode: grid points filled from the local series

    def __post_init__(self) -> None:
        r = np.asarray(self.r, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if r.ndim != 1 or r.shape != v.shape:
            raise ValueError("grid and values must be matching 1-D arrays")
        if r[0] != 0.0 or np.any(np.diff(r) <= 0.0):
            raise ValueError("grid must be strictly increasing and start at 0")
        if not np.all(np.isfinite(v)):
            raise ValueError("profile values must be finite")
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "values", v)


def _refine(grid: np.ndarray, per_interval: int) -> np.ndarray:
    """Subdivide every grid interval into per_interval equal pieces.

    The original nodes sit at indices i * per_interval of the result, so
    restriction back to the caller's grid is exact.
    """
    steps = np.arange(per_interval) / per_interval
    fine = grid[:-1, None] + np.diff(grid)[:, None] * steps[None, :]
    return np.append(fine.ravel(), grid[-1])


def _monomial_weights(t: np.ndarray, power: int):
    """Per-interval trapezoid weights with the monomial factor s**power
    integrated exactly.

    Approximating the iterate piecewise-linearly (the trapezoid-class
    assumption) but integrating s**power * (linear) in closed form keeps
    the quadrature error constant independent of power; plain trapezoid on
    the product would need O(power^2) finer grids.  Returns (w_lo, w_hi)
    with int_{s0}^{s1} s^power v(s) ds ~= w_lo v(s0) + w_hi v(s1); both
    weights are nonnegative, which preserves the pointwise monotonicity of
    the iterates.
    """
    s0, s1 = t[:-1], t[1:]
    h = s1 - s0
    p2, p3 = power + 1, power + 2  # exponents of the antiderivatives

    def segment_integral(p: int) -> np.ndarray:
        # int s^(p-1) over [s0, s1] = (s1^p - s0^p)/p, with an expm1 form
        # where the direct difference would cancel (h << s0).
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            direct = s1**p - s0**p
            near = h < 0.5 * s0
            safe_s0 = np.where(s0 > 0.0, s0, 1.0)
            grown = s0**p * np.expm1(p * np.log1p(h / safe_s0))
            return np.where(near, grown, direct) / p

    i0 = segment_integral(p2)
    i1 = segment_integral(p3)
    w_hi = (i1 - s0 * i0) / h
    w_lo = i0 - w_hi
    return np.maximum(w_lo, 0.0), np.maximum(w_hi, 0.0)


def _picard_once(params: ModelParams, t: np.ndarray, stride: int, k_max: int, tol: float):
    """Run the iteration on a fixed grid t.

    Returns the final iterate on t and the successive differences
    u_(k+1) - u_k of every iteration, restricted to every stride-th node
    (one row per iteration).  Iteration stops once the largest difference
    over all of t falls below tol.
    """
    n = params.n_goods
    inv_sigma4 = 1.0 / params.sigma**4
    w_lo, w_hi = _monomial_weights(t, n + 1)
    half_h = 0.5 * np.diff(t)
    # g = t^(1-N) inner / sigma^4, formed as exp(ln inner - (N-1) ln t); the
    # origin keeps shift 0, where inner = 0 gives exp(-inf) = 0.
    shift = np.zeros_like(t)
    np.multiply(n - 1, np.log(t[1:]), out=shift[1:])

    u = np.full(t.shape, params.alpha)
    u_next = np.full(t.shape, params.alpha)  # [0] stays alpha
    inner = np.zeros_like(t)
    g = np.empty_like(t)
    seg = np.empty(t.size - 1)
    seg_hi = np.empty(t.size - 1)
    step = np.empty_like(t)
    steps: list[np.ndarray] = []
    for _ in range(k_max):
        np.multiply(w_lo, u[:-1], out=seg)
        np.multiply(w_hi, u[1:], out=seg_hi)
        np.add(seg, seg_hi, out=seg)
        np.cumsum(seg, out=inner[1:])
        if n == 1:
            np.multiply(inner, inv_sigma4, out=g)
        else:
            with np.errstate(divide="ignore"):
                np.log(inner, out=g)
            np.subtract(g, shift, out=g)
            np.exp(g, out=g)
            np.multiply(g, inv_sigma4, out=g)
        np.add(g[1:], g[:-1], out=seg)
        np.multiply(seg, half_h, out=seg)
        np.cumsum(seg, out=u_next[1:])
        np.add(u_next[1:], params.alpha, out=u_next[1:])
        np.subtract(u_next, u, out=step)
        sup = float(np.max(step))
        steps.append(step[::stride].copy())
        u, u_next = u_next, u
        if sup < tol:
            return u, steps
    raise RuntimeError(
        f"Picard not converged after {k_max} iterations "
        f"(achieved sup-difference {sup:.3e}, tol {tol:.3e})"
    )


def _richardson(fine: np.ndarray, coarse: np.ndarray) -> np.ndarray:
    """Cancel the h^2 term of a trapezoid result from grids h and 2h."""
    return (4.0 * fine - coarse) / 3.0


def picard_solve(
    params: ModelParams,
    grid,
    k_max: int = 200,
    tol: float = 1e-10,
    quad_tol: float = _QUAD_SELF_CONSISTENCY,
) -> RadialGridFn:
    """Limit of the integral-form iterates on the caller's grid.

    Quadrature is composite trapezoid on refinement level L, which splits
    every grid interval into 2^L equal pieces.  On each level the iteration
    stops when the largest difference of successive iterates falls below
    tol (or raises "Picard not converged" at k_max).  The trapezoid error
    expands in even powers of the step, so one Richardson step on two
    adjacent levels, E_L = (4 U_L - U_(L-1))/3 on the caller's grid, is
    fourth-order.  Levels are added from L = 2 until
    max |E_L - E_(L-1)| / |E_L| < quad_tol (first possible at L = 4);
    E_L is returned, with the stopping level as refinement_level.

    sup_diffs[k] is the maximum over the caller's grid of the same
    extrapolation (4 D_k^L - D_k^(L-1))/3 of the k-th successive
    differences D_k of the two levels; where level L ran more iterations
    than level L-1, its own differences fill the rest.

    Raises:
        RuntimeError: "Picard quadrature refinement did not reach
            self-consistency", naming the smallest relative gap reached
            and the last level tried.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size < 2 or grid[0] != 0.0 or np.any(np.diff(grid) <= 0):
        raise ValueError("grid must be 1-D, strictly increasing, starting at 0")
    if grid[-1] > params.radius:
        raise ValueError(f"grid must stay within [0, radius={params.radius}]")
    if k_max < 1:
        raise ValueError("k_max must be >= 1")

    prev_u = prev_steps = prev_e = None
    best_gap = math.inf
    for level in range(2, _MAX_REFINE_DOUBLINGS + 1):
        per = 1 << level
        u_fine, steps = _picard_once(params, _refine(grid, per), per, k_max, tol)
        u = u_fine[::per]
        if prev_u is not None:
            e = _richardson(u, prev_u)
            if prev_e is not None:
                gap = float(np.max(np.abs(e - prev_e) / np.abs(e)))
                best_gap = min(best_gap, gap)
                if gap < quad_tol:
                    sup_diffs = [
                        float(np.max(_richardson(fine, coarse)))
                        for fine, coarse in zip(steps, prev_steps)
                    ] + [float(np.max(d)) for d in steps[len(prev_steps):]]
                    return RadialGridFn(grid, e, "picard", tuple(sup_diffs), level)
            prev_e = e
        prev_u, prev_steps = u, steps
    raise RuntimeError(
        "Picard quadrature refinement did not reach self-consistency "
        f"{quad_tol:.1e}: best relative gap {best_gap:.3e}, "
        f"last level {_MAX_REFINE_DOUBLINGS}"
    )


def picard_step_bound(params: ModelParams, r: float, k: int) -> float:
    """Analytic envelope for the k-th successive difference at radius r."""
    q = r**4 / (4.0 * params.sigma**4 * (params.n_goods + 2))
    return params.alpha / math.factorial(k + 1) * q ** (k + 1)


def ode_solve(
    params: ModelParams,
    r_max: float,
    step_tol: float = 1e-12,
    grid=None,
) -> RadialGridFn:
    """Direct integration of u'' + (N-1)/r u' = r^2 u / sigma^4.

    The origin is a removable coordinate singularity and (N-1)/r makes the
    equation stiff near it, so the profile starts from the local series
    u = alpha sum_(j<4) a_j x^j, x = r^4/(4 sigma^4), with a_j built from
    the ODE's own recurrence.  The start radius r0 is the largest radius
    where the first omitted term is at most 1e-18 relative for both u
    and u' (a_4 x^4 and 4 a_4 x^3 / a_1), capped at r_max/2 so at least
    half the range is integrated.  Grid points at r <= r0 take the series
    value; the rest come from an adaptive 8th-order Runge-Kutta method
    (DOP853) on (r0, r_max] at relative tolerance step_tol.  nfev counts
    right-hand-side evaluations (0 when every grid point lies within r0)
    and series_points the grid points filled from the series.

    Raises:
        ValueError: step_tol not finite or below the integrator's relative
            tolerance floor of 100 machine epsilons.
        RuntimeError: "direct integration range exceeded" when the growth
            bound says u(r_max) would overflow double precision (use the
            logarithmic-derivative route instead).
    """
    step_tol = float(step_tol)
    if not (math.isfinite(step_tol) and step_tol >= _RTOL_FLOOR):
        raise ValueError(
            f"step_tol must be finite and >= {_RTOL_FLOOR:.3e} "
            f"(100 machine epsilons, the DOP853 rtol floor), got {step_tol!r}"
        )
    r_max = float(r_max)
    n = params.n_goods
    sigma4 = params.sigma**4
    x_max = r_max**4 / (4.0 * sigma4)
    if x_max / (n + 2) > _OVERFLOW_LOG_LIMIT:
        raise RuntimeError(
            "direct integration range exceeded (u would overflow; "
            "use the logarithmic-derivative path)"
        )
    if grid is None:
        grid = np.linspace(0.0, r_max, 200)
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid[0] != 0.0 or np.any(np.diff(grid) <= 0) or grid[-1] > r_max:
        raise ValueError("grid must be strictly increasing from 0 within [0, r_max]")

    # a_0..a_4 of u = alpha sum_j a_j x^j; a_4 is the first term left out
    a = [1.0]
    for j in range(1, 5):
        a.append(a[-1] / (j * (n + 4 * j - 2)))
    a0, a1, a2, a3, a4 = a
    x0 = min((_START_REL / a4) ** 0.25, (_START_REL * a1 / (4.0 * a4)) ** (1.0 / 3.0))
    r0 = min((4.0 * sigma4 * x0) ** 0.25, 0.5 * r_max)

    def local_series(r):
        x = r**4 / (4.0 * sigma4)
        u = params.alpha * (a0 + x * (a1 + x * (a2 + x * a3)))
        up = params.alpha * r**3 / sigma4 * (a1 + x * (2.0 * a2 + x * 3.0 * a3))
        return u, up

    def rhs(r, y):
        u, up = y
        return [up, r * r * u / sigma4 - (n - 1) * up / r]

    head = grid <= r0
    values = np.empty(grid.shape)
    values[head], _ = local_series(grid[head])
    nfev = 0
    if not np.all(head):
        u0, up0 = local_series(r0)
        sol = solve_ivp(
            rhs,
            (r0, r_max),
            [u0, up0],
            method="DOP853",
            rtol=step_tol,
            atol=1e-30,
            t_eval=grid[~head],
            dense_output=False,
        )
        if not sol.success:
            raise RuntimeError(f"radial ODE integration failed: {sol.message}")
        values[~head] = sol.y[0]
        nfev = int(sol.nfev)
    return RadialGridFn(
        grid, values, "ode", nfev=nfev, series_points=int(np.count_nonzero(head))
    )


def quotient_coeffs(n_goods: int, order: int) -> np.ndarray:
    """c_0..c_order of sum_j j a_j x^j / sum_j a_j x^j by Cauchy division,
    c_j = j a_j - sum_(i=1..j) c_(j-i) a_i, in exact rational arithmetic
    rounded once per c_j (the convolution cancels heavily at large N; a
    float recursion drifts to ~1e-9 relative by j ~ 30)."""
    a = [Fraction(1)]
    c = [Fraction(0)]
    for j in range(1, order + 1):
        a.append(a[j - 1] / (j * (n_goods + 4 * j - 2)))
        c.append(j * a[j] - sum(c[j - i] * a[i] for i in range(1, j + 1)))
    return np.asarray([float(cj) for cj in c])


def quotient_rate(params: ModelParams, r, order: int = 40) -> np.ndarray:
    """rho = s^2 sum_(j>=1) c_j x^(j-1), c = quotient_coeffs(N, order)."""
    s = np.asarray(r, dtype=float) / params.sigma
    c = quotient_coeffs(params.n_goods, order)
    return s**2 * np.polynomial.polynomial.polyval(s**4 / 4.0, c[1:])


def riccati_rate(params: ModelParams, r) -> np.ndarray:
    """rho = W(s)/s at increasing radii r >= 1e-6 sigma, W = d ln u/ds.

    One BDF solve (rtol 1e-12, analytic Jacobian) of
    W' = s^2 - W^2 - (N-1) W/s from W = s0^3/(N+2) at s0 = 1e-6,
    reporting W straight at the requested points.

    Raises:
        RuntimeError: "logarithmic-derivative integration failed", naming
            the solver's message.
    """
    s = np.asarray(r, dtype=float) / params.sigma
    n_minus_1 = float(params.n_goods - 1)

    def rhs(s, w):
        return s * s - w * w - n_minus_1 * w / s

    def jac(s, w):
        return np.array([[-2.0 * w[0] - n_minus_1 / s]])

    sol = solve_ivp(
        rhs,
        (_RICCATI_S0, s[-1]),
        [_RICCATI_S0**3 / (params.n_goods + 2)],
        method="BDF",
        jac=jac,
        t_eval=s,
        rtol=_RICCATI_RTOL,
        atol=0.0,
    )
    if not sol.success:
        raise RuntimeError(f"logarithmic-derivative integration failed: {sol.message}")
    return sol.y[0] / s


def verify_exact_4d(sigma: float, which: str, grid) -> float:
    """Max normalized radial-ODE residual of a closed-form 4-D solution.

    which selects exp(+r^2/(2 sigma^2))/r^2 ("growing") or
    exp(-r^2/(2 sigma^2))/r^2 ("decaying"); both blow up at the origin, so
    the grid must be strictly positive.  Derivatives are analytic, hence
    the residual measures pure floating-point cancellation and must come
    out at rounding level (<= 1e-9 normalized by max(1, |u|)).
    """
    if which == "growing":
        sign = 1.0
    elif which == "decaying":
        sign = -1.0
    else:
        raise ValueError(f"which must be 'growing' or 'decaying', got {which!r}")
    r = np.asarray(grid, dtype=float)
    if np.any(r <= 0.0):
        raise ValueError("grid must exclude the origin (solutions blow up there)")
    sigma = float(sigma)
    sigma2 = sigma * sigma

    s = sign * r**2 / (2.0 * sigma2)
    ds = sign * r / sigma2
    dds = sign / sigma2
    es = np.exp(s)
    u = es / r**2
    up = es * (ds / r**2 - 2.0 / r**3)
    upp = es * (ds * ds / r**2 + dds / r**2 - 4.0 * ds / r**3 + 6.0 / r**4)
    residual = upp + 3.0 / r * up - r**2 / (sigma2 * sigma2) * u
    return float(np.max(np.abs(residual) / np.maximum(1.0, np.abs(u))))


@dataclass(frozen=True, eq=False)
class BoundReport:
    """Signed relative margins (bound - value)/bound per grid point."""

    rows: tuple  # (r, bound_name, margin) triples, grid-major
    min_margin: float
    worst_bound: str
    worst_r: float

    @property
    def ok(self) -> bool:
        return self.min_margin >= MARGIN_FLOOR

    def write_csv(self, path) -> None:
        write_csv(path, ["r", "bound_name", "margin"], self.rows)

    def summary(self) -> str:
        state = "all bounds hold" if self.ok else "BOUND VIOLATION"
        return (
            f"{state}: min margin {self.min_margin:.3e} "
            f"({self.worst_bound} at r={self.worst_r:.6g}, floor {MARGIN_FLOOR:.0e})"
        )


class BoundViolation(RuntimeError):
    """Raised by check_bounds when a margin crosses the floor."""

    def __init__(self, message: str, report: BoundReport):
        super().__init__(message)
        self.report = report


def check_bounds(kernel: SeriesKernel, grid) -> BoundReport:
    """Margins of the kernel growth, slope, and rate inequalities.

    Per grid point: u against alpha e^(x/(N+2)); u' against
    alpha r^3/(sigma^4 (N+2)) e^(x/(N+2)); the rate sigma^2 u'/(r u)
    against 1; and the rate against its algebraic envelope.  Margins are
    1 - value/bound, computed in log space so huge kernels cannot
    overflow, and must stay above -1e-12.

    Raises:
        BoundViolation: naming the failing bound and grid point (the full
            report rides on the exception).
    """
    r = np.asarray(grid, dtype=float)
    if r.ndim != 1 or np.any(np.diff(r) <= 0) or np.any(r < 0):
        raise ValueError("grid must be 1-D, strictly increasing, nonnegative")
    params = kernel.params
    n = params.n_goods
    sigma2 = params.sigma**2
    log_alpha = math.log(params.alpha)

    rows = []
    pos = r > 0.0
    rp = r[pos]
    x = rp**4 / (4.0 * sigma2 * sigma2)
    log_u = np.atleast_1d(eval_log_u(kernel, rp))
    log_up = _log_u_prime(kernel, rp)
    log_u_bound = log_alpha + x / (n + 2)
    log_up_bound = (
        log_alpha + 3.0 * np.log(rp) - math.log(sigma2 * sigma2 * (n + 2)) + x / (n + 2)
    )
    rho = sigma2 * np.exp(log_up - log_u - np.log(rp))
    env = np.atleast_1d(envelope(params, rp))

    margins = {
        "kernel_growth": -np.expm1(log_u - log_u_bound),
        "kernel_slope_growth": -np.expm1(log_up - log_up_bound),
        "rate_sigma_bound": 1.0 - rho,
        "rate_envelope": 1.0 - rho / env,
    }
    # Origin: u = alpha meets its bound with equality, u' and the rate are
    # exactly 0 against bounds 0, 1, 0.
    origin = {
        "kernel_growth": 0.0,
        "kernel_slope_growth": 0.0,
        "rate_sigma_bound": 1.0,
        "rate_envelope": 0.0,
    }

    names = ("kernel_growth", "kernel_slope_growth", "rate_sigma_bound", "rate_envelope")
    pos_index = 0
    for i, radius in enumerate(r):
        if radius == 0.0:
            for name in names:
                rows.append((float(radius), name, origin[name]))
        else:
            for name in names:
                rows.append((float(radius), name, float(margins[name][pos_index])))
            pos_index += 1

    worst = min(rows, key=lambda row: row[2])
    report = BoundReport(
        rows=tuple(rows),
        min_margin=worst[2],
        worst_bound=worst[1],
        worst_r=worst[0],
    )
    if not report.ok:
        raise BoundViolation(
            f"bound violation: {worst[1]} at r={worst[0]:.6g} "
            f"(margin {worst[2]:.3e})",
            report,
        )
    return report


def max_rel_diff(a, b) -> float:
    """max |a-b| / max(|a|, |b|, 1) over matching grids."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    den = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1.0)
    return float(np.max(np.abs(a - b) / den))
