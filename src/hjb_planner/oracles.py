"""Independent brute-force solvers that certify the series kernel.

Three routes to the same radial profile, none of which shares code with the
series evaluation:

* picard_solve: successive approximation of the integral form
  u(r) = 1 + int_0^r t^(1-N) int_0^t s^(N+1) u(s)/sigma^4 ds dt,
  discretized with composite trapezoid sums on refinements of the caller's
  grid.  The trapezoid error expands in even powers of the step (Linz,
  Analytical and Numerical Methods for Volterra Equations, SIAM 1985,
  ch. 7), so two Romberg steps on three consecutive refinement levels
  cancel its h^2 and h^4 terms; levels are added from L = 1 until two
  successive extrapolations agree, which every cell of the verify
  acceptance cross does at L = 4.  A level too coarse for the iteration to
  converge is skipped before iterating.  The iterates increase pointwise
  and their sup-differences, extrapolated the same way, obey the factorial
  envelope (1/(k+1)!) (R^4/(4 sigma^4 (N+2)))^(k+1), which doubles as a
  convergence certificate.

* ode_solve: direct integration of the radial ODE, linear in y = (u, u'),
  y' = A(r) y, by sixth-order Magnus exponentials (Iserles & Norsett,
  Phil. Trans. R. Soc. A 357, 1999; Blanes, Casas, Oteo & Ros, Phys. Rep.
  470, 2009): each step's 2x2 propagator is formed in closed form for all
  steps at once, and the propagators are composed by a prefix product;
  usable wherever u itself stays inside double range.  A four-term local
  series built from the ODE's own coefficient recurrence fills the grid
  points up to a radius r0 and gives the initial values at r0/2, where the
  integration starts, so no step spans the singular (N-1)/r stretch next
  to the origin.  The mesh is solved twice, the second time with every
  step halved; two levels that disagree raise a RuntimeError naming the
  gap, and agreeing ones are combined by Richardson extrapolation.

* verify_exact_4d: two closed-form four-dimensional solutions
  exp(+-r^2/(2 sigma^2)) / r^2 whose ODE residual is algebraically zero,
  evaluated with analytic derivatives so the fixture carries no
  discretization error at all.

Test-only references for rho = sigma^2 u'/(r u), sharing no code with the
rate module: quotient_rate, the rate's own power series in x with
coefficients from exact-rational Cauchy division (finite convergence
radius, so small x only); and bessel_rate, the closed-form Bessel ratio
I_((N+2)/4)(z) / I_((N-2)/4)(z), z = r^2/(2 sigma^2), by a backward
recurrence between Amos's bounds that refuses if the bracket stays open.

check_bounds sweeps the growth/slope/rate inequalities the kernel must
satisfy and reports a signed relative margin per grid point.

The package imports no scipy module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .params import ModelParams
from .series import SeriesKernel, _kernel_eval, eval_log_u, eval_log_u_prime

MARGIN_FLOOR = -1e-12
BOUND_NAMES = ("kernel_growth", "kernel_slope_growth", "rate_sigma_bound", "rate_envelope")

_PICARD_MAX_ITER = 200
_PICARD_TOL = 1e-10  # sup-difference of successive iterates that stops a level
_QUAD_SELF_CONSISTENCY = 1e-10
_PICARD_MAX_CONTRACTION = 0.5  # spectral radius from which a level is too coarse to iterate
_MAX_REFINE_DOUBLINGS = 14
_OVERFLOW_LOG_LIMIT = 645.0  # ln of the largest double, with headroom
_START_REL = 1e-18  # largest relative size of the first omitted term at r0
_STIFF_STEP = 1.0  # ODE steps h <= this * r / N, for the (N-1)/r term
_GROWTH_STEP = 0.1  # and h <= this * sigma^2 / (r + sigma), for the growth rate r / sigma^2
_ODE_LEVEL_GAP = 1e-8  # largest relative gap allowed between the mesh and its halving
_GAUSS_NODES = 0.5 + math.sqrt(15.0) / 10.0 * np.array([-1.0, 0.0, 1.0])  # on [0, 1]
_BESSEL_GAP = 1e-15  # widest relative bracket bessel_rate returns, a few ulp


@dataclass(frozen=True, eq=False)
class RadialGridFn:
    """A radial profile tabulated on a strictly increasing grid from 0."""

    r: np.ndarray
    values: np.ndarray
    sup_diffs: tuple[float, ...] | None = None  # picard successive sup-differences
    refinement_level: int | None = None  # picard: level the refinement stopped at
    nfev: int | None = None  # ode: evaluations of A(r), both mesh levels
    series_points: int | None = None  # ode: grid points filled from the local series

    def __post_init__(self) -> None:
        r = _radial_grid(self.r)
        v = np.asarray(self.values, dtype=float)
        if v.shape != r.shape:
            raise ValueError(f"values of shape {v.shape} do not match the grid's {r.shape}")
        if not np.all(np.isfinite(v)):
            raise ValueError("profile values must be finite")
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "values", v)


def _radial_grid(grid, r_max: float = math.inf) -> np.ndarray:
    """grid as a 1-D float array, refused with a ValueError naming its shape
    or its first bad point unless it is non-empty, finite and strictly
    increasing from 0 to at most r_max.  Shares no code with rate.radius_grid."""
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise ValueError(f"grid must be a non-empty 1-D array, got shape {grid.shape}")
    ok = np.isfinite(grid) & (grid <= r_max)
    ok[0] &= grid[0] == 0.0
    ok[1:] &= grid[1:] > grid[:-1]
    if not ok.all():
        i = int(np.argmin(ok))
        raise ValueError(
            f"grid must be finite and strictly increasing from 0 within [0, {r_max!r}], "
            f"got r = {float(grid[i])!r} at index {i}"
        )
    return grid


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


def _picard_once(params: ModelParams, t: np.ndarray, stride: int):
    """Run the iteration on a fixed grid t.

    Returns the final iterate on t and the successive differences
    u_(k+1) - u_k of every iteration, restricted to every stride-th node
    (one row per iteration).  Iteration stops once the largest difference
    over all of t falls below _PICARD_TOL.  Returns None, before
    iterating, when t is too coarse for the iteration to converge: the
    iteration operator is lower triangular, so its spectral radius is its
    largest diagonal weight half_h[i-1] w_hi[i-1] t_i^(1-N) / sigma^4,
    formed in log space and refused from _PICARD_MAX_CONTRACTION up.
    """
    n = params.n_goods
    inv_sigma4 = 1.0 / params.sigma**4
    w_lo, w_hi = _monomial_weights(t, n + 1)
    half_h = 0.5 * np.diff(t)
    # g = t^(1-N) inner / sigma^4, formed as exp(ln inner - (N-1) ln t); the
    # origin keeps shift 0, where inner = 0 gives exp(-inf) = 0.
    shift = np.zeros_like(t)
    np.multiply(n - 1, np.log(t[1:]), out=shift[1:])
    with np.errstate(divide="ignore"):  # an underflowed weight is ln 0 = -inf
        log_diag = np.log(half_h) + np.log(w_hi) - shift[1:]
    if not np.max(log_diag) - 4.0 * math.log(params.sigma) < math.log(_PICARD_MAX_CONTRACTION):
        return None

    u = np.ones_like(t)
    u_next = np.ones_like(t)  # [0] stays 1
    inner = np.zeros_like(t)
    g = np.empty_like(t)
    seg = np.empty(t.size - 1)
    seg_hi = np.empty(t.size - 1)
    step = np.empty_like(t)
    steps: list[np.ndarray] = []
    for _ in range(_PICARD_MAX_ITER):
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
        np.add(u_next[1:], 1.0, out=u_next[1:])
        np.subtract(u_next, u, out=step)
        sup = float(np.max(step))
        steps.append(step[::stride].copy())
        u, u_next = u_next, u
        if sup < _PICARD_TOL:
            return u, steps
    raise RuntimeError(
        f"Picard not converged after {_PICARD_MAX_ITER} iterations "
        f"(achieved sup-difference {sup:.3e}, tol {_PICARD_TOL:.3e})"
    )


def _romberg(fine: np.ndarray, mid: np.ndarray, coarse: np.ndarray) -> np.ndarray:
    """Cancel the h^2 and h^4 terms of a trapezoid result from grids h, 2h
    and 4h: E = (4 fine - mid)/3 and (4 mid - coarse)/3, then
    (16 E_fine - E_mid)/15."""
    e_fine = (4.0 * fine - mid) / 3.0
    e_mid = (4.0 * mid - coarse) / 3.0
    return (16.0 * e_fine - e_mid) / 15.0


def picard_solve(params: ModelParams, grid) -> RadialGridFn:
    """Limit of the integral-form iterates on the caller's grid.

    Quadrature is composite trapezoid on refinement level L, which splits
    every grid interval into 2^L equal pieces.  On each level the iteration
    stops when the largest difference of successive iterates falls below
    1e-10 (or raises "Picard not converged" after 200 iterations).  The
    trapezoid error expands in even powers of the step, so two Romberg
    steps on three consecutive levels cancel its h^2 and h^4 terms:
    E_L = (4 U_L - U_(L-1))/3 and R_L = (16 E_L - E_(L-1))/15 on the
    caller's grid.  Levels are added from L = 1 until
    max |R_L - R_(L-1)| / |R_L| < 1e-10 (first possible at L = 4; every
    cell of the verify acceptance cross stops there); R_L is returned, with
    the stopping level as refinement_level.  A level too coarse for the
    iteration to converge (its operator's spectral radius at least 1/2) is
    skipped before iterating, and the three consecutive levels are counted
    from the next one.

    sup_diffs[k] is the maximum over the caller's grid of the same Romberg
    combination of the k-th successive differences of the three levels, up
    to the shortest of their runs; the finest level's own differences fill
    the rest.

    Raises:
        RuntimeError: "Picard quadrature refinement did not reach
            self-consistency", naming the smallest relative gap reached
            and the last level tried; "Picard iteration cannot converge on
            any refinement level" when every level up to the last is too
            coarse.
        ValueError: for a grid _radial_grid refuses within [0, radius], or
            of fewer than 2 points, before any level runs.
    """
    grid = _radial_grid(grid, params.radius)
    if grid.size < 2:
        raise ValueError("picard_solve needs a grid of at least 2 points")

    levels: list = []  # (U_L, successive differences) of consecutive levels, finest last
    prev_r = None
    best_gap = math.inf
    for level in range(1, _MAX_REFINE_DOUBLINGS + 1):
        per = 1 << level
        run = _picard_once(params, _refine(grid, per), per)
        if run is None:
            levels, prev_r = [], None
            continue
        u_fine, steps = run
        levels = [*levels[-2:], (u_fine[::per], steps)]
        if len(levels) < 3:
            continue
        (u0, steps0), (u1, steps1), (u2, steps2) = levels
        r = _romberg(u2, u1, u0)
        if prev_r is not None:
            gap = float(np.max(np.abs(r - prev_r) / np.abs(r)))
            best_gap = min(best_gap, gap)
            if gap < _QUAD_SELF_CONSISTENCY:
                shortest = min(len(steps0), len(steps1), len(steps2))
                sup_diffs = [
                    float(np.max(_romberg(*d))) for d in zip(steps2, steps1, steps0)
                ] + [float(np.max(d)) for d in steps2[shortest:]]
                return RadialGridFn(grid, r, tuple(sup_diffs), level)
        prev_r = r
    if not levels:
        raise RuntimeError(
            "Picard iteration cannot converge on any refinement level through "
            f"{_MAX_REFINE_DOUBLINGS}: the iteration's spectral radius on level "
            f"{_MAX_REFINE_DOUBLINGS} is at least {_PICARD_MAX_CONTRACTION}"
        )
    raise RuntimeError(
        "Picard quadrature refinement did not reach self-consistency "
        f"{_QUAD_SELF_CONSISTENCY:.1e}: best relative gap {best_gap:.3e}, "
        f"last level {_MAX_REFINE_DOUBLINGS}"
    )


def picard_step_bound(params: ModelParams, r: float, k: int) -> float:
    """Analytic envelope for the k-th successive difference at radius r."""
    q = r**4 / (4.0 * params.sigma**4 * (params.n_goods + 2))
    return 1.0 / math.factorial(k + 1) * q ** (k + 1)


def _mat_mul(x, y):
    """Products of stacked 2x2 matrices of shape (2, 2, ...)."""
    return np.einsum("ij...,jk...->ik...", x, y)


def _bracket(x, y):
    return _mat_mul(x, y) - _mat_mul(y, x)


def _ode_mesh(r_start: float, r_end: float, n: int, sigma: float) -> np.ndarray:
    """Knots from r_start up to about r_end whose every step h from a knot
    r is at most min(_STIFF_STEP r/N, _GROWTH_STEP sigma^2/(r + sigma)):
    geometric while the first bound is the smaller, then equal steps in
    (r + sigma)^2."""
    q = _STIFF_STEP / n
    r_switch = min(0.5 * sigma * (math.sqrt(1.0 + 4.0 * _GROWTH_STEP / q) - 1.0), r_end)
    count = math.ceil(math.log(r_switch / r_start) / math.log1p(q)) if r_switch > r_start else 0
    geometric = r_start * (1.0 + q) ** np.arange(count + 1)
    geometric = geometric[geometric < r_end]
    w = (geometric[-1] + sigma) ** 2, (r_end + sigma) ** 2
    count = math.ceil((w[1] - w[0]) / (2.0 * _GROWTH_STEP * sigma * sigma))
    return np.concatenate([geometric, np.sqrt(np.linspace(*w, count + 1)[1:-1]) - sigma])


def _propagators(mesh: np.ndarray, n: int, sigma4: float) -> np.ndarray:
    """exp(Omega) of every mesh step, shape (2, 2, steps).

    Omega is the sixth-order Magnus truncation from A at the step's three
    Gauss-Legendre nodes (Blanes, Casas, Oteo & Ros, Phys. Rep. 470, 2009,
    sec. 5.4): with a1 = h A_2, a2 = sqrt(15) h (A_3 - A_1)/3 and
    a3 = 10 h (A_3 - 2 A_2 + A_1)/3, C1 = [a1, a2],
    C2 = -[a1, 2 a3 + C1]/60 and
    Omega = a1 + a3/12 + [-20 a1 - a3 + C1, a2 + C2]/240.
    """
    h = np.diff(mesh)
    r = mesh[:-1] + h * _GAUSS_NODES[:, None]  # (3, steps)
    ha = np.zeros((2, 2, 3, h.size))  # h A(r) at the nodes
    ha[0, 1] = h
    ha[1, 0] = r * r / sigma4 * h
    ha[1, 1] = -(n - 1) / r * h
    a1 = ha[:, :, 1]
    a2 = math.sqrt(15.0) / 3.0 * (ha[:, :, 2] - ha[:, :, 0])
    a3 = 10.0 / 3.0 * (ha[:, :, 2] - 2.0 * ha[:, :, 1] + ha[:, :, 0])
    c1 = _bracket(a1, a2)
    c2 = _bracket(a1, 2.0 * a3 + c1) / -60.0
    (a, b), (c, d) = a1 + a3 / 12.0 + _bracket(-20.0 * a1 - a3 + c1, a2 + c2) / 240.0
    # exp(Omega) = e^mu (cosh(delta) I + sinh(delta)/delta (Omega - mu I)),
    # taken as halves at e^(mu + delta) and e^(mu - delta).  Every entry is
    # positive; the diagonal's 1 - |p|/delta is formed as
    # bc/(delta (delta + |p|)), so the entry that decays across a stiff
    # step does not cancel.
    mu, p = 0.5 * (a + d), 0.5 * (a - d)
    bc = b * c
    delta = np.sqrt(p * p + bc)
    low = bc / (delta * (delta + np.abs(p)))  # 1 - |p|/delta
    high = 2.0 - low  # 1 + |p|/delta
    grow, decay = np.exp(mu + delta), np.exp(mu - delta)
    span = -0.5 * grow * np.expm1(-2.0 * delta) / delta  # (grow - decay) / (2 delta)
    big, small = 0.5 * (grow * high + decay * low), 0.5 * (grow * low + decay * high)
    up = p >= 0.0
    return np.array([[np.where(up, big, small), span * b], [span * c, np.where(up, small, big)]])


def _prefix_products(m: np.ndarray) -> np.ndarray:
    """m_k ... m_1 m_0 for every k of stacked 2x2 matrices, in place, by
    log-depth doubling (Hillis & Steele, Commun. ACM 29, 1986)."""
    shift = 1
    while shift < m.shape[-1]:
        m[..., shift:] = _mat_mul(m[..., shift:], m[..., :-shift])
        shift *= 2
    return m


def ode_solve(params: ModelParams, r_max: float, grid) -> RadialGridFn:
    """Direct integration of u'' + (N-1)/r u' = r^2 u / sigma^4.

    The origin is a removable coordinate singularity and (N-1)/r makes the
    equation stiff near it, so the profile starts from the local series
    u = sum_(j<4) a_j x^j, x = r^4/(4 sigma^4), with a_j built from
    the ODE's own recurrence.  The start radius r0 is the largest radius
    where the first omitted term is at most 1e-18 relative for both u
    and u' (a_4 x^4 and 4 a_4 x^3 / a_1), capped at r_max/2 so at least
    half the range is integrated.  Grid points at r <= r0 take the series
    value; the rest are integrated from the series at r0/2, which keeps
    every output point clear of the start; the series is more accurate
    there still (its first omitted term scales as r^16).

    The equation is linear, y' = A(r) y with y = (u, u') and
    A = [[0, 1], [r^2/sigma^4, -(N-1)/r]], so each mesh step's propagator
    is exp(Omega), a sixth-order Magnus exponential (_propagators), and y
    at every knot is a prefix product of propagators applied to the
    start.  The mesh has a knot at every output point, and every step h
    from a knot r is at most min(r/N, 0.1 sigma^2/(r + sigma)): the first
    bound keeps h (N-1)/r below 1, the stiff term's share of the step, and
    the second the growth h r/sigma^2 below 0.1.  The mesh is solved, then
    solved again with every step halved.  The two levels' largest relative
    gap at the output points must be at most 1e-8; the returned values are
    their Richardson extrapolation fine + (fine - coarse)/63, which
    cancels the h^6 term of the global error.  nfev counts evaluations of
    A(r), three per step on both levels (0 when every grid point lies
    within r0), and series_points the grid points filled from the series.

    Raises:
        RuntimeError: "direct integration range exceeded" when the growth
            bound says u(r_max) would overflow double precision (use the
            logarithmic-derivative route instead); "radial ODE integration
            failed" naming the gap between the two mesh levels, and the
            radius where it is largest, when it exceeds 1e-8 or is not a
            number.
        ValueError: for a grid _radial_grid refuses within [0, r_max].
    """
    r_max = float(r_max)
    n = params.n_goods
    sigma4 = params.sigma**4
    x_max = r_max**4 / (4.0 * sigma4)
    if x_max / (n + 2) > _OVERFLOW_LOG_LIMIT:
        raise RuntimeError(
            "direct integration range exceeded (u would overflow; "
            "use the logarithmic-derivative path)"
        )
    grid = _radial_grid(grid, r_max)

    # a_0..a_4 of u = sum_j a_j x^j; a_4 is the first term left out
    a = [1.0]
    for j in range(1, 5):
        a.append(a[-1] / (j * (n + 4 * j - 2)))
    a0, a1, a2, a3, a4 = a
    x0 = min((_START_REL / a4) ** 0.25, (_START_REL * a1 / (4.0 * a4)) ** (1.0 / 3.0))
    r0 = min((4.0 * sigma4 * x0) ** 0.25, 0.5 * r_max)

    def local_series(r):
        x = r**4 / (4.0 * sigma4)
        u = a0 + x * (a1 + x * (a2 + x * a3))
        up = r**3 / sigma4 * (a1 + x * (2.0 * a2 + x * 3.0 * a3))
        return u, up

    head = grid <= r0
    values = np.empty(grid.shape)
    values[head], _ = local_series(grid[head])
    out = grid[~head]
    nfev = 0
    if out.size:
        u0, up0 = local_series(0.5 * r0)
        mesh = _ode_mesh(0.5 * r0, out[-1], n, params.sigma)
        mesh = np.union1d(mesh[mesh < out[-1]], out)
        levels = []
        for _ in range(2):
            m = _prefix_products(_propagators(mesh, n, sigma4))
            step = np.searchsorted(mesh, out) - 1  # the step ending at each output point
            levels.append(m[0, 0, step] * u0 + m[0, 1, step] * up0)
            nfev += 3 * (mesh.size - 1)
            mesh = np.insert(mesh, np.arange(1, mesh.size), 0.5 * (mesh[:-1] + mesh[1:]))
        coarse, fine = levels
        gap = np.abs(fine - coarse) / fine
        worst = int(np.argmax(gap))
        if not gap[worst] <= _ODE_LEVEL_GAP:
            raise RuntimeError(
                f"radial ODE integration failed: the mesh and its halving differ by "
                f"{gap[worst]:.3e} relative at r = {out[worst]:.6g}, past {_ODE_LEVEL_GAP:.0e}"
            )
        values[~head] = fine + (fine - coarse) / 63.0
    return RadialGridFn(grid, values, nfev=nfev, series_points=int(np.count_nonzero(head)))


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


def bessel_rate(params: ModelParams, r) -> np.ndarray:
    """rho = I_((N+2)/4)(z) / I_((N-2)/4)(z), z = r^2/(2 sigma^2) (DLMF 10.29).

    R_k = I_(k+1)/I_k obeys R_(k-1) = z / (2k + z R_k) (Gautschi, SIAM Rev.
    9, 1967).  Two runs descend K = ceil(sqrt(40 z_max)) + 40 orders to
    nu = (N-2)/4, one from each of Amos's bounds on R at nu + K (Math.
    Comp. 28, 1974).  The map decreases in R_k, so the runs bracket rho at
    every order; the midpoint is returned.  The z-multiplied form keeps a
    subnormal rate above 0, and r = 0 gives exactly 0.

    Raises:
        ValueError: for a negative or non-finite radius.
        RuntimeError: "Bessel ratio bracket did not close" when the final
            bracket is wider than _BESSEL_GAP relative.
    """
    r = np.asarray(r, dtype=float)
    if not np.all(np.isfinite(r) & (r >= 0.0)):
        raise ValueError("bessel_rate needs finite radii r >= 0")
    z = (r / params.sigma) ** 2 / 2.0
    nu = (params.n_goods - 2) / 4.0
    top = math.ceil(math.sqrt(40.0 * float(z.max(initial=0.0)))) + 40
    mu = nu + top
    lo = z / (mu + 0.5 + np.sqrt(z * z + (mu + 1.5) ** 2))
    hi = z / (mu + 0.5 + np.sqrt(z * z + (mu + 0.5) ** 2))
    for k in range(top, 0, -1):
        lo, hi = z / (2.0 * (nu + k) + z * lo), z / (2.0 * (nu + k) + z * hi)
    mid = 0.5 * (lo + hi)
    width = np.abs(hi - lo) / np.maximum(mid, np.finfo(float).tiny)
    if np.any(width > _BESSEL_GAP):
        raise RuntimeError(
            f"Bessel ratio bracket did not close: relative width {np.max(width):.3e}"
        )
    return mid


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
    """Signed relative margins (bound - value)/bound per grid point; a
    non-finite margin is reported as the worst one and fails ok."""

    radii: np.ndarray  # the grid, read-only
    margins: np.ndarray  # read-only, (radii.size, len(BOUND_NAMES)): a column per bound
    min_margin: float
    worst_bound: str
    worst_r: float

    @property
    def rows(self) -> tuple:
        """(r, bound_name, margin) triples of Python floats, grid-major."""
        radii = np.repeat(self.radii, len(BOUND_NAMES)).tolist()
        return tuple(zip(radii, BOUND_NAMES * self.radii.size, self.margins.ravel().tolist()))

    @property
    def ok(self) -> bool:
        return math.isfinite(self.min_margin) and self.min_margin >= MARGIN_FLOOR


class BoundViolation(RuntimeError):
    """Raised by check_bounds when a margin crosses the floor."""

    def __init__(self, message: str, report: BoundReport):
        super().__init__(message)
        self.report = report


def check_bounds(kernel: SeriesKernel, grid) -> BoundReport:
    """Margins of the kernel growth, slope, and rate inequalities.

    Per grid point: u against e^(x/(N+2)); u' against
    r^3/(sigma^4 (N+2)) e^(x/(N+2)); the rate rho = sigma^2 u'/(r u) =
    s^2 B/A against 1; and the rate against its algebraic envelope.  ln u,
    ln u' and B/A come from the series module's kernel-sum core, so no
    margin overflows or passes through an underflowed rho: the kernel
    margins are 1 - value/bound formed in log space, and the envelope
    margin 1 - rho/env is formed as 1 - (B/A) (N + hypot(N, 2 s^2))/2, with
    s = r/sigma; at r = 0 it is its limit 2/(N+2).  Every margin must be
    finite and above -1e-12.

    Raises:
        BoundViolation: naming the failing bound and grid point (the full
            report rides on the exception); a non-finite margin is a
            violation.
    """
    r = np.array(grid, dtype=float)  # a copy, kept read-only in the report
    if r.ndim != 1 or np.any(np.diff(r) <= 0) or not np.all(r >= 0):
        raise ValueError("grid must be 1-D, strictly increasing, nonnegative")
    n = kernel.params.n_goods
    sigma2 = kernel.params.sigma**2

    positive = r > 0.0
    rp = r[positive]
    x = rp**4 / (4.0 * sigma2 * sigma2)
    s2 = rp * rp / sigma2
    log_u = eval_log_u(kernel, rp)
    log_up = eval_log_u_prime(kernel, rp)
    b_over_a = _kernel_eval(
        kernel,
        rp,
        lambda r, s, t, b: b / (t + 1.0),
        lambda r, s, m, s0, s1: 4.0 * s1 / (s0 * s**4),  # S1 / (x S0)
    )
    log_u_bound = x / (n + 2)
    log_up_bound = 3.0 * np.log(rp) - math.log(sigma2 * sigma2 * (n + 2)) + x / (n + 2)

    # one row per grid point, one column per bound in BOUND_NAMES' order.
    # Origin: u = 1 meets its bound with equality, u' and the rate are
    # exactly 0 against bounds 0 and 1, and 1 - rho/env takes its limit
    # 1 - a_1 N = 2/(N+2), so the envelope column has no jump at r = 0.
    margins = np.empty((r.size, len(BOUND_NAMES)))
    margins[~positive] = (0.0, 0.0, 1.0, 2.0 / (n + 2))
    margins[positive, 0] = -np.expm1(log_u - log_u_bound)
    margins[positive, 1] = -np.expm1(log_up - log_up_bound)
    margins[positive, 2] = 1.0 - s2 * b_over_a
    margins[positive, 3] = 1.0 - b_over_a * (n + np.hypot(n, 2.0 * s2)) / 2.0
    r.flags.writeable = margins.flags.writeable = False

    bad = np.flatnonzero(~np.isfinite(margins))
    point, bound = divmod(int(bad[0] if bad.size else np.argmin(margins)), len(BOUND_NAMES))
    report = BoundReport(
        radii=r,
        margins=margins,
        min_margin=float(margins[point, bound]),
        worst_bound=BOUND_NAMES[bound],
        worst_r=float(r[point]),
    )
    if not report.ok:
        raise BoundViolation(
            f"bound violation: {report.worst_bound} at r={report.worst_r:.6g} "
            f"(margin {report.min_margin:.3e})",
            report,
        )
    return report


def max_rel_diff(a, b) -> float:
    """max |a-b| / max(|a|, |b|, 1) over matching grids."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    den = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1.0)
    return float(np.max(np.abs(a - b) / den))
