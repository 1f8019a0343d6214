import dataclasses
import math

import numpy as np
import pytest

from hjb_planner import ModelParams, build_kernel, build_rate, expected_optimal_cost, rate_coeff
from hjb_planner import simulate as simulate_module
from hjb_planner.rate import _rho_unchecked
from hjb_planner.rng import normals
from hjb_planner.series import HORNER_X_MAX
from hjb_planner.simulate import (
    SimConfig,
    _run_paths,
    collect_costs,
    euler_path,
    monte_carlo_cost,
)


COLUMNS = ("tau", "cost", "exited", "y_final")


def assert_same_columns(a, b):
    for name in COLUMNS:
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


def cfg_origin(n_paths=200, dt=1e-3, seed=42, max_steps=100_000, dim=2):
    return SimConfig(dt=dt, max_steps=max_steps, n_paths=n_paths, seed=seed, y0=np.zeros(dim))


class TestSimConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(dt=0.0, max_steps=10, n_paths=2, seed=1, y0=[0.0, 0.0]),
            dict(dt=-1e-3, max_steps=10, n_paths=2, seed=1, y0=[0.0, 0.0]),
            dict(dt=1e-3, max_steps=0, n_paths=2, seed=1, y0=[0.0, 0.0]),
            dict(dt=1e-3, max_steps=10, n_paths=0, seed=1, y0=[0.0, 0.0]),
            dict(dt=1e-3, max_steps=10, n_paths=2, seed=-1, y0=[0.0, 0.0]),
            dict(dt=1e-3, max_steps=10, n_paths=2, seed=2**64, y0=[0.0, 0.0]),
            dict(dt=1e-3, max_steps=10, n_paths=2, seed=1, y0=[[0.0], [0.0]]),
            dict(dt=1e-3, max_steps=10, n_paths=2, seed=1, y0=[0.0, np.nan]),
            dict(dt=1e-3, max_steps=10.5, n_paths=2, seed=1, y0=[0.0, 0.0]),
            dict(dt=1e-3, max_steps=10, n_paths=2.0, seed=1, y0=[0.0, 0.0]),
            dict(dt=1e-3, max_steps=10, n_paths=2, seed=2.5, y0=[0.0, 0.0]),
            dict(dt=1e-3, max_steps=2**32, n_paths=2, seed=1, y0=[0.0, 0.0]),
        ],
    )
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ValueError):
            SimConfig(**kwargs)

    def test_non_integer_count_named(self, std_rate):
        with pytest.raises(ValueError, match=r"max_steps must be an integer, got 10\.5"):
            SimConfig(dt=1e-3, max_steps=10.5, n_paths=2, seed=1, y0=[0.0, 0.0])
        # truncated, path 1.5 would run path 1
        with pytest.raises(ValueError, match=r"path_index must be an integer, got 1\.5"):
            euler_path(std_rate, cfg_origin(n_paths=2), 1.5)
        # nor may an index outside 64 bits wrap onto another path's stream
        for path_index in (-1, 2**64):
            with pytest.raises(ValueError, match="path_index must be a nonnegative 64-bit integer"):
                euler_path(std_rate, cfg_origin(n_paths=2), path_index)

    def test_dimension_mismatch_detected(self, std_rate):
        cfg = cfg_origin(dim=3)
        with pytest.raises(ValueError, match="components"):
            euler_path(std_rate, cfg, 0)


class TestEulerPath:
    def test_bitwise_deterministic(self, std_rate):
        cfg = cfg_origin()
        assert_same_columns(euler_path(std_rate, cfg, 11), euler_path(std_rate, cfg, 11))

    def test_first_step_from_origin_is_pure_noise(self, std_rate):
        # p(0) = 0, so y(dt) = sigma sqrt(dt) Z exactly
        cfg = SimConfig(dt=1e-3, max_steps=1, n_paths=1, seed=5, y0=np.zeros(2))
        result = euler_path(std_rate, cfg, 4)
        z = normals(5, [4], 0, 2, 1)[0, 0]
        expected = math.sqrt(1e-3) * z
        assert np.array_equal(result.y_final[0], expected)
        assert not result.exited[0]
        assert result.tau[0] == 1e-3  # one completed step
        assert result.cost[0] == 0.0  # left-endpoint cost at the origin is 0
        assert result.traces == []

    def test_start_on_boundary_exits_immediately(self, std_rate):
        cfg = SimConfig(dt=1e-3, max_steps=10, n_paths=1, seed=1, y0=np.asarray([0.6, 0.8]))
        result = euler_path(std_rate, cfg, 0)
        assert result.exited[0]
        assert result.tau[0] == 0.0
        assert result.cost[0] == 0.0
        assert np.linalg.norm(result.y_final[0]) >= 1.0

    def test_exit_state_beyond_boundary(self, std_rate):
        result = euler_path(std_rate, cfg_origin(), 3)
        tau = result.tau[0]
        assert result.exited[0]
        assert np.linalg.norm(result.y_final[0]) >= std_rate.params.radius
        assert tau == pytest.approx(1e-3 * round(tau / 1e-3), abs=1e-12)  # dt times completed steps

    def test_trace_recording(self, std_rate):
        cfg = cfg_origin()
        result = euler_path(std_rate, cfg, 2, record_trace=True, trace_stride=5)
        (trace,) = result.traces
        assert trace.shape[1] == 4  # t, y_1, y_2, cost
        assert trace[0, 0] == 0.0
        assert np.all(np.diff(trace[:, 0]) > 0.0)
        assert np.all(np.diff(trace[:, 3]) >= 0.0)  # cost accumulates
        # last sample is the exit state, at or beyond the boundary
        assert result.exited[0]
        assert np.linalg.norm(trace[-1, 1:3]) >= 1.0
        assert trace[-1, 0] == result.tau[0]

    @pytest.mark.parametrize("stride", [0, -5])
    @pytest.mark.parametrize("entry", ["euler_path", "collect_costs"])
    def test_stride_below_one_refused(self, std_rate, entry, stride):
        # neither clamped to 1 nor used as a divisor
        cfg = cfg_origin(n_paths=3)
        with pytest.raises(ValueError, match=f"trace_stride must be >= 1, got {stride}"):
            if entry == "euler_path":
                euler_path(std_rate, cfg, 0, record_trace=True, trace_stride=stride)
            else:
                collect_costs(std_rate, cfg, 2, stride)

    def test_diverged_state_flagged(self, std_rate):
        bad_log_a = std_rate.log_a.copy()
        bad_log_a[1] = np.nan
        bad_rate = dataclasses.replace(std_rate, log_a=bad_log_a)
        cfg = SimConfig(dt=1e-3, max_steps=50, n_paths=1, seed=1, y0=np.asarray([0.3, 0.0]))
        with pytest.raises(RuntimeError, match="simulation diverged"):
            euler_path(bad_rate, cfg, 0)

    def test_divergence_on_the_last_step_flagged(self, std_rate):
        # the state turns non-finite on the horizon's only step, so no later
        # step's exit test can see it
        bad_log_a = std_rate.log_a.copy()
        bad_log_a[1] = np.nan
        bad_rate = dataclasses.replace(std_rate, log_a=bad_log_a)
        cfg = SimConfig(dt=1e-3, max_steps=1, n_paths=1, seed=1, y0=np.asarray([0.3, 0.0]))
        with pytest.raises(RuntimeError, match="simulation diverged"):
            euler_path(bad_rate, cfg, 0)

    def test_finite_state_with_overflowing_norm_exits(self, std_rate):
        # |y|^2 overflows to inf, but the state is finite: an exit, not a
        # divergence
        cfg = SimConfig(dt=1e-3, max_steps=5, n_paths=1, seed=1, y0=np.asarray([1e200, 0.0]))
        result = euler_path(std_rate, cfg, 0)
        assert result.exited[0] and result.tau[0] == 0.0 and result.cost[0] == 0.0
        assert np.array_equal(result.y_final, [[1e200, 0.0]])


class TestBatchEngine:
    def test_independent_of_chunking(self, std_rate):
        cfg = cfg_origin(n_paths=10)
        whole = _run_paths(std_rate, cfg, np.arange(10, dtype=np.uint64))
        first = _run_paths(std_rate, cfg, np.arange(5, dtype=np.uint64))
        second = _run_paths(std_rate, cfg, np.arange(5, 10, dtype=np.uint64))
        for name in COLUMNS:
            merged = np.concatenate([getattr(first, name), getattr(second, name)])
            assert np.array_equal(getattr(whole, name), merged)

    def test_single_path_matches_batch(self, std_rate):
        cfg = cfg_origin(n_paths=6)
        batch = _run_paths(std_rate, cfg, np.arange(6, dtype=np.uint64))
        for i in range(6):
            single = euler_path(std_rate, cfg, i)
            for name in COLUMNS:
                assert np.array_equal(getattr(single, name)[0], getattr(batch, name)[i])

    def test_pinned_costs_are_bitwise_stable(self, std_rate):
        # exact floats of the one-step-at-a-time engine with rho as the
        # kernel's series ratio; step-blocked draws and the in-place rho
        # must not move a bit
        assert monte_carlo_cost(std_rate, cfg_origin(n_paths=200, seed=42)) == (
            0.12292715369426331, 0.006237990311086364, 200,
        )
        rate100 = build_rate(build_kernel(ModelParams(100, 1.0, 1.0), r_max=1.0))
        cfg100 = cfg_origin(n_paths=200, dt=1e-4, seed=7, dim=100)
        assert monte_carlo_cost(rate100, cfg100) == (
            0.004958740516553915, 6.0156829130218264e-05, 200,
        )

    @pytest.mark.parametrize("n", [1, 2, 5, 100])
    def test_diffusion_rescaling_scales_paths(self, n):
        # claim (b) in the engine: with y = sigma s, rho(sigma s; sigma) =
        # g_N(s), so every path at (N, sigma, R = sigma) is sigma times the
        # same-noise path at (N, 1, 1): the same exit step, sigma^2 times
        # its cost.  Bit for bit only where sigma is a power of two.
        def batch(sigma):
            rate = build_rate(build_kernel(ModelParams(n, sigma, sigma), r_max=sigma))
            return collect_costs(rate, cfg_origin(n_paths=300, dt=2e-3, seed=5, dim=n))

        unit = batch(1.0)
        assert unit.exited.all()
        for sigma in (0.25, 0.5, 2.0):
            scaled = batch(sigma)
            assert np.array_equal(scaled.tau, unit.tau)
            assert np.array_equal(scaled.exited, unit.exited)
            assert np.array_equal(scaled.cost, sigma**2 * unit.cost)
            assert np.array_equal(scaled.y_final, sigma * unit.y_final)

    @pytest.mark.parametrize(
        "dim,y0_scale,max_steps,n_paths",
        [(2, 0.0, 100_000, 40), (5, 0.3, 100_000, 30), (2, 0.0, 37, 12), (2, 0.0, 37, 3)],
    )
    def test_step_blocks_do_not_change_paths(
        self, monkeypatch, dim, y0_scale, max_steps, n_paths
    ):
        rate = build_rate(build_kernel(ModelParams(dim, 1.0, 1.0), r_max=1.0))
        cfg = SimConfig(
            dt=1e-3, max_steps=max_steps, n_paths=n_paths, seed=8,
            y0=np.full(dim, y0_scale / math.sqrt(dim)),
        )
        idx = np.arange(n_paths, dtype=np.uint64)
        n_traced = 4  # more than the batch in the last case
        draws = []

        def recording_normals(seed, paths, step, n_components, n_steps):
            draws.append((step, n_steps))
            return normals(seed, paths, step, n_components, n_steps)

        monkeypatch.setattr(simulate_module, "normals", recording_normals)
        blocked = _run_paths(rate, cfg, idx, n_traced, trace_stride=3)
        assert max(k for _, k in draws) > 1
        assert all(step + k <= max_steps for step, k in draws)
        monkeypatch.setattr(simulate_module, "_DRAW_BUDGET", 1)
        draws.clear()
        single = _run_paths(rate, cfg, idx, n_traced, trace_stride=3)
        assert {k for _, k in draws} == {1}
        assert_same_columns(blocked, single)
        assert len(blocked.traces) == len(single.traces) == min(n_traced, n_paths)
        for a, b in zip(blocked.traces, single.traces):
            assert np.array_equal(a, b)


class TestOnePass:
    """collect_costs traces the plot paths inside the cost pass; each trace
    must be the path's own, bit for bit, and tracing must move nothing."""

    @pytest.mark.parametrize(
        "dim,y0,max_steps,n_paths,stride,chunk",
        [
            (2, [0.0, 0.0], 100_000, 40, 3, 65536),
            (5, [0.3, 0.1, -0.2, 0.0, 0.1], 100_000, 30, 7, 65536),
            (2, [0.0, 0.0], 37, 12, 5, 5),  # horizon cuts paths; traces span chunks
            (2, [1.0, 0.0], 10, 4, 1, 65536),  # every path starts on the boundary
            (2, [0.0, 0.0], 37, 7, 5, 5),  # more traced than paths, over two chunks
        ],
    )
    def test_traces_match_single_paths(
        self, monkeypatch, dim, y0, max_steps, n_paths, stride, chunk
    ):
        monkeypatch.setattr(simulate_module, "_CHUNK", chunk)
        rate = build_rate(build_kernel(ModelParams(dim, 1.0, 1.0), r_max=1.0))
        cfg = SimConfig(dt=1e-3, max_steps=max_steps, n_paths=n_paths, seed=8, y0=y0)
        n_traced = 12  # a prefix of the first two cases, all paths of the others
        batches = []

        def recorded(*args):
            batches.append(_run_paths(*args))
            return batches[-1]

        with monkeypatch.context() as patch:
            patch.setattr(simulate_module, "_run_paths", recorded)
            joined = collect_costs(rate, cfg, n_traced, stride)
        costs, exited, traces = joined.cost, joined.exited, joined.traces
        assert len(traces) == min(n_traced, n_paths)
        # a trace ends on its path's result row from the same batch
        for b in batches:
            for i, trace in enumerate(b.traces):
                assert np.array_equal(trace[-1], [b.tau[i], *b.y_final[i], b.cost[i]])
        assert sum(len(b.traces) for b in batches) == len(traces)
        # one chunk is returned as it is; several are joined column by
        # column into what one batch over every index gives
        assert (joined is batches[0]) == (len(batches) == 1)
        whole = _run_paths(rate, cfg, np.arange(n_paths, dtype=np.uint64), n_traced, stride)
        assert_same_columns(joined, whole)
        assert len(whole.traces) == len(traces)
        for a, b in zip(whole.traces, traces):
            assert np.array_equal(a, b)
        exits_on_stride = False
        for pid in range(len(traces)):
            single = euler_path(rate, cfg, pid, record_trace=True, trace_stride=stride)
            assert traces[pid].dtype == np.float64
            assert np.array_equal(traces[pid], single.traces[0])
            assert single.cost[0] == costs[pid] and single.exited[0] == exited[pid]
            # times strictly increase: every row but the last on a stride
            # step, the last at the path's tau
            t = traces[pid][:, 0]
            assert np.all(np.diff(t) > 0)
            assert np.array_equal(t[:-1], np.arange(t.size - 1) * stride * cfg.dt)
            assert t[-1] == single.tau[0]
            exits_on_stride |= single.exited[0] and round(single.tau[0] / cfg.dt) % stride == 0
        # wherever a traced path exits, one exits on a stride step, so a
        # stride row kept at its exit would show as a repeated time
        assert exits_on_stride == exited[: len(traces)].any()
        plain = collect_costs(rate, cfg)
        assert_same_columns(joined, plain)
        assert plain.traces == []
        if max_steps == 37:
            assert not exited.all()
        if y0[0] == 1.0:
            assert exited.all() and not costs.any()
            assert all(trace.shape == (1, dim + 2) for trace in traces)

    def test_range_checked_before_any_step(self, std_rate, monkeypatch):
        def no_draws(*args, **kwargs):
            raise AssertionError("noise drawn before the range check")

        monkeypatch.setattr(simulate_module, "normals", no_draws)
        short = dataclasses.replace(std_rate, r_max=0.5)
        with pytest.raises(ValueError, match=r"\[0, 0\.5\].*stopping radius 1\.0"):
            _run_paths(short, cfg_origin(n_paths=3), np.arange(3, dtype=np.uint64))

    def test_unchecked_core_equals_rate_coeff(self):
        # sigma = 0.5, R = 1: x = (r/sigma)^4/4 reaches 4, so calls take the
        # Horner branch only, the log-space branch only, or both
        rate = build_rate(build_kernel(ModelParams(3, 0.5, 1.0), r_max=1.0))
        r = np.linspace(0.0, 1.0, 257)
        near = (r / 0.5) ** 4 / 4.0 <= 1.0
        for points in (r, r[near], r[~near], r[:1], r[-1:]):
            assert np.array_equal(_rho_unchecked(rate, points), rate_coeff(rate, points))

    def test_loop_rho_equals_rate_coeff(self, monkeypatch):
        cases = [
            # x(R) = 4: calls take the Horner branch only, or both
            (3, 0.5, 1.0, 0.0, {False, True}),
            # x(R) = 1/4: the Horner branch only
            (2, 1.0, 1.0, 0.0, {False}),
            # x(R) = 1.0000000000000002, one ulp past HORNER_X_MAX, but every
            # radius below R has x <= 0.9999999999999997; the paths start one
            # ulp inside R, so the first step evaluates rho right at the edge
            (2, 1.0, 2**0.5, np.nextafter(2**0.5, 0.0), {False}),
        ]
        for n, sigma, radius, start, expected in cases:
            rate = build_rate(build_kernel(ModelParams(n, sigma, radius), r_max=radius))
            branches = set()

            def compared(rate_, r):
                rho = _rho_unchecked(rate_, r)
                assert np.array_equal(rho, rate_coeff(rate_, r))
                branches.add(bool(np.any(np.power(r / sigma, 4.0) / 4.0 > HORNER_X_MAX)))
                return rho

            monkeypatch.setattr(simulate_module, "_rho_unchecked", compared)
            y0 = np.zeros(n)
            y0[0] = start
            cfg = SimConfig(dt=1e-3, max_steps=100_000, n_paths=50, seed=4, y0=y0)
            collect_costs(rate, cfg)
            assert branches == expected


class TestMonteCarlo:
    def test_requires_two_paths(self, std_rate):
        with pytest.raises(ValueError):
            monte_carlo_cost(std_rate, cfg_origin(n_paths=1))

    def test_no_exits_is_an_error(self, std_rate):
        cfg = SimConfig(dt=1e-6, max_steps=3, n_paths=4, seed=2, y0=np.zeros(2))
        with pytest.raises(RuntimeError, match="no exits within horizon"):
            monte_carlo_cost(std_rate, cfg)

    def test_boundary_start_gives_zero_mean(self, std_rate):
        cfg = SimConfig(
            dt=1e-3, max_steps=10, n_paths=16, seed=3, y0=np.asarray([1.0, 0.0])
        )
        mean, stderr, n_exited = monte_carlo_cost(std_rate, cfg)
        assert mean == 0.0
        assert stderr == 0.0
        assert n_exited == 16

    def test_deterministic(self, std_rate):
        cfg = cfg_origin(n_paths=64)
        assert monte_carlo_cost(std_rate, cfg) == monte_carlo_cost(std_rate, cfg)

    def test_stderr_shrinks_with_path_doubling(self, std_rate):
        # same seed stream: paths 0..n-1 are shared, stderr ~ 1/sqrt(2)
        _, se_small, _ = monte_carlo_cost(std_rate, cfg_origin(n_paths=400, seed=5))
        _, se_large, _ = monte_carlo_cost(std_rate, cfg_origin(n_paths=800, seed=5))
        assert 0.8 / math.sqrt(2) <= se_large / se_small <= 1.2 / math.sqrt(2)

    def test_mean_cost_increases_with_boundary(self):
        results = {}
        for radius in (1.0, 2.0):
            params = ModelParams(2, 1.0, radius)
            rate = build_rate(build_kernel(params, r_max=radius))
            cfg = SimConfig(
                dt=1e-3, max_steps=200_000, n_paths=200, seed=3, y0=np.zeros(2)
            )
            results[radius], *_ = monte_carlo_cost(rate, cfg)
        assert results[2.0] > results[1.0]

    def test_mean_tracks_closed_form_at_coarse_dt(self, std_kernel, std_rate):
        # loose sanity here; the sharp identity is an acceptance criterion
        mean, stderr, n_exited = monte_carlo_cost(std_rate, cfg_origin(n_paths=500))
        target = expected_optimal_cost(std_kernel, 0.0)
        assert n_exited == 500
        assert abs(mean - target) < 0.15 * target

    def test_outward_drift_speeds_exit(self):
        # compare against an uncontrolled run driven by the same noise
        params = ModelParams(2, 0.5, 1.0)
        rate = build_rate(build_kernel(params, r_max=1.0))
        cfg = SimConfig(
            dt=1e-3, max_steps=20_000, n_paths=400, seed=11, y0=np.asarray([0.95, 0.0])
        )
        tau_controlled = _run_paths(rate, cfg, np.arange(400, dtype=np.uint64)).tau

        tau_null = np.full(400, cfg.max_steps * cfg.dt)
        y = np.tile(cfg.y0, (400, 1))
        alive = np.arange(400)
        noise = params.sigma * math.sqrt(cfg.dt)
        for step in range(cfg.max_steps):
            r = np.linalg.norm(y, axis=1)
            hit = r >= params.radius
            if hit.any():
                tau_null[alive[hit]] = step * cfg.dt
                alive, y = alive[~hit], y[~hit]
                if alive.size == 0:
                    break
            y = y + noise * normals(cfg.seed, alive, step, 2, 1)[:, 0]
        assert tau_controlled.mean() < tau_null.mean()
