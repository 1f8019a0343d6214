import dataclasses
import math

import numpy as np
import pytest

from hjb_planner import ModelParams, build_kernel, build_rate, expected_optimal_cost, rate_coeff
from hjb_planner import simulate as simulate_module
from hjb_planner.rate import _rho_unchecked
from hjb_planner.rng import normals
from hjb_planner.simulate import (
    SimConfig,
    _run_paths,
    collect_costs,
    euler_path,
    monte_carlo_cost,
)


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
        ],
    )
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ValueError):
            SimConfig(**kwargs)

    def test_non_integer_count_named(self):
        with pytest.raises(ValueError, match=r"max_steps must be an integer, got 10\.5"):
            SimConfig(dt=1e-3, max_steps=10.5, n_paths=2, seed=1, y0=[0.0, 0.0])

    def test_dimension_mismatch_detected(self, std_rate):
        cfg = cfg_origin(dim=3)
        with pytest.raises(ValueError, match="components"):
            euler_path(std_rate, cfg, 0)


class TestEulerPath:
    def test_bitwise_deterministic(self, std_rate):
        cfg = cfg_origin()
        a = euler_path(std_rate, cfg, 11)
        b = euler_path(std_rate, cfg, 11)
        assert a.tau == b.tau
        assert a.cost == b.cost
        assert a.exited == b.exited
        assert np.array_equal(a.y_final, b.y_final)

    def test_first_step_from_origin_is_pure_noise(self, std_rate):
        # p(0) = 0, so y(dt) = sigma sqrt(dt) Z exactly
        cfg = SimConfig(dt=1e-3, max_steps=1, n_paths=1, seed=5, y0=np.zeros(2))
        result = euler_path(std_rate, cfg, 4)
        z = normals(5, [4], 0, 2, 1)[0, 0]
        expected = math.sqrt(1e-3) * z
        assert np.array_equal(result.y_final, expected)
        assert not result.exited
        assert result.tau == 1e-3  # one completed step
        assert result.cost == 0.0  # left-endpoint cost at the origin is 0

    def test_start_on_boundary_exits_immediately(self, std_rate):
        cfg = SimConfig(dt=1e-3, max_steps=10, n_paths=1, seed=1, y0=np.asarray([0.6, 0.8]))
        result = euler_path(std_rate, cfg, 0)
        assert result.exited
        assert result.tau == 0.0
        assert result.cost == 0.0
        assert np.linalg.norm(result.y_final) >= 1.0

    def test_exit_state_beyond_boundary(self, std_rate):
        result = euler_path(std_rate, cfg_origin(), 3)
        assert result.exited
        assert np.linalg.norm(result.y_final) >= std_rate.params.radius
        assert result.tau == pytest.approx(
            1e-3 * round(result.tau / 1e-3), abs=1e-12
        )  # dt times completed steps

    def test_trace_recording(self, std_rate):
        cfg = cfg_origin()
        result = euler_path(std_rate, cfg, 2, record_trace=True, trace_stride=5)
        trace = result.path_trace
        assert trace is not None and trace.shape[1] == 4  # t, y_1, y_2, cost
        assert trace[0, 0] == 0.0
        assert np.all(np.diff(trace[:, 0]) > 0.0)
        assert np.all(np.diff(trace[:, 3]) >= 0.0)  # cost accumulates
        # last sample is the exit state, at or beyond the boundary
        assert result.exited
        assert np.linalg.norm(trace[-1, 1:3]) >= 1.0
        assert trace[-1, 0] == result.tau

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


class TestBatchEngine:
    def test_independent_of_chunking(self, std_rate):
        cfg = cfg_origin(n_paths=10)
        whole = _run_paths(std_rate, cfg, np.arange(10, dtype=np.uint64))
        first = _run_paths(std_rate, cfg, np.arange(5, dtype=np.uint64))
        second = _run_paths(std_rate, cfg, np.arange(5, 10, dtype=np.uint64))
        for k in range(4):
            merged = np.concatenate([first[k], second[k]])
            assert np.array_equal(whole[k], merged)

    def test_single_path_matches_batch(self, std_rate):
        cfg = cfg_origin(n_paths=6)
        tau, cost, exited, y_final, _ = _run_paths(
            std_rate, cfg, np.arange(6, dtype=np.uint64)
        )
        for i in range(6):
            single = euler_path(std_rate, cfg, i)
            assert single.tau == tau[i]
            assert single.cost == cost[i]
            assert np.array_equal(single.y_final, y_final[i])

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
        for a, b in zip(blocked[:4], single[:4]):
            assert np.array_equal(a, b)
        assert len(blocked[4]) == len(single[4]) == min(n_traced, n_paths)
        for a, b in zip(blocked[4], single[4]):
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
        costs, exited, traces = collect_costs(rate, cfg, n_traced, stride)
        assert len(traces) == min(n_traced, n_paths)
        for pid in range(len(traces)):
            single = euler_path(rate, cfg, pid, record_trace=True, trace_stride=stride)
            assert traces[pid].dtype == np.float64
            assert np.array_equal(traces[pid], single.path_trace)
            assert single.cost == costs[pid] and single.exited == exited[pid]
        plain_costs, plain_exited, plain_traces = collect_costs(rate, cfg)
        assert np.array_equal(costs, plain_costs)
        assert np.array_equal(exited, plain_exited)
        assert plain_traces == []
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
        rate = build_rate(build_kernel(ModelParams(3, 0.5, 1.0), r_max=1.0))
        branches = set()

        def compared(rate_, r):
            rho = _rho_unchecked(rate_, r)
            assert np.array_equal(rho, rate_coeff(rate_, r))
            branches.add(bool(np.any((r / 0.5) ** 4 / 4.0 > 1.0)))
            return rho

        monkeypatch.setattr(simulate_module, "_rho_unchecked", compared)
        cfg = SimConfig(dt=1e-3, max_steps=100_000, n_paths=50, seed=4, y0=np.zeros(3))
        collect_costs(rate, cfg)
        assert branches == {False, True}


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
        tau_controlled, *_ = _run_paths(rate, cfg, np.arange(400, dtype=np.uint64))

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
