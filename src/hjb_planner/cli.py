"""Command-line front end: rate, sweep, simulate, verify, cost.

A thin shell over the library: flags beat config-file entries, which beat
defaults; the effective seed always lands in the output files.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .fileio import fmt
from .params import ModelParams
from .rate import build_rate, rate_table_text, write_rate_table
from .series import build_kernel, expected_optimal_cost
from .simulate import SimConfig
from .sweep import SweepSpec, run_simulate, run_verify, sweep_rate


def _parse_grid(text: str) -> np.ndarray:
    try:
        lo, hi, steps = text.split(":")
        if int(steps) < 1:
            raise ValueError("a grid needs at least one step")
        grid = np.linspace(float(lo), float(hi), int(steps))
    except ValueError as exc:
        raise SystemExit(f"bad --r-grid {text!r}, expected min:max:steps") from exc
    return grid


def _parse_floats(text: str) -> list[float]:
    return [float(tok) for tok in text.split(",") if tok.strip()]


def _parse_ints(text: str) -> list[int]:
    return [int(tok) for tok in text.split(",") if tok.strip()]


_BOOLEANS = {
    "true": True, "1": True, "yes": True, "on": True,
    "false": False, "0": False, "no": False, "off": False,
}


def _parse_bool(key: str, value) -> bool:
    """A flag's True, or a config-file word such as true/false or on/off."""
    if isinstance(value, bool):
        return value
    try:
        return _BOOLEANS[value.strip().lower()]
    except KeyError:
        raise SystemExit(
            f"bad boolean for {key}: {value!r} (want true/false, 1/0, yes/no, on/off)"
        ) from None


def _read_config(path: str | None) -> dict[str, str]:
    if path is None:
        return {}
    values: dict[str, str] = {}
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise SystemExit(f"bad config line (want key=value): {line!r}")
        key, _, value = line.partition("=")
        values[key.strip().replace("-", "_")] = value.strip()
    return values


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hjb-planner",
        description="Optimal production-rate evaluation, verification, and simulation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="key=value config file (flags take precedence)")
        p.add_argument("--out", help="output directory (default ./out)")

    p_rate = sub.add_parser("rate", help="evaluate the production-rate coefficient")
    common(p_rate)
    p_rate.add_argument("--n", help="number of good types")
    p_rate.add_argument("--sigma", help="diffusion coefficient")
    p_rate.add_argument("--r", help="single radius to evaluate")
    p_rate.add_argument("--r-grid", help="radius grid min:max:steps")

    p_sweep = sub.add_parser("sweep", help="rate table over N x sigma x r")
    common(p_sweep)
    p_sweep.add_argument("--n", help="comma list of goods counts")
    p_sweep.add_argument("--sigma", help="comma list of diffusions")
    p_sweep.add_argument("--r-grid", help="radius grid min:max:steps")

    p_sim = sub.add_parser("simulate", help="first-exit Monte Carlo run")
    common(p_sim)
    p_sim.add_argument("--n", help="number of good types")
    p_sim.add_argument("--sigma", help="diffusion coefficient")
    p_sim.add_argument("--radius", help="stopping radius")
    p_sim.add_argument("--dt", help="time step (default 1e-4 * min(1, R^2/sigma^2))")
    p_sim.add_argument("--paths", help="number of Monte Carlo paths")
    p_sim.add_argument("--max-steps", help="horizon cap in steps")
    p_sim.add_argument("--seed", help="64-bit RNG seed")
    p_sim.add_argument("--y0", help="comma list start state (default origin)")
    p_sim.add_argument("--trace", action="store_true", default=None,
                       help="dump per-path trace CSVs")

    p_verify = sub.add_parser("verify", help="run the oracle verification gate")
    common(p_verify)
    p_verify.add_argument("--n", help="comma list of goods counts")
    p_verify.add_argument("--sigma", help="comma list of diffusions")
    p_verify.add_argument("--radius", help="comma list of stopping radii")
    p_verify.add_argument("--grid-points", help="points per comparison grid")

    p_cost = sub.add_parser("cost", help="expected optimal cost from a start radius")
    common(p_cost)
    p_cost.add_argument("--n", help="number of good types")
    p_cost.add_argument("--sigma", help="diffusion coefficient")
    p_cost.add_argument("--radius", help="stopping radius")
    p_cost.add_argument("--r0", help="comma list of start radii (default 0)")

    return parser


def _effective(args, config: dict[str, str], key: str, default=None):
    value = getattr(args, key, None)
    if value is not None:
        return value
    return config.get(key, default)


def main(argv=None) -> int:
    """Run one verb; a refused value exits with one line, not a traceback."""
    args = _build_parser().parse_args(argv)
    try:
        return _run(args)
    except ValueError as exc:
        raise SystemExit(f"hjb-planner {args.command}: {exc}") from None


def _run(args) -> int:
    config = _read_config(args.config)

    def get(key, default=None):
        return _effective(args, config, key, default)

    out_dir = Path(get("out", "out"))

    if args.command == "rate":
        n = int(get("n", 2))
        sigma = float(get("sigma", 1.0))
        if get("r") is not None:
            grid = np.asarray([float(get("r"))])
        elif get("r_grid") is not None:
            grid = _parse_grid(get("r_grid"))
        else:
            raise SystemExit("rate: provide --r or --r-grid")
        r_max = max(float(np.max(grid)), np.finfo(float).tiny)
        params = ModelParams(n_goods=n, sigma=sigma, radius=r_max)
        rate = build_rate(build_kernel(params, r_max=r_max))
        if get("out") is not None:
            write_rate_table(rate, grid, out_dir / "rate_table.csv")
        else:
            sys.stdout.write(rate_table_text(rate, grid))
        return 0

    if args.command == "sweep":
        spec = SweepSpec(
            n_list=tuple(_parse_ints(get("n", "2,10,100"))),
            sigma_list=tuple(_parse_floats(get("sigma", "0.5,1,2"))),
            r_grid=_parse_grid(get("r_grid", "0:4:81")),
            output_dir=out_dir,
        )
        sweep_rate(spec)
        print(f"wrote {spec.output_dir / 'rate_sweep.csv'}")
        return 0

    if args.command == "simulate":
        n = int(get("n", 2))
        sigma = float(get("sigma", 1.0))
        radius = float(get("radius", 1.0))
        dt = get("dt")
        if dt is None:  # 1e-4 * min(1, R^2/sigma^2), dividing only where R^2 < sigma^2
            dt = 1e-4 * (radius**2 / sigma**2 if radius**2 < sigma**2 else 1.0)
        y0_text = get("y0")
        y0 = np.asarray(_parse_floats(y0_text)) if y0_text else np.zeros(n)
        cfg = SimConfig(
            dt=float(dt),
            max_steps=int(get("max_steps", 1_000_000)),
            n_paths=int(get("paths", 1000)),
            seed=int(get("seed", 42)),
            y0=y0,
        )
        trace = _parse_bool("trace", get("trace", False))
        result = run_simulate(n, sigma, radius, cfg, out_dir, trace=trace)
        print(
            f"mean={fmt(result['mean'])} stderr={fmt(result['stderr'])} "
            f"n_exited={result['n_exited']} -> {result['summary_csv']}"
        )
        return 0

    if args.command == "verify":
        kwargs = {}
        if get("n") is not None:
            kwargs["n_list"] = tuple(_parse_ints(get("n")))
        if get("sigma") is not None:
            kwargs["sigma_list"] = tuple(_parse_floats(get("sigma")))
        if get("radius") is not None:
            kwargs["radius_list"] = tuple(_parse_floats(get("radius")))
        if get("grid_points") is not None:
            kwargs["grid_points"] = int(get("grid_points"))
        return run_verify(out_dir, **kwargs)

    if args.command == "cost":
        n = int(get("n", 2))
        sigma = float(get("sigma", 1.0))
        radius = float(get("radius", 1.0))
        starts = _parse_floats(get("r0", "0"))
        params = ModelParams(n_goods=n, sigma=sigma, radius=radius)
        kernel = build_kernel(params, r_max=radius)
        costs = [float(expected_optimal_cost(kernel, r0)) for r0 in starts]
        print("r0,cost")
        for r0, cost in zip(starts, costs):
            print(f"{fmt(r0)},{fmt(cost)}")
        return 0

    raise SystemExit(f"unknown command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
