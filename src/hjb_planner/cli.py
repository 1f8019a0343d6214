"""Command-line front end: rate, sweep, simulate, verify, cost.

A thin shell over the library.  OPTIONS declares each option once: flags
beat config-file entries, which beat defaults, and --help lists every
default.  A refused value ends the run in one line, `hjb-planner <verb>:
<reason>`; the effective seed always lands in the output files.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .fileio import fmt
from .params import ModelParams
from .rate import build_rate, radius_grid, rate_table_chunks, write_rate_table
from .series import build_kernel, expected_optimal_cost
from .simulate import SimConfig
from .sweep import VERIFY_GRID_POINTS, VERIFY_N, VERIFY_RADIUS, VERIFY_SIGMA
from .sweep import SweepSpec, run_simulate, run_verify, simulation_params, sweep_rate


def _parse_grid(text: str) -> np.ndarray:
    """min:max:steps as np.linspace radii, both ends checked by radius_grid
    first: every radius between them is then finite and >= 0."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError("expected min:max:steps")
    steps = int(parts[2])
    if steps < 1:
        raise ValueError("a grid needs at least one step")
    lo, hi = radius_grid([float(parts[0]), float(parts[1])])
    return np.linspace(lo, hi, steps)


def _parse_list(kind):
    """The parse of a comma list of kind values, such as 2,10,100 for int;
    a list with no values is refused."""

    def parse(text: str) -> tuple:
        values = tuple(kind(tok) for tok in text.split(",") if tok.strip())
        if not values:
            raise ValueError("want at least one value")
        return values

    return parse


_BOOLEANS = {
    "true": True, "1": True, "yes": True, "on": True,
    "false": False, "0": False, "no": False, "off": False,
}


def _parse_bool(text: str) -> bool:
    """A config-file word such as true/false or on/off."""
    try:
        return _BOOLEANS[text.strip().lower()]
    except KeyError:
        raise ValueError("want true/false, 1/0, yes/no, on/off") from None


# verb -> (help, rows); a row is (flag, parse, default, help).  Text from a
# flag, a config line or a default goes through parse; a typed default is
# used as it is.  A row parsed by _parse_bool is a switch: a bare flag, or
# a true/false word in the config file.
OPTIONS = {
    "rate": ("evaluate the production-rate coefficient", (
        ("--n", int, 2, "number of good types"),
        ("--sigma", float, 1.0, "diffusion coefficient"),
        ("--r", lambda text: radius_grid(float(text)), None, "single radius to evaluate"),
        ("--r-grid", _parse_grid, None, "radius grid min:max:steps, both ends finite and >= 0"),
        ("--out", Path, None, "write rate_table.csv here instead of stdout"),
    )),
    "sweep": ("rate table over N x sigma x r", (
        ("--n", _parse_list(int), (2, 10, 100), "comma list of goods counts"),
        ("--sigma", _parse_list(float), (0.5, 1.0, 2.0), "comma list of diffusions"),
        ("--r-grid", _parse_grid, "0:4:81", "radius grid min:max:steps, both ends finite and >= 0"),
        ("--out", Path, "out", "output directory"),
    )),
    "simulate": ("first-exit Monte Carlo run", (
        ("--n", int, 2, "number of good types"),
        ("--sigma", float, 1.0, "diffusion coefficient"),
        ("--radius", float, 1.0, "stopping radius"),
        ("--dt", float, None, "time step (default 1e-4 * min(1, R^2/sigma^2))"),
        ("--paths", int, 1000, "number of Monte Carlo paths"),
        ("--max-steps", int, 1_000_000, "horizon cap in steps"),
        ("--seed", int, 42, "64-bit RNG seed"),
        ("--y0", _parse_list(float), None, "comma list start state (default origin)"),
        ("--trace", _parse_bool, False, "dump per-path trace CSVs"),
        ("--out", Path, "out", "output directory"),
    )),
    "verify": ("run the oracle verification gate", (
        ("--n", _parse_list(int), VERIFY_N, "comma list of goods counts"),
        ("--sigma", _parse_list(float), VERIFY_SIGMA, "comma list of diffusions"),
        ("--radius", _parse_list(float), VERIFY_RADIUS, "comma list of stopping radii"),
        ("--grid-points", int, VERIFY_GRID_POINTS, "points per comparison grid"),
        ("--out", Path, "out", "output directory"),
    )),
    "cost": ("expected optimal cost from a start radius", (
        ("--n", int, 2, "number of good types"),
        ("--sigma", float, 1.0, "diffusion coefficient"),
        ("--radius", float, 1.0, "stopping radius"),
        ("--r0", lambda text: radius_grid(_parse_list(float)(text)), "0",
         "comma list of start radii, each finite and >= 0"),
    )),
}


def _read_config(path: str | None, keys) -> dict[str, str]:
    """key=value lines of the config file at path; a file that cannot be
    read, a line without "=" and a key outside keys are refused."""
    if path is None:
        return {}
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        raise ValueError(f"bad --config {path!r}: {reason}") from None
    values: dict[str, str] = {}
    for line in text.splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            key, sep, value = line.partition("=")
            if not sep:
                raise ValueError(f"bad config line (want key=value): {line!r}")
            name = key.strip().replace("-", "_")
            if name not in keys:
                raise ValueError(f"config key {key.strip()!r} in {path!r} names no option")
            values[name] = value.strip()
    return values


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hjb-planner",
        description="Optimal production-rate evaluation, verification, and simulation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for verb, (verb_help, rows) in OPTIONS.items():
        p = sub.add_parser(verb, help=verb_help)
        p.add_argument("--config", help="key=value config file (flags take precedence)")
        for flag, parse, default, help_text in rows:
            # default None here, so _run can tell an absent flag
            kind = {"action": "store_true"} if parse is _parse_bool else {}
            if default is not None:
                help_text = f"{help_text} (default {default})"
            p.add_argument(flag, default=None, help=help_text, **kind)
    return parser


def main(argv=None) -> int:
    """Run one verb; a refused value or a failed write exits with one line,
    not a traceback."""
    args = _build_parser().parse_args(argv)
    try:
        return _run(args)
    except (ValueError, OSError) as exc:
        raise SystemExit(f"hjb-planner {args.command}: {exc}") from None


def _run(args) -> int:
    # each option from its flag, else the config file, else its default
    rows = OPTIONS[args.command][1]
    keys = [flag[2:].replace("-", "_") for flag, *_ in rows]
    config = _read_config(args.config, keys)
    for key, (flag, parse, default, _) in zip(keys, rows):
        value = getattr(args, key)
        if value is None:
            value = config.get(key, default)
        if isinstance(value, str):
            try:
                value = parse(value)
            except ValueError as exc:
                raise ValueError(f"bad {flag} {value!r}: {exc}") from None
        setattr(args, key, value)

    if args.command == "rate":
        grid = args.r_grid if args.r is None else args.r
        if grid is None:
            raise ValueError("provide --r or --r-grid")
        r_max = max(float(np.max(grid)), np.finfo(float).tiny)
        params = ModelParams(n_goods=args.n, sigma=args.sigma, radius=r_max)
        rate = build_rate(build_kernel(params, r_max=r_max))
        if args.out is not None:
            write_rate_table(rate, grid, args.out / "rate_table.csv")
        else:
            sys.stdout.writelines(rate_table_chunks(rate, grid))
        return 0

    if args.command == "sweep":
        spec = SweepSpec(args.n, args.sigma, args.r_grid, args.out)
        sweep_rate(spec)
        print(f"wrote {spec.output_dir / 'rate_sweep.csv'}")
        return 0

    if args.command == "simulate":
        n, sigma, radius, dt = args.n, args.sigma, args.radius, args.dt
        if dt is None:  # 1e-4 * min(1, R^2/sigma^2), dividing only where R^2 < sigma^2
            dt = 1e-4 * (radius**2 / sigma**2 if radius**2 < sigma**2 else 1.0)
            if dt == 0.0:  # refuse a bad or too small R or sigma as such first
                simulation_params(n, sigma, radius)
                raise ValueError(
                    f"default dt underflows at R={radius!r}, sigma={sigma!r}: give --dt"
                )
        y0 = np.asarray(args.y0) if args.y0 else np.zeros(n)
        cfg = SimConfig(dt=dt, max_steps=args.max_steps, n_paths=args.paths, seed=args.seed, y0=y0)
        result = run_simulate(n, sigma, radius, cfg, args.out, trace=args.trace)
        print(
            f"mean={fmt(result['mean'])} stderr={fmt(result['stderr'])} "
            f"n_exited={result['n_exited']} -> {result['summary_csv']}"
        )
        return 0

    if args.command == "verify":
        return run_verify(args.out, args.n, args.sigma, args.radius, args.grid_points)

    # cost
    params = ModelParams(n_goods=args.n, sigma=args.sigma, radius=args.radius)
    kernel = build_kernel(params, r_max=args.radius)
    costs = expected_optimal_cost(kernel, args.r0)
    print("r0,cost")
    for r0, cost in zip(args.r0, costs):
        print(f"{fmt(r0)},{fmt(cost)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
