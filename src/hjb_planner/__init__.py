"""Closed-form optimal production rates for a multi-good stochastic
production-planning model, with independent numerical oracles, a
first-exit Monte Carlo simulator, and an experiment harness."""

from .oracles import (
    BoundReport,
    BoundViolation,
    RadialGridFn,
    check_bounds,
    max_rel_diff,
    ode_solve,
    picard_solve,
    picard_step_bound,
    verify_exact_4d,
)
from .params import ModelParams
from .rate import (
    build_rate,
    envelope,
    feedback,
    rate_coeff,
    write_rate_table,
)
from .series import (
    SeriesKernel,
    build_kernel,
    eval_log_u,
    eval_log_u_prime,
    eval_u,
    eval_u_prime,
    expected_optimal_cost,
)
from .simulate import PathBatch, SimConfig, euler_path, monte_carlo_cost
from .sweep import SweepSpec, SweepTable, run_simulate, run_verify, sweep_rate

__version__ = "0.1.0"

__all__ = [
    "BoundReport",
    "BoundViolation",
    "ModelParams",
    "PathBatch",
    "RadialGridFn",
    "SeriesKernel",
    "SimConfig",
    "SweepSpec",
    "SweepTable",
    "build_kernel",
    "build_rate",
    "check_bounds",
    "envelope",
    "euler_path",
    "eval_log_u",
    "eval_log_u_prime",
    "eval_u",
    "eval_u_prime",
    "expected_optimal_cost",
    "feedback",
    "max_rel_diff",
    "monte_carlo_cost",
    "ode_solve",
    "picard_solve",
    "picard_step_bound",
    "rate_coeff",
    "run_simulate",
    "run_verify",
    "sweep_rate",
    "verify_exact_4d",
    "write_rate_table",
    "__version__",
]
