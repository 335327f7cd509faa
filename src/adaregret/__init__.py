"""Adaptive-regret online convex optimization: interval-sleeping expert
ensembles with second-order meta-aggregation, composite-loss support, and a
benchmark harness with closed-form regret-bound calculators.

The top level holds the library API; every other name (experts, meta
updates, interval schedules, bound constants, checks) is imported from its
module: `adaregret.core`, `intervals`, `meta`, `experts`, `algorithms`,
`harness` or `cli`.
"""
from .core import (
    ConvergenceError,
    Domain,
    InputError,
    InvariantViolation,
    LossSpec,
    Regularizer,
    UsageError,
)
from .algorithms import ALGORITHMS, LearnerConfig, build_learner, run
from .harness import (
    SegmentSpec,
    StreamConfig,
    adaptive_regret_report,
    bound_fn_for,
    cumulative_losses,
    gc_interval_regret,
    generate_stream,
    interval_regret,
    offline_comparator,
    theorem_bound_rhs,
)
from .cli import CONFIG_SCHEMA, run_experiment, validate_config

__version__ = "0.1.0"

__all__ = [
    # types
    "Domain",
    "Regularizer",
    "LossSpec",
    "SegmentSpec",
    "StreamConfig",
    "LearnerConfig",
    # errors
    "InputError",
    "InvariantViolation",
    "ConvergenceError",
    "UsageError",
    # pipeline
    "generate_stream",
    "ALGORITHMS",
    "build_learner",
    "run",
    # scoring
    "offline_comparator",
    "cumulative_losses",
    "interval_regret",
    "adaptive_regret_report",
    "gc_interval_regret",
    "theorem_bound_rhs",
    "bound_fn_for",
    # command line
    "CONFIG_SCHEMA",
    "validate_config",
    "run_experiment",
]
