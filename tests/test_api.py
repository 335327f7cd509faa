"""The package's top-level surface: exactly the documented library API."""
import types

import adaregret as ar

PUBLIC_API = [
    "ALGORITHMS",
    "CONFIG_SCHEMA",
    "ConvergenceError",
    "Domain",
    "InputError",
    "InvariantViolation",
    "LearnerConfig",
    "LossSpec",
    "Regularizer",
    "SegmentSpec",
    "StreamConfig",
    "UsageError",
    "adaptive_regret_report",
    "bound_fn_for",
    "build_learner",
    "cumulative_losses",
    "gc_interval_regret",
    "generate_stream",
    "interval_regret",
    "offline_comparator",
    "run",
    "run_experiment",
    "theorem_bound_rhs",
    "validate_config",
]


def test_public_surface_is_the_documented_api():
    # [TRIVIAL] the 24 names the README lists, and no other top-level name
    assert sorted(ar.__all__) == PUBLIC_API
    exposed = {
        name
        for name, value in vars(ar).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert exposed == set(ar.__all__)
