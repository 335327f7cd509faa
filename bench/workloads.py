"""The benchmark's workloads: one validated-config template each.

The workload seed becomes the config's stream seed; everything else is fixed,
so the program receives only the inputs the seed generates.
"""
from __future__ import annotations

import copy

# The README quick-start config apart from the seed and the horizon: 1536
# rounds (the switch at t=1024 is kept; the second segment is 512 rounds, not
# 1024). At the README's T=2048 the median round is t=1024, where the number
# of live intervals steps up, so round_ms_p50 read the fastest of the slower
# rounds and swung by a third between runs. At T=1536 it is the middle of the
# rounds t=512..1023, which all run with the same live intervals.
SWITCH_D1 = {
    "horizon": 1536,
    "dimension": 1,
    "algorithm": "uma2-surrogate",
    "gradient_bound": 1.0,
    "seed": 7,
    "domain": {"kind": "box", "lower": [-1.0], "upper": [1.0]},
    "segments": [
        {"length": 1024, "family": "absolute", "target": [0.8], "scale": 0.1},
        {"length": 512, "family": "absolute", "target": [-0.8], "scale": 0.1},
    ],
    "evaluation": {"tau": [64, 256, 1024], "gc_intervals": True},
}

# Composite learner at d=5: l1-regularized least squares on the unit ball,
# with a target switch halfway; scored on sliding tau windows, the full
# horizon and every GC interval (the tau windows lengthen the evaluation phase
# so windows_per_s is not measured over a fraction of a second).
COMPOSITE_D5 = {
    "horizon": 512,
    "dimension": 5,
    "algorithm": "uma-comp",
    "gradient_bound": 1.0,
    "seed": 0,
    "domain": {"kind": "ball", "radius": 1.0},
    "regularizer": {"kind": "l1", "weight": 0.05},
    "segments": [
        {
            "length": 256,
            "family": "squared-prediction",
            "target": [0.6, -0.4, 0.3, 0.0, 0.2],
            "scale": 0.4,
            "noise": 0.05,
        },
        {
            "length": 256,
            "family": "squared-prediction",
            "target": [-0.5, 0.3, 0.0, 0.4, -0.3],
            "scale": 0.4,
            "noise": 0.05,
        },
    ],
    "evaluation": {"tau": [32, 128, 512], "gc_intervals": True},
}

# Multi-gradient grid learner at d=2: a log-like segment then an absolute one,
# scored on anchored tau windows, all of which take the generic comparator path.
# T=640 is not a power of two so the median round (t ~ 320) and the 95th
# percentile (t ~ 608) fall inside stretches with a fixed number of live
# intervals; at T=256 rounds took only ~1.3 s per experiment and the median
# round sat where the live-interval count steps up.
GENERIC_D2 = {
    "horizon": 640,
    "dimension": 2,
    "algorithm": "uma2-grid",
    "gradient_bound": 1.0,
    "seed": 0,
    "domain": {"kind": "ball", "radius": 1.0},
    "segments": [
        {"length": 256, "family": "log-like", "target": [0.7, -0.5], "noise": 0.2},
        {"length": 384, "family": "absolute", "target": [-0.6, 0.4], "noise": 0.1},
    ],
    "evaluation": {"tau": [80, 320], "mode": "anchored"},
}

WORKLOADS = {
    "switch-d1": SWITCH_D1,
    "composite-d5": COMPOSITE_D5,
    "generic-d2": GENERIC_D2,
}


def raw_config(name: str, seed: int) -> dict:
    """The workload's raw (unvalidated) config with its stream seed set."""
    if name not in WORKLOADS:
        raise KeyError(f"unknown workload {name!r}; choose from {sorted(WORKLOADS)}")
    if seed < 0:
        raise ValueError("the workload seed must be non-negative")
    raw = copy.deepcopy(WORKLOADS[name])
    raw["seed"] = seed
    return raw
