"""Span recording around the calls into each adaregret module.

Nothing under src/ changes: the tracer replaces module-level names and class
methods of the imported package with wrappers, and restores them afterwards.
A span is (name, start, end, parent); spans stay in memory until the run
ends. A layer's self time is its spans' durations minus the part their child
spans cover. Counters are attributed to the innermost open span, so e.g. the
Domain.project calls made inside experts.prox_solve count its iterations.

A name that a later version of the package no longer has is recorded in
`missing`; the metrics that depend on it are then reported as absent.
"""
from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path
from typing import Any, Callable

import numpy as np

_QUADRATIC_FAMILIES = {"linear", "quadratic", "squared-prediction"}


def comparator_path(events, p, q, domain, *rest, **kwargs) -> str:
    """The offline comparator's documented dispatch: any one-dimensional
    window is solved by a scalar search, a quadratic-structure window in
    closed form (or by a projected-gradient solve), anything else by the
    generic subgradient method."""
    if domain.dim == 1:
        return "harness.comparator_scalar"
    if {ev.family for ev in events[p - 1 : q]} <= _QUADRATIC_FAMILIES:
        return "harness.comparator_quadratic"
    return "harness.comparator_generic"


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self._stack: list[int] = []
        self.counts: dict[tuple[str, str], int] = defaultdict(int)
        self.sums: dict[str, float] = defaultdict(float)
        self.missing: set[str] = set()
        self._patches: list[tuple[Any, str, Any]] = []

    # -- wrappers -----------------------------------------------------------
    def _span(self, name: str | Callable[..., str], fn: Callable, on_return: Callable | None = None):
        names, starts, ends, parents, stack = self.names, self.starts, self.ends, self.parents, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(name if isinstance(name, str) else name(*args, **kwargs))
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if on_return is not None:
                on_return(args, result)
            return result

        return wrapper

    def _counter(self, key: str, fn: Callable):
        names, stack, counts = self.names, self._stack, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[(key, names[stack[-1]] if stack else "")] += 1
            return fn(*args, **kwargs)

        return wrapper

    def add(self, key: str, value: float) -> None:
        self.sums[key] += value

    # -- patching -----------------------------------------------------------
    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def function(self, modules: dict, home: str, attr: str, name, *, callers_only=False, on_return=None):
        """Wrap function `attr` of module `home` wherever a module binds it.
        callers_only leaves calls from inside `home` itself unwrapped."""
        fn = getattr(modules.get(home), attr, None)
        if fn is None:
            self.missing.add(f"{home}.{attr}")
            return
        wrapped = self._span(name, fn, on_return)
        for mod_name, mod in modules.items():
            if mod.__dict__.get(attr) is fn and not (callers_only and mod_name == home):
                self._set(mod, attr, wrapped)

    def method(self, cls: type, attr: str, name, *, on_return=None) -> None:
        self._set(cls, attr, self._span(name, cls.__dict__[attr], on_return))

    def find(self, modules: dict, home: str, cls_name: str, attr: str) -> type | None:
        """The class `home.cls_name` if it defines `attr`, else None (recorded missing)."""
        cls = getattr(modules.get(home), cls_name, None)
        if cls is None or attr not in cls.__dict__:
            self.missing.add(f"{home}.{cls_name}.{attr}")
            return None
        return cls

    def count_method(self, cls: type, attr: str, key: str) -> None:
        self._set(cls, attr, self._counter(key, cls.__dict__[attr]))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results ------------------------------------------------------------
    def self_times(self) -> dict[str, float]:
        start = np.asarray(self.starts)
        dur = np.asarray(self.ends) - start
        parents = np.asarray(self.parents, dtype=np.int64)
        child = np.zeros_like(dur)
        has_parent = parents >= 0
        np.add.at(child, parents[has_parent], dur[has_parent])
        own = dur - child
        out: dict[str, float] = defaultdict(float)
        for name, value in zip(self.names, own.tolist()):
            out[name] += value
        return out

    def span_counts(self) -> Counter:
        return Counter(self.names)

    def outer_counts(self, name: str) -> int:
        """Spans of `name` whose parent is not also a `name` span."""
        names, parents = self.names, self.parents
        return sum(1 for i, n in enumerate(names) if n == name and (parents[i] < 0 or names[parents[i]] != name))

    def counter(self, key: str, within: str | None = None) -> int:
        return sum(v for (k, span), v in self.counts.items() if k == key and (within is None or span == within))

    def write(self, path: Path, experiment: int) -> None:
        """Append this tracer's spans as CSV rows: experiment,id,name,start,end,parent."""
        new = not path.exists()
        t0 = min(self.starts) if self.starts else 0.0
        with path.open("a") as fh:
            if new:
                fh.write("experiment,id,name,start_s,end_s,parent\n")
            for i, (n, s, e, p) in enumerate(zip(self.names, self.starts, self.ends, self.parents)):
                fh.write(f"{experiment},{i},{n},{s - t0:.9f},{e - t0:.9f},{p}\n")


def package_modules() -> dict:
    """The imported adaregret submodules, keyed by short name."""
    return {
        name.split(".", 1)[1]: mod
        for name, mod in list(sys.modules.items())
        if name.startswith("adaregret.") and mod is not None
    }


def _classes_defining(module, attr: str) -> list[type]:
    if module is None:
        return []
    return [
        obj
        for obj in vars(module).values()
        if inspect.isclass(obj) and obj.__module__ == module.__name__ and attr in obj.__dict__
    ]


def install(tracer: Tracer) -> None:
    """Wrap the layer boundaries of the imported package."""
    m = package_modules()
    fn = tracer.function
    # cli: the experiment itself, its validation and its artifact writing
    fn(m, "cli", "validate_config", "cli.validate")
    fn(m, "cli", "run_experiment", "cli.run")
    fn(m, "cli", "_write_csv", "cli.artifacts")
    fn(m, "cli", "_sha256", "cli.artifacts")
    # harness: stream, reports, prefix sums, comparators, probes
    fn(m, "harness", "generate_stream", "harness.stream")
    fn(m, "harness", "adaptive_regret_report", "harness.report")
    fn(m, "harness", "gc_interval_regret", "harness.report")
    fn(m, "harness", "cumulative_losses", "harness.prefix")
    fn(m, "harness", "offline_comparator", comparator_path)
    fn(m, "harness", "comparator_dominance_check", "harness.probe")
    if cls := tracer.find(m, "harness", "_WindowEval", "value_sum"):
        tracer.count_method(cls, "value_sum", "harness.objective_eval")
    # algorithms: learner construction, rounds, finish
    fn(m, "algorithms", "build_learner", "algorithms.build")

    def on_round(args, record) -> None:
        tracer.add("algorithms.live_experts", record.live_experts)

    for attr, name in (("run_round", "algorithms.round"), ("finish", "algorithms.finish")):
        classes = _classes_defining(m.get("algorithms"), attr)
        for cls in classes:
            tracer.method(cls, attr, name, on_return=on_round if attr == "run_round" else None)
        if not classes:
            tracer.missing.add(f"algorithms.*.{attr}")
    if cls := tracer.find(m, "intervals", "LifetimeScheduler", "advance"):
        tracer.method(cls, "advance", "intervals.advance")
    # meta, as called from the learners (calls inside meta stay in their span)

    def on_update(args, _result) -> None:
        tracer.add("meta.slot_updates", len(args[0]))

    def on_fixed_point(_args, result) -> None:
        tracer.add("meta.fixed_point_steps", result[3])

    for attr in ("amlp_weights", "oamlp_weights"):
        fn(m, "meta", attr, "meta.weights", callers_only=True)
    for attr in ("amlp_update", "oamlp_update"):
        fn(m, "meta", attr, "meta.update", callers_only=True, on_return=on_update)
    fn(m, "meta", "optimism_fixed_point", "meta.fixed_point", callers_only=True, on_return=on_fixed_point)
    # experts: per-expert point/update and the two quadratic-model solvers
    for attr in ("point", "update"):
        classes = _classes_defining(m.get("experts"), attr)
        for cls in classes:
            tracer.method(cls, attr, f"experts.{attr}")
        if not classes:
            tracer.missing.add(f"experts.*.{attr}")
    fn(m, "experts", "prox_quadratic_argmin", "experts.prox_solve")
    fn(m, "experts", "a_norm_project", "experts.anorm_solve")
    # core: call counts only
    if cls := tracer.find(m, "core", "Domain", "project"):
        tracer.count_method(cls, "project", "core.project")
    if cls := tracer.find(m, "core", "LossSpec", "grad"):
        tracer.count_method(cls, "grad", "core.grad")


# Per-layer metric -> (unit, names it needs from the package). Times are self
# times per experiment; counts are per experiment.
LAYER_METRICS: dict[str, tuple[str, tuple[str, ...]]] = {
    "cli.validate_s": ("s", ("cli.validate_config",)),
    "cli.run_self_s": ("s", ("cli.run_experiment",)),
    "cli.artifacts_s": ("s", ("cli._write_csv", "cli._sha256")),
    "cli.artifact_bytes": ("bytes", ()),
    "harness.stream_s": ("s", ("harness.generate_stream",)),
    "algorithms.build_s": ("s", ("algorithms.build_learner",)),
    "algorithms.round_self_s": ("s", ("algorithms.*.run_round",)),
    "algorithms.finish_s": ("s", ("algorithms.*.finish",)),
    "algorithms.live_experts_mean": ("count", ("algorithms.*.run_round",)),
    "algorithms.grad_evals": ("count", ()),
    "intervals.advance_s": ("s", ("intervals.LifetimeScheduler.advance",)),
    "meta.weights_s": ("s", ("meta.amlp_weights", "meta.oamlp_weights")),
    "meta.update_s": ("s", ("meta.amlp_update", "meta.oamlp_update")),
    "meta.slot_updates": ("count", ("meta.amlp_update", "meta.oamlp_update")),
    "meta.fixed_point_s": ("s", ("meta.optimism_fixed_point",)),
    "meta.fixed_point_steps": ("count", ("meta.optimism_fixed_point",)),
    "experts.point_s": ("s", ("experts.*.point",)),
    "experts.update_s": ("s", ("experts.*.update",)),
    "experts.updates": ("count", ("experts.*.update",)),
    "experts.prox_solve_s": ("s", ("experts.prox_quadratic_argmin",)),
    "experts.prox_solve_calls": ("count", ("experts.prox_quadratic_argmin",)),
    "experts.prox_solve_iters": ("count", ("experts.prox_quadratic_argmin", "core.Domain.project")),
    "experts.anorm_solve_s": ("s", ("experts.a_norm_project",)),
    "core.project_calls": ("count", ("core.Domain.project",)),
    "core.grad_calls": ("count", ("core.LossSpec.grad",)),
    "harness.report_self_s": ("s", ("harness.adaptive_regret_report", "harness.gc_interval_regret")),
    "harness.prefix_s": ("s", ("harness.cumulative_losses",)),
    "harness.comparator_s": ("s", ("harness.offline_comparator",)),
    "harness.windows": ("count", ("harness.offline_comparator",)),
    "harness.comparator_scalar": ("count", ("harness.offline_comparator",)),
    "harness.comparator_scalar_s": ("s", ("harness.offline_comparator",)),
    "harness.comparator_quadratic": ("count", ("harness.offline_comparator",)),
    "harness.comparator_quadratic_s": ("s", ("harness.offline_comparator",)),
    "harness.comparator_generic": ("count", ("harness.offline_comparator",)),
    "harness.comparator_generic_s": ("s", ("harness.offline_comparator",)),
    "harness.objective_evals": ("count", ("harness._WindowEval.value_sum",)),
    "harness.probe_checks": ("count", ("harness.comparator_dominance_check",)),
    "harness.probe_s": ("s", ("harness.comparator_dominance_check",)),
    "harness.comparator_gap_max": ("abs", ()),
    "trace.run_s": ("s", ("cli.run_experiment",)),
    "trace.attributed_pct": ("%", ("cli.run_experiment",)),
    "trace.overhead_pct": ("%", ("cli.run_experiment",)),
}

PATHS = ("scalar", "quadratic", "generic")


def metric_entries(values: dict[str, float], missing: set[str]) -> dict[str, dict]:
    """{"value", "unit"} per layer metric; a metric that needs a name the
    package no longer has gets value None and the reason under "absent"."""
    out = {}
    for name, (unit, needs) in LAYER_METRICS.items():
        absent = sorted(set(needs) & missing)
        if absent:
            out[name] = {"value": None, "unit": unit, "absent": f"not in the package: {', '.join(absent)}"}
        else:
            out[name] = {"value": values[name], "unit": unit}
    return out


def layer_values(tracer: Tracer) -> dict[str, float]:
    """Metric values of one traced experiment (before per-experiment averaging
    and the cross-run figures the worker adds)."""
    own = tracer.self_times()
    spans = tracer.span_counts()
    out = {
        "cli.validate_s": own["cli.validate"],
        "cli.run_self_s": own["cli.run"],
        "cli.artifacts_s": own["cli.artifacts"],
        "harness.stream_s": own["harness.stream"],
        "algorithms.build_s": own["algorithms.build"],
        "algorithms.round_self_s": own["algorithms.round"],
        "algorithms.finish_s": own["algorithms.finish"],
        "algorithms.live_experts_mean": tracer.sums["algorithms.live_experts"] / max(1, spans["algorithms.round"]),
        "intervals.advance_s": own["intervals.advance"],
        "meta.weights_s": own["meta.weights"],
        "meta.update_s": own["meta.update"],
        "meta.slot_updates": tracer.sums["meta.slot_updates"],
        "meta.fixed_point_s": own["meta.fixed_point"],
        "meta.fixed_point_steps": tracer.sums["meta.fixed_point_steps"],
        "experts.point_s": own["experts.point"],
        "experts.update_s": own["experts.update"],
        "experts.updates": tracer.outer_counts("experts.update"),
        "experts.prox_solve_s": own["experts.prox_solve"],
        "experts.prox_solve_calls": spans["experts.prox_solve"],
        "experts.prox_solve_iters": tracer.counter("core.project", within="experts.prox_solve"),
        "experts.anorm_solve_s": own["experts.anorm_solve"],
        "core.project_calls": tracer.counter("core.project"),
        "core.grad_calls": tracer.counter("core.grad"),
        "harness.report_self_s": own["harness.report"],
        "harness.prefix_s": own["harness.prefix"],
        "harness.comparator_s": sum(own[f"harness.comparator_{p}"] for p in PATHS),
        "harness.windows": sum(spans[f"harness.comparator_{p}"] for p in PATHS),
        "harness.objective_evals": tracer.counter("harness.objective_eval"),
        "harness.probe_checks": spans["harness.probe"],
        "harness.probe_s": own["harness.probe"],
    }
    for p in PATHS:
        out[f"harness.comparator_{p}"] = spans[f"harness.comparator_{p}"]
        out[f"harness.comparator_{p}_s"] = own[f"harness.comparator_{p}"]
    run = [i for i, n in enumerate(tracer.names) if n == "cli.run"]
    out["trace.run_s"] = sum(tracer.ends[i] - tracer.starts[i] for i in run)
    return out
