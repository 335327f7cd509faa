"""One benchmark run of one workload, in its own interpreter.

Repeats the workload's experiment closed-loop (one at a time) through the
public pipeline, cli.validate_config then cli.run_experiment, until the run
length is used up, then checks the artifacts outside the timed region and
writes a JSON result. With --trace 1 the experiments alternate between
plain and traced ones, so the tracing overhead is measured in the same
process.

Usage (normally started by bench/run.py, which sets PYTHONPATH and the BLAS
thread count):
    python3 bench/worker.py --workload NAME --seed N --seconds S --trace 0|1 \
        --out DIR --result FILE
"""
from __future__ import annotations

import argparse
import hashlib
import json
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import checks
import tracer as tracing
from workloads import raw_config

SRC = Path(__file__).resolve().parent.parent / "src"

# At least this many experiments per run, so every run compares content_hash
# between two experiments of the same seed.
MIN_EXPERIMENTS = 2


class PhaseTimers:
    """Thin timers around the public functions run_experiment calls."""

    NAMES = ("generate_stream", "build_learner", "adaptive_regret_report", "gc_interval_regret")

    def __init__(self, cli) -> None:
        self.cli = cli
        self.round_s: list[float] = []
        self.phase_s = dict.fromkeys(("stream", "build", "rounds", "finish", "report"), 0.0)
        self.calls = dict.fromkeys(self.NAMES + ("finish",), 0)
        self.windows = 0
        self._saved: dict = {}

    def _timed(self, name: str, phase: str, fn):
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            result = fn(*args, **kwargs)
            self.phase_s[phase] += time.perf_counter() - t0
            self.calls[name] += 1
            if phase == "report":
                self.windows += len(result)
            if name == "build_learner":
                self._time_learner(result)
            return result

        return wrapper

    def _time_learner(self, learner) -> None:
        run_round, finish, rounds = learner.run_round, learner.finish, self.round_s
        clock = time.perf_counter

        def timed_round(loss):
            t0 = clock()
            record = run_round(loss)
            rounds.append(clock() - t0)
            return record

        def timed_finish():
            t0 = clock()
            rows = finish()
            self.phase_s["finish"] += clock() - t0
            self.calls["finish"] += 1
            return rows

        learner.run_round = timed_round
        learner.finish = timed_finish

    def install(self) -> None:
        phases = {"generate_stream": "stream", "build_learner": "build"}
        for name in self.NAMES:
            self._saved[name] = getattr(self.cli, name)
            setattr(self.cli, name, self._timed(name, phases.get(name, "report"), self._saved[name]))

    def restore(self) -> None:
        for name, fn in self._saved.items():
            setattr(self.cli, name, fn)
        self.phase_s["rounds"] = sum(self.round_s)

    def verify(self, cfg: dict) -> None:
        """A timed function that was never called would read as zero time."""
        need = dict(self.calls)
        if not cfg["evaluation"]["gc_intervals"]:
            need.pop("gc_interval_regret")
        uncalled = [name for name, n in need.items() if n == 0]
        if uncalled or len(self.round_s) != cfg["horizon"]:
            raise RuntimeError(
                f"timed functions not called: {uncalled}; {len(self.round_s)} rounds timed "
                f"of {cfg['horizon']}"
            )


def _check_across_runs(record: Path, cfg: dict, content_hash: str) -> None:
    """content_hash must repeat across runs of the same sources and config
    (the config holds the seed)."""
    h = hashlib.sha256(json.dumps(cfg, sort_keys=True).encode())
    for path in sorted(SRC.glob("adaregret/*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    key = h.hexdigest()
    seen = json.loads(record.read_text()) if record.exists() else {}
    earlier = seen.setdefault(key, content_hash)
    if earlier != content_hash:
        raise checks.CheckFailure(
            f"content_hash {content_hash[:12]} differs from an earlier run of seed {cfg['seed']} "
            f"({earlier[:12]})"
        )
    record.write_text(json.dumps(seen, indent=1, sort_keys=True) + "\n")


def run(args) -> dict:
    from adaregret import cli

    raw = raw_config(args.workload, args.seed)
    cfg = cli.validate_config(raw)
    out_root = Path(args.out)
    shutil.rmtree(out_root, ignore_errors=True)
    out_root.mkdir(parents=True)

    exps: list[dict] = []
    begin = time.perf_counter()
    while True:
        i = len(exps)
        traced = bool(args.trace) and i % 2 == 1
        probe = tracing.Tracer() if traced else PhaseTimers(cli)
        exp = {"dir": out_root / f"exp{i}", "traced": traced, "probe": probe, "error": None}
        if traced:
            tracing.install(probe)
        else:
            probe.install()
        t0 = time.perf_counter()
        try:
            run_cfg = cli.validate_config(raw) if traced else cfg
            t0 = time.perf_counter()
            exp["manifest"] = cli.run_experiment(run_cfg, exp["dir"])
        except Exception:  # an exception from the program fails this operation
            exp["error"] = traceback.format_exc()
        finally:
            exp["run_s"] = time.perf_counter() - t0
            probe.restore()
        if not traced and exp["error"] is None:
            try:
                probe.verify(cfg)
            except RuntimeError as exc:
                exp["error"] = str(exc)
        exps.append(exp)
        elapsed = time.perf_counter() - begin
        longest = max(e["run_s"] for e in exps)
        if len(exps) >= MIN_EXPERIMENTS and elapsed + longest > args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # -- checks, outside the timed region -------------------------------------
    ok = [e for e in exps if e["error"] is None]
    correct = True
    summary: dict = {}
    try:
        hashes = {checks.check_manifest(e["dir"])["content_hash"] for e in ok}
        if len(hashes) > 1:
            raise checks.CheckFailure(f"content_hash differs between experiments: {sorted(hashes)}")
        if ok:
            summary = checks.check_experiment(cfg, ok[0]["dir"])
            _check_across_runs(
                out_root.parent.parent / "content-hashes.json", cfg, summary["content_hash"]
            )
    except (checks.CheckFailure, OSError, ValueError, KeyError) as exc:  # incl. unreadable artifacts
        correct = False
        for e in ok:
            e["error"] = f"check failed: {exc}"
        ok = []

    result = {
        "correct": correct,
        "attempted": len(exps),
        "failed": len(exps) - len(ok),
        "errors": sorted({e["error"] for e in exps if e["error"]}),
        "check": {k: v for k, v in summary.items() if k != "gap_max"},
    }
    plain = [e for e in ok if not e["traced"]]
    traced = [e for e in ok if e["traced"]]
    if args.trace:
        result["metrics"] = _layer_metrics(traced, plain, summary, out_root)
    else:
        result["metrics"] = _end_to_end_metrics(plain, peak_rss_mb)
        result["phases_s"] = {
            k: statistics.median(e["probe"].phase_s[k] for e in plain) for k in plain[0]["probe"].phase_s
        } if plain else {}
    result["experiments_s"] = [round(e["run_s"], 6) for e in exps]
    return result


def _end_to_end_metrics(plain: list[dict], peak_rss_mb: float) -> dict:
    if not plain:
        return {}
    rounds_ms = 1e3 * np.concatenate([e["probe"].round_s for e in plain])
    values = {
        "run_s": (statistics.median(e["run_s"] for e in plain), "s"),
        "round_ms_p50": (float(np.percentile(rounds_ms, 50)), "ms"),
        "round_ms_p95": (float(np.percentile(rounds_ms, 95)), "ms"),
        "windows_per_s": (
            statistics.median(e["probe"].windows / e["probe"].phase_s["report"] for e in plain), "1/s"
        ),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def _layer_metrics(traced: list[dict], plain: list[dict], summary: dict, out_root: Path) -> dict:
    if not traced or not plain:
        return {}
    per_exp = [tracing.layer_values(e["probe"]) for e in traced]
    values = {k: statistics.fmean(v[k] for v in per_exp) for k in per_exp[0]}
    first = traced[0]
    values["cli.artifact_bytes"] = sum(p.stat().st_size for p in first["dir"].iterdir())
    values["algorithms.grad_evals"] = first["manifest"]["grad_evals"]
    values["harness.comparator_gap_max"] = summary["gap_max"]
    plain_run_s = statistics.median(e["run_s"] for e in plain)
    values["trace.overhead_pct"] = 100.0 * (statistics.median(e["run_s"] for e in traced) / plain_run_s - 1.0)
    values["trace.attributed_pct"] = 100.0 * (1.0 - values["cli.run_self_s"] / values["trace.run_s"])
    metrics = tracing.metric_entries(values, set().union(*(e["probe"].missing for e in traced)))
    spans = out_root / "spans.csv"
    for i, e in enumerate(traced):
        e["probe"].write(spans, i)
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True, help="directory for this run's artifacts")
    parser.add_argument("--result", required=True, help="file the JSON result is written to")
    args = parser.parse_args(argv)
    result = run(args)
    Path(args.result).write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
