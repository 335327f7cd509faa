"""Benchmark entry point: one run of one workload.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout that has src/adaregret. It needs no
install: it puts src on PYTHONPATH itself and pins BLAS to one thread. With
--trace 0 it times SETUP_REPEATS fresh interpreters that import adaregret and
validate the config (setup_s), then starts bench/worker.py in a fresh
interpreter for the measured run; with --trace 1 only the traced worker runs.
The last line of standard output is the JSON result:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
Artifacts, spans and the full worker result go under .bench_out/ at the root
of the checkout.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_REPEATS = 3
# Every run must end within 180 s; leave this much for set-up and printing.
DEADLINE_S = 170.0


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _setup_seconds(workload: str, seed: int, env: dict) -> list[float]:
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, str(BENCH / "setup_probe.py"), workload, str(seed)],
            env=env, check=True, timeout=60,
        )
        times.append(time.perf_counter() - t0)
    return times


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "adaregret" / "cli.py").is_file():
        print(f"error: no adaregret sources under {SRC}", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        print("error: --seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 2

    begin = time.perf_counter()
    env = _env()
    run_dir = OUT / args.workload / f"seed{args.seed}-trace{args.trace}"
    run_dir.mkdir(parents=True, exist_ok=True)
    setup = [] if args.trace else _setup_seconds(args.workload, args.seed, env)
    result_file = run_dir / "result.json"
    result_file.unlink(missing_ok=True)
    cmd = [
        sys.executable, str(BENCH / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--out", str(run_dir / "artifacts"), "--result", str(result_file),
    ]
    try:
        subprocess.run(cmd, env=env, check=True, timeout=DEADLINE_S - (time.perf_counter() - begin))
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"error: worker failed: {exc}", file=sys.stderr)
        return 1
    result = json.loads(result_file.read_text())
    metrics = result["metrics"]
    if not args.trace and metrics:
        metrics["setup_s"] = {"value": statistics.median(setup), "unit": "s"}
    for err in result["errors"]:
        print(f"failed: {err}", file=sys.stderr)
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed")} | {"metrics": metrics}))
    return 0 if result["correct"] and metrics else 1


if __name__ == "__main__":
    sys.exit(main())
