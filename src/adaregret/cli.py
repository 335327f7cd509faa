"""Command-line front end: validated JSON configs in, deterministic CSV
artifacts out.

Artifacts written to the output directory:
  trajectory.csv  per-round losses and accounting
  regret.csv      interval regrets (tau sweep and, optionally, all GC intervals)
  meta.csv        per-slot meta-regret measurements against their guarantees
  manifest.json   normalized config, seed, and sha256 hashes of every artifact

Exit status: 0 when the run finished and every runtime invariant held;
1 on an invariant violation; 2 on an unreadable or invalid config, an output
directory that cannot be written (and on command-line usage errors); 3 when a
numerical solver (a comparator or a learner's inner solve) hit its step cap
before reaching its tolerance; 4 when a component was driven out of its
call order (a `UsageError`: a defect in the program, not in the input).
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import jsonschema

from .algorithms import (
    ALGORITHMS,
    ONE_GRADIENT_ALGORITHMS,
    LearnerConfig,
    build_learner,
)
from .core import (
    ConvergenceError,
    Domain,
    InputError,
    InvariantViolation,
    Regularizer,
    UsageError,
)
from .harness import (
    SegmentSpec,
    StreamConfig,
    adaptive_regret_report,
    bound_fn_for,
    gc_interval_regret,
    generate_stream,
)

_VEC = {"type": "array", "items": {"type": "number"}, "minItems": 1}

CONFIG_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "additionalProperties": False,
    "required": ["horizon", "dimension", "algorithm", "gradient_bound", "segments"],
    "properties": {
        "horizon": {"type": "integer", "minimum": 1},
        "dimension": {"type": "integer", "minimum": 1},
        "seed": {"type": "integer", "minimum": 0},
        "algorithm": {"enum": list(ALGORITHMS)},
        "gradient_bound": {"type": "number", "exclusiveMinimum": 0},
        "alpha": {"type": "number", "exclusiveMinimum": 0},
        "domain": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "kind": {"enum": ["ball", "box"]},
                "center": _VEC,
                "radius": {"type": "number", "exclusiveMinimum": 0},
                "lower": _VEC,
                "upper": _VEC,
            },
        },
        "regularizer": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "kind": {"enum": ["none", "l1", "squared-l2"]},
                "weight": {"type": "number", "minimum": 0},
            },
        },
        "segments": {
            "type": "array",
            "minItems": 1,
            "items": {
                "type": "object",
                "additionalProperties": False,
                "required": ["length"],
                "properties": {
                    "length": {"type": "integer", "minimum": 1},
                    "family": {
                        "enum": [
                            "linear",
                            "absolute",
                            "quadratic",
                            "squared-prediction",
                            "log-like",
                        ]
                    },
                    "declared_type": {
                        "enum": ["convex", "exp-concave", "strongly-convex"]
                    },
                    "modulus": {"type": "number", "exclusiveMinimum": 0},
                    "target": _VEC,
                    "scale": {"type": "number", "exclusiveMinimum": 0},
                    "noise": {"type": "number", "minimum": 0},
                    "b_scale": {"type": "number", "minimum": 0},
                    "direction": _VEC,
                },
            },
        },
        "evaluation": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "mode": {"enum": ["auto", "exhaustive", "anchored"]},
                "tau": {
                    "type": "array",
                    "items": {"type": "integer", "minimum": 1},
                },
                "bounds": {"type": "boolean"},
                "gc_intervals": {"type": "boolean"},
            },
        },
    },
}


def validate_config(raw: dict) -> dict:
    """Schema-check a raw config and fill defaults. Raises InputError naming
    every offending key (unknown keys included) in one message."""
    validator = jsonschema.Draft202012Validator(CONFIG_SCHEMA)
    errors = sorted(validator.iter_errors(raw), key=lambda e: list(e.absolute_path))
    if errors:
        lines = []
        for err in errors:
            path = ".".join(str(part) for part in err.absolute_path) or "<root>"
            lines.append(f"{path}: {err.message}")
        raise InputError("invalid config:\n  " + "\n  ".join(lines))

    cfg = json.loads(json.dumps(raw))  # deep copy, JSON-normalized
    cfg.setdefault("seed", 0)
    cfg.setdefault("domain", {})
    cfg["domain"].setdefault("kind", "ball")
    if cfg["domain"]["kind"] == "ball":
        cfg["domain"].setdefault("center", [0.0] * cfg["dimension"])
        cfg["domain"].setdefault("radius", 1.0)
        if len(cfg["domain"]["center"]) != cfg["dimension"]:
            raise InputError("domain.center: length must equal dimension")
    else:
        if "lower" not in cfg["domain"] or "upper" not in cfg["domain"]:
            raise InputError("domain.lower/domain.upper: required for box domains")
        if (
            len(cfg["domain"]["lower"]) != cfg["dimension"]
            or len(cfg["domain"]["upper"]) != cfg["dimension"]
        ):
            raise InputError("domain.lower/domain.upper: length must equal dimension")
    cfg.setdefault("regularizer", {"kind": "none", "weight": 0.0})
    cfg["regularizer"].setdefault("kind", "none")
    cfg["regularizer"].setdefault("weight", 0.0)
    for seg in cfg["segments"]:
        seg.setdefault("family", "absolute")
        seg.setdefault("declared_type", "convex")
        seg.setdefault("modulus", None)
    total = sum(seg["length"] for seg in cfg["segments"])
    if total != cfg["horizon"]:
        raise InputError(
            f"segments: lengths sum to {total} but horizon is {cfg['horizon']}"
        )
    cfg.setdefault("evaluation", {})
    cfg["evaluation"].setdefault("mode", "auto")
    cfg["evaluation"].setdefault("tau", [cfg["horizon"]])
    cfg["evaluation"].setdefault("bounds", True)
    cfg["evaluation"].setdefault("gc_intervals", False)
    for tau in cfg["evaluation"]["tau"]:
        if tau > cfg["horizon"]:
            raise InputError(f"evaluation.tau: {tau} exceeds horizon {cfg['horizon']}")
    return cfg


def _build_domain(cfg: dict) -> Domain:
    dom = cfg["domain"]
    if dom["kind"] == "ball":
        return Domain.ball(np.asarray(dom["center"], dtype=float), float(dom["radius"]))
    return Domain.box(
        np.asarray(dom["lower"], dtype=float), np.asarray(dom["upper"], dtype=float)
    )


def _build_stream_config(cfg: dict, domain: Domain) -> StreamConfig:
    segments = []
    for seg in cfg["segments"]:
        params = {
            k: seg[k]
            for k in ("target", "scale", "noise", "b_scale", "direction")
            if k in seg
        }
        segments.append(
            SegmentSpec(
                length=seg["length"],
                family=seg["family"],
                declared_type=seg["declared_type"],
                modulus=seg["modulus"],
                params=params,
            )
        )
    return StreamConfig(
        horizon=cfg["horizon"],
        dimension=cfg["dimension"],
        domain=domain,
        gradient_bound=cfg["gradient_bound"],
        segments=segments,
        regularizer=Regularizer(cfg["regularizer"]["kind"], cfg["regularizer"]["weight"]),
        seed=cfg["seed"],
    )


def _fmt(x) -> str:
    if isinstance(x, float):
        return repr(x)
    return str(x)


def _write_csv(path: Path, header: list[str], rows: list[tuple]) -> None:
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_experiment(cfg: dict, out_dir: Path) -> dict:
    """Run one configured experiment and write all artifacts. Returns the
    manifest dict (also written to manifest.json)."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    domain = _build_domain(cfg)
    stream_cfg = _build_stream_config(cfg, domain)
    events = generate_stream(stream_cfg)
    reg = stream_cfg.regularizer

    learner = build_learner(
        LearnerConfig(
            algorithm=cfg["algorithm"],
            domain=domain,
            G=cfg["gradient_bound"],
            horizon=cfg["horizon"],
            regularizer=reg,
            alpha=cfg.get("alpha"),
        )
    )
    records = [learner.run_round(ev) for ev in events]
    meta_rows = learner.finish()
    points = [rec.w for rec in records]

    traj_rows = []
    cum = 0.0
    for rec, ev in zip(records, events):
        loss = ev.value(rec.w) + reg.value(rec.w)
        cum += loss
        traj_rows.append((rec.t, loss, cum, rec.live_experts, rec.grad_evals))
    _write_csv(
        out_dir / "trajectory.csv",
        ["t", "loss", "cum_loss", "active_experts", "grad_evals"],
        traj_rows,
    )
    _write_csv(
        out_dir / "meta.csv",
        ["start", "end", "s_eff", "tag", "lhs", "rhs", "sq_dev", "n_created"],
        [
            (m.start, m.end, m.s_eff, m.tag, m.lhs, m.rhs, m.sq_dev, m.n_created)
            for m in meta_rows
        ],
    )
    # finish() hands back the learner's own log: release it before the
    # evaluation, which needs the memory
    meta_rows.clear()

    function_type, modulus = stream_cfg.declared_profile()
    bound_fn = None
    if cfg["evaluation"]["bounds"] and function_type != "mixed":
        params = {
            "G": cfg["gradient_bound"],
            "D": domain.diameter,
            "d": cfg["dimension"],
            "T": cfg["horizon"],
        }
        if function_type == "exp-concave":
            params["alpha"] = modulus
        elif function_type == "strongly-convex":
            params["lam"] = modulus
        bound_fn = bound_fn_for(cfg["algorithm"], function_type, params)

    regret_rows = []
    report = adaptive_regret_report(
        events,
        points,
        domain,
        tau_list=cfg["evaluation"]["tau"],
        mode=cfg["evaluation"]["mode"],
        reg=reg,
        G=cfg["gradient_bound"],
        bound_fn=bound_fn,
    )
    regret_rows.extend(
        (r.p, r.q, r.tau, r.empirical, r.bound_rhs, r.ratio) for r in report
    )
    if cfg["evaluation"]["gc_intervals"]:
        gc_report = gc_interval_regret(
            events, points, domain, reg=reg, G=cfg["gradient_bound"], bound_fn=bound_fn
        )
        regret_rows.extend(
            (r.p, r.q, r.tau, r.empirical, r.bound_rhs, r.ratio) for r in gc_report
        )
    _write_csv(
        out_dir / "regret.csv",
        ["p", "q", "tau", "empirical_regret", "bound_rhs", "ratio"],
        regret_rows,
    )

    artifacts = {
        name: _sha256(out_dir / name)
        for name in ("trajectory.csv", "regret.csv", "meta.csv")
    }
    content_hash = hashlib.sha256(
        "".join(artifacts[k] for k in sorted(artifacts)).encode()
    ).hexdigest()
    one_gradient = cfg["algorithm"] in ONE_GRADIENT_ALGORITHMS
    manifest = {
        "algorithm": cfg["algorithm"],
        "seed": cfg["seed"],
        "horizon": cfg["horizon"],
        "dimension": cfg["dimension"],
        "function_type": function_type,
        "grad_evals": records[-1].grad_evals if records else 0,
        "one_gradient_per_round": one_gradient,
        "invariants_passed": True,
        "config": cfg,
        "artifacts": artifacts,
        "content_hash": content_hash,
    }
    (out_dir / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    )
    return manifest


def self_check() -> int:
    """Small built-in battery: runs every algorithm on a short mixed stream
    with invariant checks on and verifies rerun determinism."""
    import tempfile

    base = {
        "horizon": 48,
        "dimension": 2,
        "seed": 7,
        "gradient_bound": 2.0,
        "segments": [
            {"length": 24, "family": "absolute", "target": [0.5, -0.25]},
            {"length": 24, "family": "absolute", "target": [-0.5, 0.25]},
        ],
        "evaluation": {"tau": [16, 48], "mode": "exhaustive"},
    }
    composite = {
        "horizon": 32,
        "dimension": 1,
        "seed": 3,
        "gradient_bound": 1.0,
        "regularizer": {"kind": "l1", "weight": 0.05},
        "segments": [{"length": 32, "family": "absolute", "target": [0.6]}],
        "evaluation": {"tau": [32]},
    }
    failures = []
    with tempfile.TemporaryDirectory() as tmp:
        tmp_path = Path(tmp)
        for algo in ALGORITHMS:
            raw = dict(composite if algo in ("ums-comp", "uma-comp") else base)
            raw["algorithm"] = algo
            try:
                cfg = validate_config(raw)
                m1 = run_experiment(cfg, tmp_path / f"{algo}-a")
                m2 = run_experiment(cfg, tmp_path / f"{algo}-b")
                if m1["content_hash"] != m2["content_hash"]:
                    failures.append(f"{algo}: rerun artifacts differ")
                else:
                    print(f"ok {algo} content={m1['content_hash'][:12]}")
            except (InputError, InvariantViolation, ConvergenceError, UsageError, OSError) as exc:
                failures.append(f"{algo}: {exc}")
    for f in failures:
        print(f"FAIL {f}", file=sys.stderr)
    return 1 if failures else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="adaregret",
        description="Run adaptive-regret learners on synthetic streams and "
        "report interval regrets against their guarantees.",
    )
    parser.add_argument("--config", type=Path, help="path to a JSON config file")
    parser.add_argument(
        "--out", type=Path, default=Path("out"), help="output directory (default ./out)"
    )
    parser.add_argument("--seed", type=int, help="override the config seed")
    parser.add_argument(
        "--algo", choices=list(ALGORITHMS), help="override the config algorithm"
    )
    parser.add_argument(
        "--check", action="store_true", help="run the built-in self test and exit"
    )
    args = parser.parse_args(argv)

    if args.check:
        return self_check()
    if args.config is None:
        parser.error("--config is required unless --check is given")

    try:
        text = args.config.read_text()
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 2
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        print(f"error: config is not valid JSON: {exc}", file=sys.stderr)
        return 2
    if args.seed is not None:
        raw["seed"] = args.seed
    if args.algo is not None:
        raw["algorithm"] = args.algo

    try:
        cfg = validate_config(raw)
        manifest = run_experiment(cfg, args.out)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 1
    except ConvergenceError as exc:
        residual = "" if exc.residual is None else f" (residual {exc.residual:.3g})"
        print(f"solver did not converge: {exc}{residual}", file=sys.stderr)
        return 3
    except UsageError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 2
    print(
        f"wrote {args.out}/trajectory.csv regret.csv meta.csv manifest.json "
        f"(content {manifest['content_hash'][:12]})"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
