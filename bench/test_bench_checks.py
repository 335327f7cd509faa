"""The benchmark's own checks accept correct artifacts and reject planted errors.

Run from the repository root:
    PYTHONPATH=src python -m pytest -q bench
"""
from __future__ import annotations

import json
import math
import shutil

import numpy as np
import pytest

import checks
import tracer as tracing
from workloads import WORKLOADS, raw_config

from adaregret import cli

SMALL = {
    "switch": {
        "horizon": 32,
        "dimension": 1,
        "algorithm": "uma2-surrogate",
        "gradient_bound": 1.0,
        "seed": 3,
        "domain": {"kind": "box", "lower": [-1.0], "upper": [1.0]},
        "segments": [
            {"length": 16, "family": "absolute", "target": [0.8], "scale": 0.1},
            {"length": 16, "family": "absolute", "target": [-0.8], "scale": 0.1},
        ],
        "evaluation": {"tau": [8], "gc_intervals": True},
    },
    "composite": {
        "horizon": 16,
        "dimension": 3,
        "algorithm": "uma-comp",
        "gradient_bound": 1.0,
        "seed": 4,
        "domain": {"kind": "ball", "radius": 1.0},
        "regularizer": {"kind": "l1", "weight": 0.05},
        "segments": [
            {"length": 16, "family": "squared-prediction", "target": [0.6, -0.4, 0.3], "scale": 0.4, "noise": 0.05}
        ],
        "evaluation": {"gc_intervals": True},
    },
    "generic": {
        "horizon": 16,
        "dimension": 2,
        "algorithm": "uma2-grid",
        "gradient_bound": 1.0,
        "seed": 5,
        "domain": {"kind": "ball", "radius": 1.0},
        "segments": [
            {"length": 8, "family": "log-like", "target": [0.7, -0.5], "noise": 0.2},
            {"length": 8, "family": "absolute", "target": [-0.6, 0.4], "noise": 0.1},
        ],
        "evaluation": {"tau": [8], "mode": "anchored"},
    },
}


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    out = {}
    for name, raw in SMALL.items():
        cfg = cli.validate_config(raw)
        path = tmp_path_factory.mktemp(name)
        cli.run_experiment(cfg, path)
        out[name] = (cfg, path)
    return out


def _copy(runs, name, tmp_path):
    cfg, src = runs[name]
    dst = tmp_path / name
    shutil.copytree(src, dst)
    return cfg, dst


@pytest.mark.parametrize("name", sorted(SMALL))
def test_correct_artifacts_pass(runs, name):
    cfg, path = runs[name]
    summary = checks.check_experiment(cfg, path)
    assert summary["windows"] == len(checks.expected_windows(cfg))
    assert sum(summary["counts"].values()) == summary["windows"]


def test_flipped_artifact_byte_is_rejected(runs, tmp_path):
    _, path = _copy(runs, "switch", tmp_path)
    data = bytearray((path / "regret.csv").read_bytes())
    data[-3] ^= 0x01
    (path / "regret.csv").write_bytes(bytes(data))
    with pytest.raises(checks.CheckFailure, match="regret.csv: sha256"):
        checks.check_manifest(path)


def test_edited_content_hash_is_rejected(runs, tmp_path):
    _, path = _copy(runs, "switch", tmp_path)
    manifest = json.loads((path / "manifest.json").read_text())
    manifest["content_hash"] = "0" * 64
    (path / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(checks.CheckFailure, match="content_hash"):
        checks.check_manifest(path)


@pytest.mark.parametrize("name", sorted(SMALL))
def test_comparator_off_by_more_than_tolerance_is_rejected(runs, name):
    cfg, path = runs[name]
    inputs = checks.StreamInputs.from_config(cfg)
    losses = checks.check_trajectory(checks.read_rows(path / "trajectory.csv"), name != "generic")
    rows = checks.read_rows(path / "regret.csv")
    comps = checks.comparator_values(losses, rows)
    checks.check_comparators(inputs, comps)
    p, q, _ = comps[-1]
    _, ref = inputs.minimum(p, q)
    tol = checks.POSITION_TOL * inputs.lipschitz(p, q)
    # a comparator below the minimum means an infeasible or miscomputed point
    with pytest.raises(checks.CheckFailure, match=rf"\[{p},{q}\]"):
        checks.check_comparators(inputs, comps[:-1] + [(p, q, ref - 2 * tol)])
    # above it, regret is understated
    above = checks.GENERIC_EXCESS_TOL if name == "generic" else tol
    with pytest.raises(checks.CheckFailure, match=rf"\[{p},{q}\]"):
        checks.check_comparators(inputs, comps[:-1] + [(p, q, ref + 2 * above)])


def test_exceeded_bound_is_rejected(runs):
    _, path = runs["switch"]
    rows = checks.read_rows(path / "regret.csv")
    assert checks.check_bounds(rows) == len(rows)
    rows[0] = dict(rows[0], ratio="1.0000001")
    with pytest.raises(checks.CheckFailure, match="exceeds bound"):
        checks.check_bounds(rows)


def test_meta_lemma_violation_is_rejected(runs):
    _, path = runs["switch"]
    rows = checks.read_rows(path / "meta.csv")
    checks.check_meta(rows)
    rows[2] = dict(rows[2], lhs=repr(float(rows[2]["rhs"]) + 1e-6))
    with pytest.raises(checks.CheckFailure, match="lhs"):
        checks.check_meta(rows)


def test_broken_running_sum_and_gradient_count_are_rejected(runs):
    _, path = runs["switch"]
    rows = checks.read_rows(path / "trajectory.csv")
    checks.check_trajectory(rows, one_gradient=True)
    bad_sum = [dict(r) for r in rows]
    bad_sum[5]["cum_loss"] = repr(float(bad_sum[5]["cum_loss"]) * (1 + 1e-9) + 1e-9)
    with pytest.raises(checks.CheckFailure, match="cum_loss"):
        checks.check_trajectory(bad_sum, one_gradient=True)
    bad_grads = [dict(r) for r in rows]
    bad_grads[7]["grad_evals"] = "9"
    with pytest.raises(checks.CheckFailure, match="grad_evals"):
        checks.check_trajectory(bad_grads, one_gradient=True)


def test_missing_window_is_rejected(runs):
    cfg, path = runs["switch"]
    rows = checks.read_rows(path / "regret.csv")
    with pytest.raises(checks.CheckFailure, match="windows"):
        checks.check_windows(cfg, rows[:-1])


def test_independent_minima_match_dense_scans():
    rng = np.random.default_rng(0)
    n = 12
    x1 = rng.uniform(0.05, 0.1, n) * rng.choice([-1.0, 1.0], n)
    y1 = x1 * 0.3 + rng.uniform(-0.02, 0.02, n)
    box = {"kind": "box", "lower": [-1.0], "upper": [1.0]}
    inp = checks.StreamInputs(x1[:, None], y1, np.array(["absolute"] * n), box, "none", 0.0)
    scan = np.linspace(-1.0, 1.0, 400_001)
    dense = np.min(np.sum(np.abs(np.outer(scan, x1) - y1), axis=1))
    assert inp.minimum(1, n) == ("median", pytest.approx(dense, abs=1e-6))

    X = rng.normal(size=(n, 2)) * 0.5
    y = np.where(rng.uniform(size=n) < 0.5, -1.0, 1.0)
    fam = np.array(["log-like"] * 6 + ["absolute"] * 6)
    disk = {"kind": "ball", "center": [0.0, 0.0], "radius": 1.0}
    inp = checks.StreamInputs(X, y, fam, disk, "none", 0.0)
    r, th = np.meshgrid(np.sqrt(np.linspace(0, 1, 801)), np.linspace(0, 2 * math.pi, 1601))
    P = np.stack([(r * np.cos(th)).ravel(), (r * np.sin(th)).ravel()], 1)
    M = P @ X.T
    vals = np.sum(np.logaddexp(0.0, -y[:6] * M[:, :6]), 1) + np.sum(np.abs(M[:, 6:] - y[6:]), 1)
    method, value = inp.minimum(1, n)
    assert method == "abs-log"
    assert value <= vals.min() + 1e-12
    assert value >= vals.min() - 1e-2

    ball = {"kind": "ball", "center": [0.0, 0.0], "radius": 0.5}
    inp = checks.StreamInputs(X, X @ np.array([1.0, -1.0]), np.array(["squared-prediction"] * n), ball, "l1", 0.05)
    P = P * 0.5
    vals = np.sum((P @ X.T - inp.y) ** 2, 1) + n * 0.05 * np.sum(np.abs(P), 1)
    method, value = inp.minimum(1, n)
    assert method == "lsq-l1"
    assert value <= vals.min() + 1e-12
    assert value >= vals.min() - 1e-3


def test_tracer_accounts_for_the_run_and_restores_the_package(runs, tmp_path):
    cfg = cli.validate_config(SMALL["composite"])
    before = {name: getattr(cli, name) for name in ("run_experiment", "generate_stream")}
    tr = tracing.Tracer()
    tracing.install(tr)
    try:
        cli.run_experiment(cfg, tmp_path / "traced")
    finally:
        tr.restore()
    assert {name: getattr(cli, name) for name in before} == before
    assert not tr.missing
    values = tracing.layer_values(tr)
    own = tr.self_times()
    assert sum(own.values()) == pytest.approx(values["trace.run_s"], rel=1e-9)
    assert values["harness.windows"] == len(checks.expected_windows(cfg))
    assert values["harness.comparator_quadratic"] == values["harness.windows"]
    assert values["experts.prox_solve_calls"] > 0
    assert values["experts.prox_solve_iters"] >= values["experts.prox_solve_calls"]
    assert values["meta.slot_updates"] > 0 and values["experts.updates"] > 0


def test_missing_package_name_is_reported_absent(monkeypatch):
    from adaregret import experts

    monkeypatch.delattr(experts, "prox_quadratic_argmin")
    tr = tracing.Tracer()
    tracing.install(tr)
    tr.restore()
    assert tr.missing == {"experts.prox_quadratic_argmin"}
    entries = tracing.metric_entries(dict.fromkeys(tracing.LAYER_METRICS, 1.0), tr.missing)
    assert entries["experts.prox_solve_s"]["value"] is None
    assert "prox_quadratic_argmin" in entries["experts.prox_solve_iters"]["absent"]
    assert entries["experts.update_s"] == {"value": 1.0, "unit": "s"}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_configs_validate(name):
    cfg = cli.validate_config(raw_config(name, 11))
    assert cfg["seed"] == 11
    assert checks.expected_windows(cfg)
