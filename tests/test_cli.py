"""Config validation, artifact layout, determinism, exit codes, and frozen
golden artifacts for the command-line front end."""
import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import adaregret as ar
import adaregret.cli as cli

DATA = Path(__file__).parent / "data"


def base_config(**overrides):
    cfg = {
        "horizon": 16,
        "dimension": 1,
        "algorithm": "baseline-ogd",
        "gradient_bound": 1.0,
        "seed": 1,
        "segments": [
            {"length": 16, "family": "absolute", "target": [0.4], "noise": 0.3}
        ],
    }
    cfg.update(overrides)
    return cfg


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


# ---------------------------------------------------------------------------
# Validation


def test_schema_is_valid_draft_2020_12():
    jsonschema.Draft202012Validator.check_schema(cli.CONFIG_SCHEMA)


def test_validate_fills_defaults():
    raw = base_config()
    del raw["seed"]
    cfg = cli.validate_config(raw)
    assert cfg["seed"] == 0
    assert cfg["domain"] == {"kind": "ball", "center": [0.0], "radius": 1.0}
    assert cfg["regularizer"] == {"kind": "none", "weight": 0.0}
    seg = cfg["segments"][0]
    assert seg["declared_type"] == "convex" and seg["modulus"] is None
    assert cfg["evaluation"] == {
        "mode": "auto",
        "tau": [16],
        "bounds": True,
        "gc_intervals": False,
    }
    # input dict is not mutated
    assert "domain" not in raw and "evaluation" not in raw


def test_validate_names_offending_keys():
    raw = base_config(bogus_key=1)
    raw["segments"][0]["familyy"] = "absolute"
    raw["algorithm"] = "no-such-algo"
    with pytest.raises(ar.InputError) as exc:
        cli.validate_config(raw)
    msg = str(exc.value)
    assert "<root>" in msg and "bogus_key" in msg
    assert "segments.0" in msg and "familyy" in msg
    assert "algorithm" in msg


def test_validate_segment_sum_and_tau():
    raw = base_config()
    raw["segments"][0]["length"] = 10
    with pytest.raises(ar.InputError, match="sum to 10 but horizon is 16"):
        cli.validate_config(raw)
    raw = base_config(evaluation={"tau": [32]})
    with pytest.raises(ar.InputError, match=r"evaluation\.tau: 32 exceeds horizon 16"):
        cli.validate_config(raw)


def test_validate_box_domain_requirements():
    raw = base_config(domain={"kind": "box"})
    with pytest.raises(ar.InputError, match="required for box domains"):
        cli.validate_config(raw)
    raw = base_config(domain={"kind": "box", "lower": [-1.0, -1.0], "upper": [1.0]})
    with pytest.raises(ar.InputError, match="length must equal dimension"):
        cli.validate_config(raw)
    raw = base_config(domain={"kind": "ball", "center": [0.0, 0.0]})
    with pytest.raises(ar.InputError, match="length must equal dimension"):
        cli.validate_config(raw)


# ---------------------------------------------------------------------------
# Artifacts


def test_zero_loss_experiment(tmp_path):
    cfg = cli.validate_config(
        base_config(
            algorithm="uma2-surrogate",
            segments=[{"length": 16, "family": "linear", "direction": [0.0]}],
        )
    )
    manifest = cli.run_experiment(cfg, tmp_path)
    header, rows = read_csv(tmp_path / "trajectory.csv")
    assert header == ["t", "loss", "cum_loss", "active_experts", "grad_evals"]
    assert [r[1] for r in rows] == ["0.0"] * 16
    header, rows = read_csv(tmp_path / "regret.csv")
    assert header == ["p", "q", "tau", "empirical_regret", "bound_rhs", "ratio"]
    assert len(rows) == 1 and float(rows[0][3]) == 0.0
    assert manifest["grad_evals"] == 16
    assert manifest["one_gradient_per_round"] is True
    assert manifest["invariants_passed"] is True
    assert manifest["function_type"] == "convex"


def test_baseline_bounds_are_nan(tmp_path):
    cfg = cli.validate_config(base_config())
    cli.run_experiment(cfg, tmp_path)
    _, rows = read_csv(tmp_path / "regret.csv")
    assert rows and all(r[4] == "nan" and r[5] == "nan" for r in rows)
    # baselines carry no meta certificates
    _, meta = read_csv(tmp_path / "meta.csv")
    assert meta == []


def test_float_serialization_round_trips():
    values = [0.1, 1.0 / 3.0, 1e-17, 123456.789012345, 3.141592653589793]
    for v in values:
        assert float(cli._fmt(v)) == v
    assert cli._fmt(0.1) == "0.1"
    assert cli._fmt(3) == "3"


def test_rerun_is_byte_identical(tmp_path):
    cfg = cli.validate_config(
        base_config(algorithm="uma3", horizon=24,
                    segments=[{"length": 24, "family": "absolute", "target": [0.4],
                               "noise": 0.3}])
    )
    m1 = cli.run_experiment(cfg, tmp_path / "a")
    m2 = cli.run_experiment(cfg, tmp_path / "b")
    assert m1["content_hash"] == m2["content_hash"]
    for name in ("trajectory.csv", "regret.csv", "meta.csv", "manifest.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_composite_experiment_with_gc_intervals(tmp_path):
    cfg = cli.validate_config(
        base_config(
            algorithm="uma-comp",
            regularizer={"kind": "l1", "weight": 0.05},
            evaluation={"tau": [8, 16], "gc_intervals": True},
        )
    )
    manifest = cli.run_experiment(cfg, tmp_path)
    _, rows = read_csv(tmp_path / "regret.csv")
    tau_rows = [r for r in rows if int(r[2]) in (8, 16) and int(r[0]) == 1]
    assert tau_rows
    # 16 + 7 + 3 + 1 GC intervals inside [1, 16], appended after the tau sweep
    assert len(rows) == (16 - 8 + 1) + 1 + 27
    assert all(float(r[4]) > 0 for r in rows if r[4] != "nan")
    _, meta = read_csv(tmp_path / "meta.csv")
    # one slot per GC interval born by t=16: the 27 contained in [1,16] plus
    # the four still open at the horizon ([16,17], [16,19], [16,23], [16,31])
    assert len(meta) == 31
    assert manifest["one_gradient_per_round"] is True


def test_manifest_hashes_match_files(tmp_path):
    cfg = cli.validate_config(base_config())
    manifest = cli.run_experiment(cfg, tmp_path)
    import hashlib

    for name, digest in manifest["artifacts"].items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest
    joined = "".join(manifest["artifacts"][k] for k in sorted(manifest["artifacts"]))
    assert manifest["content_hash"] == hashlib.sha256(joined.encode()).hexdigest()
    saved = json.loads((tmp_path / "manifest.json").read_text())
    assert saved == manifest


# ---------------------------------------------------------------------------
# Entry point


def test_main_success_and_overrides(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(base_config()))
    out = tmp_path / "out"
    code = cli.main(
        ["--config", str(cfg_path), "--out", str(out), "--seed", "9", "--algo", "uma3"]
    )
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seed"] == 9
    assert manifest["algorithm"] == "uma3"
    assert "content" in capsys.readouterr().out


def test_main_rejects_bad_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli.main(["--config", str(bad), "--out", str(tmp_path / "o")]) == 2
    assert "not valid JSON" in capsys.readouterr().err


def test_main_rejects_invalid_config(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(base_config(horizon=0)))
    assert cli.main(["--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
    assert "horizon" in capsys.readouterr().err


def test_main_invariant_violation_exit_code(tmp_path, monkeypatch, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(base_config()))

    def boom(cfg, out):
        raise ar.InvariantViolation("meta-regret-lemma", "synthetic failure")

    monkeypatch.setattr(cli, "run_experiment", boom)
    assert cli.main(["--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 1
    assert "invariant violation" in capsys.readouterr().err


def test_main_convergence_error_exit_code(tmp_path, monkeypatch, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(base_config()))

    def stall(cfg, out):
        raise ar.ConvergenceError("synthetic stall", residual=0.5)

    monkeypatch.setattr(cli, "run_experiment", stall)
    assert cli.main(["--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert "solver did not converge" in err and "synthetic stall" in err and "0.5" in err


def test_self_check_records_convergence_error(monkeypatch, capsys):
    def stall(cfg, out):
        raise ar.ConvergenceError("synthetic stall", residual=0.5)

    monkeypatch.setattr(cli, "run_experiment", stall)
    assert cli.main(["--check"]) == 1
    err = capsys.readouterr().err
    assert err.count("FAIL ") == len(ar.ALGORITHMS)
    assert "synthetic stall" in err


def _run_module(*args):
    """`python -m adaregret ARGS` in a fresh interpreter."""
    src = str(Path(ar.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run(
        [sys.executable, "-m", "adaregret", *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )


def test_module_entry_missing_config_exits_2(tmp_path):
    # `python -m adaregret` on a config path that does not exist: a named
    # error and exit 2, not a traceback
    proc = _run_module("--config", str(tmp_path / "missing.json"))
    assert proc.returncode == 2
    assert "cannot read config" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_module_entry_unwritable_output_exits_2(tmp_path):
    # --out below an existing file cannot be created as a directory
    blocker = tmp_path / "file"
    blocker.write_text("")
    config = DATA / "golden-baseline" / "config.json"
    proc = _run_module("--config", str(config), "--out", str(blocker / "sub"))
    assert proc.returncode == 2
    assert "error: cannot write output" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_main_usage_error_exit_code(tmp_path, monkeypatch, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(base_config()))

    def misuse(cfg, out):
        raise ar.UsageError("update() before point()")

    monkeypatch.setattr(cli, "run_experiment", misuse)
    assert cli.main(["--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 4
    err = capsys.readouterr().err
    assert "internal error: update() before point()" in err
    assert cli.main(["--check"]) == 1
    err = capsys.readouterr().err
    assert err.count("FAIL ") == len(ar.ALGORITHMS)


_FAMILIES = ("linear", "absolute", "quadratic", "squared-prediction", "log-like")
_EXIT_CODES = (0, 1, 2, 3, 4)  # the README's exit-code table


@settings(max_examples=48, deadline=None)
@given(
    algorithm=st.sampled_from(ar.ALGORITHMS),
    family=st.sampled_from(_FAMILIES),
    kind=st.sampled_from(("box", "ball")),
    reg=st.sampled_from(("none", "l1", "squared-l2")),
    horizon=st.integers(1, 8),
    dim=st.integers(1, 2),
    seed=st.integers(0, 2**16),
)
def test_main_fuzz_tiny_configs(algorithm, family, kind, reg, horizon, dim, seed):
    # any tiny config ends in a documented exit code with a one-line message
    domain = (
        {"kind": "box", "lower": [-1.0] * dim, "upper": [0.5] * dim}
        if kind == "box"
        else {"kind": "ball", "radius": 1.0}
    )
    raw = {
        "horizon": horizon,
        "dimension": dim,
        "algorithm": algorithm,
        "gradient_bound": 2.5,
        "seed": seed,
        "domain": domain,
        "regularizer": {"kind": reg, "weight": 0.1},
        "segments": [
            {
                "length": horizon,
                "family": family,
                "target": [0.3] * dim,
                "direction": [0.5] * dim,
                "scale": 0.5,
                "noise": 0.2,
            }
        ],
        "evaluation": {"tau": [1, horizon], "gc_intervals": True},
    }
    if algorithm == "baseline-ons":
        raw["alpha"] = 0.5
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        cfg_path = Path(tmp) / "cfg.json"
        cfg_path.write_text(json.dumps(raw))
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main(["--config", str(cfg_path), "--out", str(Path(tmp) / "out")])
    assert code in _EXIT_CODES
    assert "Traceback" not in err.getvalue()


def test_main_requires_config():
    with pytest.raises(SystemExit) as exc:
        cli.main([])
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# Golden artifacts (byte-frozen)


@pytest.mark.parametrize("name", ["golden-baseline", "golden-surrogate"])
def test_golden_artifacts(tmp_path, name):
    golden = DATA / name
    cfg = cli.validate_config(json.loads((golden / "config.json").read_text()))
    cli.run_experiment(cfg, tmp_path)
    for artifact in ("trajectory.csv", "regret.csv", "meta.csv", "manifest.json"):
        assert (tmp_path / artifact).read_bytes() == (golden / artifact).read_bytes(), (
            f"{name}/{artifact} drifted"
        )
