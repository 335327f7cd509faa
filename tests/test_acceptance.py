"""Acceptance battery: ten end-to-end checks covering the interval schedule,
meta recursions, surrogate calculus, per-interval guarantees, scaling shapes,
switch recovery, composite correctness, determinism, and gradient accounting.

Each test prints one PASS line with its measured quantities so a full run
doubles as a report.
"""
import json
import math
import time

import numpy as np
import pytest

import adaregret as ar
import adaregret.cli as cli
from adaregret.algorithms import ONE_GRADIENT_ALGORITHMS
from adaregret.core import fd_hessian
from adaregret.experts import surrogate_exp_eval, surrogate_sc_eval
from adaregret.intervals import intervals_containing, partition
from adaregret.meta import (
    MetaSlot,
    MetaSlots,
    amlp_update,
    amlp_weights,
    gamma_for_end,
    oamlp_update,
    oamlp_weights,
)


def _box1(half=1.0):
    return ar.Domain.box(np.array([-half]), np.array([half]))


def _stream(horizon, domain, G, segments, seed, reg=None):
    cfg = ar.StreamConfig(
        horizon=horizon,
        dimension=domain.dim,
        domain=domain,
        gradient_bound=G,
        segments=segments,
        regularizer=reg if reg is not None else ar.Regularizer(),
        seed=seed,
    )
    return ar.generate_stream(cfg)


def _run(algorithm, domain, G, horizon, events, reg=None, alpha=None):
    learner = ar.build_learner(
        ar.LearnerConfig(
            algorithm=algorithm,
            domain=domain,
            G=G,
            horizon=horizon,
            regularizer=reg if reg is not None else ar.Regularizer(),
            alpha=alpha,
        )
    )
    records = ar.run(learner, events)
    return learner, records


# ---------------------------------------------------------------------------
# 1. GC interval invariants, exhaustively for T <= 1024; partitions on [1,256]


def test_criterion_01_gc_invariants():
    t0 = time.perf_counter()
    for t in range(1, 1025):
        ivs = intervals_containing(t)
        # exactly one interval per level, floor(log2 t) + 1 of them
        assert len(ivs) == t.bit_length()
        assert len({iv.level for iv in ivs}) == len(ivs)
        for iv in ivs:
            assert iv.start <= t <= iv.end
            assert iv.length == 2**iv.level
            assert iv.start % iv.length == 0 or iv.level == 0
            assert iv.start // (2**iv.level) >= 1
    for p in range(1, 257):
        for q in range(p, 257):
            part = partition(p, q)
            part.validate()
            n = q - p + 1
            assert len(part.pieces) <= 2 * math.ceil(math.log2(n + 1))
            assert sum(math.sqrt(iv.length) for iv in part.pieces) <= 7.0 * math.sqrt(n)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    print(f"PASS 1: GC invariants exhaustive (T<=1024, all [p,q]<=[1,256]) in {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 2. Meta recursions match direct product-form recomputation


class _PlainOracle:
    """Direct product-form recursion x <- (x (1 + delta r))^(delta'/delta)."""

    def __init__(self):
        self.slots = []

    def add(self, gamma):
        self.slots.append({"gamma": gamma, "x": 1.0, "V": 0.0})

    def _delta(self, s):
        return min(0.5, math.sqrt(s["gamma"] / (1.0 + s["V"])))

    def weights(self):
        raw = np.array([self._delta(s) * s["x"] for s in self.slots])
        return raw / raw.sum()

    def update(self, ell_meta, ells):
        for s, ell in zip(self.slots, ells):
            r = ell_meta - ell
            d_old = self._delta(s)
            s["V"] += r * r
            d_new = self._delta(s)
            s["x"] = (s["x"] * (1.0 + d_old * r)) ** (d_new / d_old)


class _OptimisticOracle:
    """Direct recursion x <- (x exp(delta r - delta^2 dev^2))^(delta'/delta)."""

    def __init__(self):
        self.slots = []

    def add(self, gamma):
        self.slots.append({"gamma": gamma, "x": 1.0, "V": 0.0})

    def _delta(self, s):
        return min(0.25, math.sqrt(s["gamma"] / (1.0 + s["V"])))

    def weights(self, hints):
        raw = np.array(
            [
                self._delta(s) * s["x"] * math.exp(self._delta(s) * m)
                for s, m in zip(self.slots, hints)
            ]
        )
        return raw / raw.sum()

    def update(self, ell_meta, ells, hints):
        for s, ell, m in zip(self.slots, ells, hints):
            r = ell_meta - ell
            dev = r - m
            d_old = self._delta(s)
            s["V"] += dev * dev
            d_new = self._delta(s)
            s["x"] = (s["x"] * math.exp(d_old * r - d_old**2 * dev**2)) ** (
                d_new / d_old
            )


def test_criterion_02_meta_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(42)

    records = [MetaSlot(gamma=gamma_for_end(e), tag=f"s{e}") for e in (4, 16, 64, 256)]
    oracle = _PlainOracle()
    for s in records:
        oracle.add(s.gamma)
    slots = MetaSlots(records)
    for t in range(1, 1001):
        if rng.uniform() < 0.05:
            end = int(rng.integers(t, 4 * t + 4))
            slots.extend([MetaSlot(gamma=gamma_for_end(end), tag=f"b{t}")])
            oracle.add(slots.gamma[-1])
        elif len(slots) > 2 and rng.uniform() < 0.03:
            k = int(rng.integers(0, len(slots)))
            slots.take(k, k + 1)
            oracle.slots.pop(k)
        p = amlp_weights(slots)
        p_ref = oracle.weights()
        assert np.allclose(p, p_ref, rtol=1e-10, atol=1e-13)
        ells = rng.uniform(0.0, 1.0, size=len(slots))
        ell_meta = float(p @ ells)
        amlp_update(slots, ell_meta, ells)
        oracle.update(ell_meta, ells)

    records = [MetaSlot(gamma=math.log(5.0), tag=f"o{i}", log_x=-math.log(5.0)) for i in range(5)]
    opt = _OptimisticOracle()
    for s in records:
        opt.add(s.gamma)
        opt.slots[-1]["x"] = 1.0 / 5.0
    slots = MetaSlots(records)
    for t in range(1, 1001):
        hints = rng.uniform(-1.0, 1.0, size=len(slots))
        p = oamlp_weights(slots, hints)
        p_ref = opt.weights(hints)
        assert np.allclose(p, p_ref, rtol=1e-10, atol=1e-13)
        ells = rng.uniform(0.0, 1.0, size=len(slots))
        ell_meta = float(p @ ells)
        oamlp_update(slots, ell_meta, ells, hints)
        opt.update(ell_meta, ells, hints)

    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    print(f"PASS 2: meta recursions match product form over 1000 rounds in {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 3. Surrogate calculus


def test_criterion_03_surrogate_calculus():
    rng = np.random.default_rng(7)
    D, G = 2.0, 1.5
    worst = math.inf
    for _ in range(1000):
        d = int(rng.integers(1, 4))
        g = rng.uniform(-1, 1, size=d)
        nrm = float(np.linalg.norm(g))
        if nrm > 0:
            g *= G * float(rng.uniform(0.2, 1.0)) / nrm
        eta = float(rng.uniform(0.02, 1.0)) / (5 * D * G)
        anchor = rng.uniform(-D / 2, D / 2, size=d) / math.sqrt(d)
        w = rng.uniform(-D / 2, D / 2, size=d) / math.sqrt(d)
        _, grad = surrogate_exp_eval(eta, g, anchor, w)
        hess = 2.0 * eta * eta * np.outer(g, g)
        slack = float(np.linalg.eigvalsh(hess - np.outer(grad, grad))[0])
        worst = min(worst, slack)
        assert slack >= -1e-9

    G2 = 1.25
    g = np.array([0.6, -0.4])
    anchor = np.array([0.1, 0.25])
    for eta in (0.04, 0.08, 1.0 / (5 * 2.0 * G2)):
        w = rng.uniform(-0.6, 0.6, size=2)
        hess = fd_hessian(lambda z: surrogate_sc_eval(eta, G2, g, anchor, z)[0], w)
        assert np.allclose(hess, 2.0 * eta * eta * G2 * G2 * np.eye(2), atol=1e-6)
    print(f"PASS 3: exp-concavity slack >= {worst:.2e} on 1000 samples; quadratic Hessian exact")


# ---------------------------------------------------------------------------
# 4. Meta-regret lemma on 100 mixed-stream runs


def _mixed_segments(rng, horizon):
    n_seg = int(rng.integers(2, 5))
    cuts = np.sort(rng.choice(np.arange(64, horizon, 16), size=n_seg - 1, replace=False))
    lengths = np.diff(np.concatenate(([0], cuts, [horizon])))
    segs = []
    for length in lengths:
        fam = ("absolute", "quadratic", "squared-prediction")[int(rng.integers(0, 3))]
        t0 = float(rng.uniform(-0.5, 0.5))
        if fam == "absolute":
            segs.append(
                ar.SegmentSpec(int(length), "absolute", params={"target": [t0], "noise": 0.3})
            )
        elif fam == "quadratic":
            segs.append(
                ar.SegmentSpec(
                    int(length), "quadratic", "strongly-convex", 0.5,
                    params={"target": [t0], "noise": 0.1, "b_scale": 0.2},
                )
            )
        else:
            segs.append(
                ar.SegmentSpec(
                    int(length), "squared-prediction", "exp-concave", 0.5,
                    params={"target": [t0], "scale": 0.3, "noise": 0.2},
                )
            )
    return segs


def test_criterion_04_meta_regret_lemma():
    horizon, G = 512, 1.5
    domain = _box1()
    plan = [("uma2-surrogate", None)] * 60 + [("uma3", None)] * 20 + [
        ("uma-comp", ar.Regularizer("l1", 0.05))
    ] * 20
    violations = 0
    rows_checked = 0
    for i, (algo, reg) in enumerate(plan):
        rng = np.random.default_rng(9000 + i)
        events = _stream(horizon, domain, G, _mixed_segments(rng, horizon), seed=9000 + i, reg=reg)
        learner, _ = _run(algo, domain, G, horizon, events, reg=reg)
        for row in learner.meta_log:
            rows_checked += 1
            if row.lhs > row.rhs + 1e-9:
                violations += 1
    assert rows_checked > 0
    assert violations == 0
    print(f"PASS 4: meta-regret lemma held on {rows_checked} interval certificates over 100 runs")


# ---------------------------------------------------------------------------
# 5. Theorem-bound soundness on every GC interval


def test_criterion_05_bound_soundness():
    t0 = time.perf_counter()
    checked = 0

    def sweep(algo, events, domain, G, ftype, modulus, reg=None):
        nonlocal checked
        horizon = len(events)
        learner, recs = _run(algo, domain, G, horizon, events, reg=reg)
        params = {"G": G, "D": domain.diameter, "d": domain.dim, "T": horizon}
        if ftype == "exp-concave":
            params["alpha"] = modulus
        elif ftype == "strongly-convex":
            params["lam"] = modulus
        fn = ar.bound_fn_for(algo, ftype, params)
        rows = ar.gc_interval_regret(events, [r.w for r in recs], domain, reg=reg, bound_fn=fn)
        for row in rows:
            assert row.empirical <= row.bound_rhs, (
                f"{algo}/{ftype}: regret {row.empirical:.6g} exceeds bound "
                f"{row.bound_rhs:.6g} on [{row.p},{row.q}]"
            )
        checked += len(rows)

    T = 2048
    convex_dom = _box1()
    convex_events = _stream(
        T, convex_dom, 1.0,
        [ar.SegmentSpec(T, "absolute", params={"target": [0.5], "noise": 0.3, "scale": 1.0})],
        seed=21,
    )
    exp_dom = ar.Domain.ball(np.zeros(2), 0.5)
    exp_events = _stream(
        T, exp_dom, 1.3,
        [ar.SegmentSpec(T, "squared-prediction", "exp-concave", 0.5,
                        params={"target": [0.3, -0.2], "scale": 0.8, "noise": 0.1})],
        seed=22,
    )
    sc_dom = ar.Domain.ball(np.zeros(2), 0.5)
    sc_events = _stream(
        T, sc_dom, 1.0,
        [ar.SegmentSpec(T, "quadratic", "strongly-convex", 0.5,
                        params={"target": [0.2, -0.1], "noise": 0.3, "b_scale": 0.5})],
        seed=23,
    )
    for algo in ("uma2-surrogate", "uma3"):
        sweep(algo, convex_events, convex_dom, 1.0, "convex", None)
        sweep(algo, exp_events, exp_dom, 1.3, "exp-concave", 0.5)
        sweep(algo, sc_events, sc_dom, 1.0, "strongly-convex", 0.5)

    reg = ar.Regularizer("l1", 0.05)
    comp_events = _stream(
        T, convex_dom, 1.0,
        [ar.SegmentSpec(T, "absolute", params={"target": [0.6], "noise": 0.2, "scale": 1.0})],
        seed=24, reg=reg,
    )
    sweep("uma-comp", comp_events, convex_dom, 1.0, "convex", None, reg=reg)

    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    print(f"PASS 5: {checked} GC-interval bounds all sound in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 6. Scaling shape of the regret curve


def test_criterion_06_scaling_shape():
    taus = (16, 32, 64, 128, 256)

    domain = _box1()
    events = _stream(
        512, domain, 1.0,
        [ar.SegmentSpec(512, "absolute", params={"target": [0.3], "noise": 0.5})],
        seed=5,
    )
    _, recs = _run("uma2-surrogate", domain, 1.0, 512, events)
    rows = ar.adaptive_regret_report(events, [r.w for r in recs], domain, taus, mode="exhaustive")
    max_regret = {tau: max(r.empirical for r in rows if r.tau == tau) for tau in taus}
    xs = np.log([float(t) for t in taus])
    ys = np.log([max_regret[t] for t in taus])
    slope = float(np.polyfit(xs, ys, 1)[0])
    assert 0.35 <= slope <= 0.65

    sc_dom = _box1(0.5)
    sc_events = _stream(
        512, sc_dom, 2.0,
        [ar.SegmentSpec(512, "quadratic", "strongly-convex", 2.0,
                        params={"target": [0.25], "noise": 0.1})],
        seed=6,
    )
    _, sc_recs = _run("uma2-surrogate", sc_dom, 2.0, 512, sc_events)
    sc_rows = ar.adaptive_regret_report(
        sc_events, [r.w for r in sc_recs], sc_dom, taus, mode="exhaustive"
    )
    sc_max = np.array([max(r.empirical for r in sc_rows if r.tau == tau) for tau in taus])
    r = float(np.corrcoef(np.log([float(t) for t in taus]), sc_max)[0, 1])
    r_squared = r * r
    assert r_squared >= 0.9
    print(f"PASS 6: convex slope {slope:.3f} in [0.35, 0.65]; strongly-convex R^2 {r_squared:.3f} >= 0.9")


# ---------------------------------------------------------------------------
# 7. Switch recovery vs a non-restarted baseline


def test_criterion_07_switch_recovery():
    T, flip = 2048, 1024
    domain = _box1()
    adaptives, baselines = [], []
    for seed in range(10):
        events = _stream(
            T, domain, 1.0,
            [
                ar.SegmentSpec(flip, "absolute", params={"target": [0.8], "scale": 0.1}),
                ar.SegmentSpec(T - flip, "absolute", params={"target": [-0.8], "scale": 0.1}),
            ],
            seed=seed,
        )
        _, recs_a = _run("uma2-surrogate", domain, 1.0, T, events)
        _, recs_b = _run("baseline-ogd", domain, 1.0, T, events)
        for recs, sink in ((recs_a, adaptives), (recs_b, baselines)):
            pts = [r.w for r in recs]
            prefix = ar.cumulative_losses(events, pts)
            emp, _ = ar.interval_regret(events, prefix, flip + 1, T, domain)
            sink.append(emp)
    mean_adaptive = float(np.mean(adaptives))
    mean_baseline = float(np.mean(baselines))
    assert mean_baseline > 0
    assert mean_adaptive <= 0.5 * mean_baseline
    print(
        f"PASS 7: post-switch regret {mean_adaptive:.2f} vs baseline {mean_baseline:.2f} "
        f"(ratio {mean_adaptive / mean_baseline:.3f} <= 0.5, 10 seeds)"
    )


# ---------------------------------------------------------------------------
# 8. Composite correctness


def test_criterion_08_composite_correctness():
    T = 256
    domain = _box1()
    reg = ar.Regularizer("l1", 0.05)
    events = _stream(
        T, domain, 1.0,
        [ar.SegmentSpec(T, "absolute", params={"target": [0.6], "noise": 0.2})],
        seed=11, reg=reg,
    )
    worst_resid = worst_gap = 0.0
    for algo in ("ums-comp", "uma-comp"):
        learner, recs = _run(algo, domain, 1.0, T, events, reg=reg)
        for rec in recs:
            assert rec.optimism_residual is not None
            assert rec.optimism_residual <= 1.0 / T
        assert learner.max_identity_gap <= 10.0 / T
        worst_resid = max(worst_resid, learner.max_fixed_point_residual)
        worst_gap = max(worst_gap, learner.max_identity_gap)

    rng = np.random.default_rng(3)
    zs = np.arange(-3.0, 3.0 + 1e-4, 1e-4)
    for kind, weight in (("l1", 0.4), ("squared-l2", 0.7)):
        r = ar.Regularizer(kind, weight)
        for _ in range(25):
            x = float(rng.uniform(-2.5, 2.5))
            scale = float(rng.uniform(0.05, 1.5))
            got = r.prox(np.array([x]), scale)[0]
            vals = 0.5 * (zs - x) ** 2 + scale * (
                weight * np.abs(zs) if kind == "l1" else weight * zs**2
            )
            want = float(zs[int(np.argmin(vals))])
            assert got == pytest.approx(want, abs=1e-3)
    print(
        f"PASS 8: fixed-point residual <= {worst_resid:.2e} <= 1/T, identity gap "
        f"{worst_gap:.2e} <= 10/T, prox matches grid oracles"
    )


# ---------------------------------------------------------------------------
# 9. Determinism of CSV artifacts


def test_criterion_09_byte_identical_artifacts(tmp_path):
    raw = {
        "horizon": 64,
        "dimension": 1,
        "algorithm": "uma2-surrogate",
        "gradient_bound": 1.0,
        "seed": 13,
        "segments": [
            {"length": 32, "family": "absolute", "target": [0.5], "noise": 0.3},
            {"length": 32, "family": "absolute", "target": [-0.5], "noise": 0.3},
        ],
        "evaluation": {"tau": [16, 64], "gc_intervals": True},
    }
    cfg = cli.validate_config(raw)
    m1 = cli.run_experiment(cfg, tmp_path / "a")
    m2 = cli.run_experiment(cfg, tmp_path / "b")
    for name in ("trajectory.csv", "regret.csv", "meta.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    assert m1["content_hash"] == m2["content_hash"]
    assert json.loads((tmp_path / "a" / "manifest.json").read_text()) == m1
    print(f"PASS 9: byte-identical artifacts, content {m1['content_hash'][:12]}")


# ---------------------------------------------------------------------------
# 10. One gradient evaluation per round


def test_criterion_10_one_gradient_per_round():
    T = 128
    domain = _box1()
    for algo in ONE_GRADIENT_ALGORITHMS:
        reg = ar.Regularizer("l1", 0.05) if "comp" in algo else ar.Regularizer()
        events = _stream(
            T, domain, 1.0,
            [ar.SegmentSpec(T, "absolute", params={"target": [0.4], "noise": 0.3})],
            seed=17, reg=reg,
        )
        learner, recs = _run(algo, domain, 1.0, T, events, reg=reg)
        assert learner.grad_evals == T
        assert recs[-1].grad_evals == T
    print(f"PASS 10: gradient counter == T for {', '.join(ONE_GRADIENT_ALGORITHMS)}")
