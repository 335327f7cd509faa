"""End-to-end learner behavior: determinism, gradient accounting, expert
lifecycle, meta-regret certificates, and baseline recursions."""
import math

import numpy as np
import pytest

import adaregret as ar
from tests.conftest import make_absolute_stream


def _zero_stream(horizon, dim):
    g = np.zeros(dim)
    return [
        ar.LossSpec("linear", {"g": g}, declared_type="convex", gradient_bound=1.0)
        for _ in range(horizon)
    ]


def _cfg(algorithm, domain, horizon, **kw):
    return ar.LearnerConfig(
        algorithm=algorithm, domain=domain, G=1.0, horizon=horizon, **kw
    )


def test_learner_config_validation(box1):
    with pytest.raises(ar.InputError):
        ar.LearnerConfig("no-such-algo", box1, 1.0, 8)
    with pytest.raises(ar.InputError):
        ar.LearnerConfig("uma3", box1, 0.0, 8)
    with pytest.raises(ar.InputError):
        ar.LearnerConfig("uma3", box1, 1.0, 0)


def test_rate_grid_values():
    assert list(ar.rate_grid(1)) == [1.0]
    assert list(ar.rate_grid(8)) == [0.125, 0.25, 0.5, 1.0]
    grid = ar.rate_grid(100)
    assert grid[0] == pytest.approx(0.01)
    assert grid[-1] >= 1.0
    # any modulus in [1/T, 1] has a grid point within a factor of two below it
    rng = np.random.default_rng(0)
    for _ in range(200):
        m = float(rng.uniform(0.01, 1.0))
        assert any(a <= m <= 2 * a for a in grid)


@pytest.mark.parametrize("algo", ar.ALGORITHMS)
def test_bitwise_determinism(algo, box1):
    reg = ar.Regularizer("l1", 0.05) if "comp" in algo or "fobos" in algo else ar.Regularizer()
    events = make_absolute_stream(40, box1, noise=0.3, seed=3)

    def one_run():
        cfg = _cfg(algo, box1, 40, regularizer=reg, alpha=0.5 if algo == "baseline-ons" else None)
        learner = ar.build_learner(cfg)
        recs = ar.run(learner, events)
        return np.stack([r.w for r in recs]), learner.meta_log

    traj1, log1 = one_run()
    traj2, log2 = one_run()
    assert np.array_equal(traj1, traj2)
    assert [(r.start, r.end, r.tag, r.lhs, r.rhs) for r in log1] == [
        (r.start, r.end, r.tag, r.lhs, r.rhs) for r in log2
    ]


def test_zero_loss_stream_stays_at_center(box1):
    # [TRIVIAL] with identically-zero gradients nothing moves and every
    # normalized loss is exactly 1/2, so potentials never change.
    events = _zero_stream(32, 1)
    learner = ar.build_learner(_cfg("uma2-surrogate", box1, 32))
    for ev in events:
        rec = learner.run_round(ev)
        assert np.all(rec.w == 0.0)
        assert rec.meta_loss == pytest.approx(0.5, abs=1e-15)
        # untouched potentials make the meta weights exactly uniform
        assert np.allclose(learner.meta.weights, 1.0 / rec.live_experts, atol=1e-15)
    learner.finish()
    for row in learner.meta_log:
        assert row.lhs == pytest.approx(0.0, abs=1e-12)
        assert row.sq_dev == pytest.approx(0.0, abs=1e-15)


def test_zero_loss_composite_stays_at_center(box1):
    events = _zero_stream(16, 1)
    cfg = _cfg("uma-comp", box1, 16, regularizer=ar.Regularizer("l1", 0.1))
    learner = ar.build_learner(cfg)
    recs = ar.run(learner, events)
    for rec in recs:
        assert np.all(rec.w == 0.0)
        assert rec.optimism_residual <= learner.fp_tol


@pytest.mark.parametrize("algo", ar.ONE_GRADIENT_ALGORITHMS)
def test_one_gradient_per_round(algo, box1):
    reg = ar.Regularizer("l1", 0.05) if "comp" in algo else ar.Regularizer()
    events = make_absolute_stream(50, box1, noise=0.25, seed=1)
    learner = ar.build_learner(_cfg(algo, box1, 50, regularizer=reg))
    recs = ar.run(learner, events)
    assert learner.grad_evals == 50
    assert [r.grad_evals for r in recs] == list(range(1, 51))


def test_grid_learner_uses_many_gradients(box1):
    events = make_absolute_stream(20, box1, noise=0.25, seed=1)
    learner = ar.build_learner(_cfg("uma2-grid", box1, 20))
    ar.run(learner, events)
    assert learner.grad_evals > 20


def test_live_expert_counts_small_horizon(box1):
    # [DERIVED] per-interval expert count is 2 * |eta grid(length)|; the live
    # total at round t sums over the GC intervals containing t.
    events = _zero_stream(8, 1)
    learner = ar.build_learner(_cfg("uma2-surrogate", box1, 8))
    recs = ar.run(learner, events)

    def experts_at(t):
        total = 0
        for iv in ar.intervals_containing(t):
            top = math.ceil(0.5 * math.log2(iv.length)) if iv.length > 1 else 0
            total += 2 * (top + 1)
        return total

    for rec in recs:
        assert rec.live_experts == experts_at(rec.t)
        assert rec.alive_intervals == len(ar.intervals_containing(rec.t))
    assert recs[0].live_experts == 2
    assert recs[1].live_experts == 6


def test_meta_log_certificates_hold(box1):
    events = make_absolute_stream(96, box1, noise=0.4, seed=7)
    learner = ar.build_learner(_cfg("uma2-surrogate", box1, 96))
    ar.run(learner, events)
    assert learner.meta_log  # non-empty after finish()
    assert learner.created == len(learner.meta_log)
    for row in learner.meta_log:
        assert row.lhs <= row.rhs + 1e-9
        assert row.s_eff <= 96
        assert 1 <= row.start <= row.s_eff
        rhs = ar.meta_lemma_rhs(
            ar.gamma_for_end(row.end), row.n_created, row.s_eff, row.sq_dev
        )
        assert row.rhs == pytest.approx(rhs, rel=1e-12)


def test_finish_flushes_open_cohorts(box1):
    events = make_absolute_stream(6, box1, noise=0.3, seed=2)
    learner = ar.build_learner(_cfg("uma3", box1, 6))
    ar.run(learner, events)
    # one universal expert per GC interval born by t=6: [1,1],[2,2],...,[6,6]
    # plus [2,3],[4,5],[6,7] and [4,7]; those still alive are logged at s_eff=6
    logged = {(r.start, r.end) for r in learner.meta_log}
    assert logged == {
        (iv.start, iv.end) for t in range(1, 7) for iv in ar.intervals_containing(t)
    }
    open_rows = [r for r in learner.meta_log if r.end > 6]
    assert open_rows and all(r.s_eff == 6 for r in open_rows)


def test_baselines_have_empty_meta_log(box1):
    events = make_absolute_stream(10, box1, seed=0)
    for algo in ("baseline-ogd", "baseline-ons", "baseline-fobos"):
        learner = ar.build_learner(
            _cfg(algo, box1, 10, alpha=0.5 if algo == "baseline-ons" else None)
        )
        ar.run(learner, events)
        assert learner.meta_log == []


def test_baseline_ogd_matches_direct_recursion(box1):
    events = make_absolute_stream(30, box1, noise=0.35, seed=9)
    learner = ar.build_learner(_cfg("baseline-ogd", box1, 30))
    recs = ar.run(learner, events)
    # [DERIVED] independent recursion: w <- clip(w - (D/(G sqrt t)) grad)
    w = np.zeros(1)
    for t, (loss, rec) in enumerate(zip(events, recs), start=1):
        assert np.array_equal(rec.w, w)
        w = np.clip(w - (2.0 / math.sqrt(t)) * loss.grad(w), -1.0, 1.0)


@pytest.mark.parametrize("algo", ("ums-comp", "uma-comp"))
def test_composite_residual_and_identity(algo, box1):
    events = make_absolute_stream(64, box1, noise=0.3, seed=4)
    cfg = _cfg(algo, box1, 64, regularizer=ar.Regularizer("l1", 0.1))
    learner = ar.build_learner(cfg)
    recs = ar.run(learner, events)
    tol = 1.0 / 64
    assert 0.0 < learner.max_fixed_point_residual <= tol
    assert learner.max_identity_gap <= 10.0 * tol
    for rec in recs:
        assert rec.optimism_residual is not None and rec.optimism_residual <= tol
        assert rec.optimism_gamma is not None


def test_composite_fixed_point_tol_override(box1):
    events = make_absolute_stream(16, box1, noise=0.3, seed=4)
    cfg = _cfg(
        "ums-comp",
        box1,
        16,
        regularizer=ar.Regularizer("l1", 0.1),
        fixed_point_tol=1e-8,
    )
    learner = ar.build_learner(cfg)
    ar.run(learner, events)
    assert learner.max_fixed_point_residual <= 1e-8


def test_universal_expert_usage_errors(box1):
    # the aggregator behind every nesting level guards its point/update order
    exp = ar.algorithms.UniversalExpert(box1, 1.0, lifetime=8)
    with pytest.raises(ar.UsageError):
        exp.update(np.zeros(1), np.zeros(1), 1)
    exp.point()
    with pytest.raises(ar.UsageError):
        exp.point()
    meta = ar.algorithms.MetaAggregator(box1, 1.0)
    slots = ar.MetaSlots([ar.MetaSlot(gamma=1.0, end=8, born=1) for _ in range(2)])
    with pytest.raises(ar.UsageError):
        meta.update(np.zeros(1))
    meta.point(slots, np.zeros((2, 1)))
    with pytest.raises(ar.UsageError):
        meta.point(slots, np.zeros((2, 1)))
    meta.update(np.zeros(1))
    meta.point(slots, np.zeros((2, 1)))


@pytest.mark.parametrize("check", (True, False))
def test_aggregator_checks_run_where_enabled(box1, check):
    # the played-point checks run at the outermost level only; the inner
    # ensembles still record their identity gaps without raising
    pts = np.array([[-0.5], [0.5]])
    reg = ar.Regularizer("l1", 0.1)
    for kind, name in ((None, "meta-loss-center"), (reg, "composite-deviation-identity")):
        meta = ar.algorithms.MetaAggregator(box1, 1.0, kind, fp_tol=1e-3, check=check)
        meta.point(ar.MetaSlots([ar.MetaSlot(gamma=1.0, end=8, born=1) for _ in pts]), pts)
        if kind is None:
            meta.w = meta.w + 0.5  # not the weighted average: meta loss 3/8
        else:
            meta.hints = np.array([0.5, -0.5])  # hints off the fixed point
        if check:
            with pytest.raises(ar.InvariantViolation) as exc:
                meta.update(np.array([1.0]))
            assert exc.value.name == name
        else:
            meta.update(np.array([1.0]))
    assert meta.max_identity_gap == pytest.approx(0.5)
    on = ar.build_learner(_cfg("uma-comp", box1, 8, regularizer=reg, check_invariants=check))
    assert on.meta.check is check
    assert not on._build(ar.GCInterval(1, 8, 3))[0].meta.check
    assert not ar.algorithms.UniversalExpert(box1, 1.0, 8).meta.check


class _SkewedPoints(np.ndarray):
    """Expert points whose p @ pts is off the weighted average by 1e-9."""

    def __rmatmul__(self, other):
        return np.asarray(other @ np.asarray(self)) + 1e-9


def test_aggregation_check_rejects_a_played_point_off_the_average(box1):
    pts = np.array([[-0.5], [0.5]])
    slots = ar.MetaSlots([ar.MetaSlot(gamma=1.0, end=8, born=1) for _ in pts])
    ar.algorithms.MetaAggregator(box1, 1.0, check=True).point(slots, pts)
    meta = ar.algorithms.MetaAggregator(box1, 1.0, check=True)
    with pytest.raises(ar.InvariantViolation) as exc:
        meta.point(slots, pts.view(_SkewedPoints))
    assert exc.value.name == "aggregation"
    # the learners check by default
    learner = ar.build_learner(_cfg("uma2-surrogate", box1, 8))
    assert learner.meta.check


def test_weight_simplex_check_rejects_weights_off_the_simplex(box1, monkeypatch):
    pts = np.array([[-0.5], [0.5]])
    slots = ar.MetaSlots([ar.MetaSlot(gamma=1.0, end=8, born=1) for _ in pts])

    def off_simplex(slots):
        return np.full(len(slots), 0.5 + 1e-9)

    monkeypatch.setattr(ar.algorithms, "amlp_weights", off_simplex)
    with pytest.raises(ar.InvariantViolation) as exc:
        ar.algorithms.MetaAggregator(box1, 1.0, check=True).point(slots, pts)
    assert exc.value.name == "weight-simplex"


def test_invariant_checks_can_be_disabled(box1):
    # same trajectory with and without runtime checking
    events = make_absolute_stream(24, box1, noise=0.3, seed=8)
    on = ar.build_learner(_cfg("uma2-surrogate", box1, 24, check_invariants=True))
    off = ar.build_learner(_cfg("uma2-surrogate", box1, 24, check_invariants=False))
    r_on = ar.run(on, events)
    r_off = ar.run(off, events)
    assert np.array_equal(
        np.stack([r.w for r in r_on]), np.stack([r.w for r in r_off])
    )


def test_gradient_bound_invariant_trips(box1):
    big = [ar.LossSpec("linear", {"g": np.array([5.0])}, gradient_bound=5.0)]
    learner = ar.build_learner(_cfg("baseline-ogd", box1, 1))
    with pytest.raises(ar.InvariantViolation) as exc:
        ar.run(learner, big)
    assert exc.value.name == "gradient-bound"
