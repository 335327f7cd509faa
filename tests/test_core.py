"""Domain geometry, regularizers, loss specs, and validation helpers."""
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import adaregret as ar
from adaregret.core import InputError, check_loss_on_domain, exp_concave_beta, fd_gradient


# ---------------------------------------------------------------------------
# Domains


def test_ball_projection_properties(rng):
    dom = ar.Domain.ball(np.array([0.5, -0.25, 0.0]), 0.8)
    for _ in range(1000):
        x = rng.normal(scale=3.0, size=3)
        p = dom.project(x)
        assert dom.contains(p)
        # idempotent
        assert np.allclose(dom.project(p), p, atol=1e-12)
        # variational inequality: <x - p, w - p> <= 0 for feasible w
        w = dom.sample(rng)
        assert float(np.dot(x - p, w - p)) <= 1e-9


def test_box_projection_matches_clip(rng):
    lo = np.array([-1.0, 0.0, -2.0])
    hi = np.array([1.0, 0.5, -1.0])
    dom = ar.Domain.box(lo, hi)
    for _ in range(1000):
        x = rng.normal(scale=3.0, size=3)
        assert np.array_equal(dom.project(x), np.clip(x, lo, hi))


def test_domain_metrics():
    ball = ar.Domain.ball(np.array([1.0, 1.0]), 0.5)
    assert ball.diameter == pytest.approx(1.0)
    assert ball.max_norm() == pytest.approx(math.sqrt(2.0) + 0.5)
    box = ar.Domain.box(np.array([-1.0, -2.0]), np.array([1.0, 2.0]))
    assert box.diameter == pytest.approx(math.sqrt(4 + 16))
    assert box.max_norm() == pytest.approx(math.sqrt(1 + 4))


def test_domain_sample_feasible(rng, ball2):
    box = ar.Domain.box(np.array([-1.0, 0.5]), np.array([2.0, 0.75]))
    for _ in range(200):
        assert ball2.contains(ball2.sample(rng))
        assert box.contains(box.sample(rng))


def test_domain_input_validation():
    with pytest.raises(InputError):
        ar.Domain.ball(np.zeros(2), -1.0)
    with pytest.raises(InputError):
        ar.Domain.box(np.array([1.0]), np.array([0.0]))


def test_domain_equality_and_hash_follow_contents():
    ball = ar.Domain.ball(np.array([0.3, -0.2]), 0.5)
    box = ar.Domain.box(np.array([-1.0, 0.0]), np.array([1.0, 0.5]))
    for dom in (ball, box):
        twin = pickle.loads(pickle.dumps(dom))
        assert twin == dom and hash(twin) == hash(dom)
    others = [
        ar.Domain.ball(np.array([0.3, -0.2]), 0.6),
        ar.Domain.ball(np.array([0.3, 0.2]), 0.5),
        ar.Domain.ball(np.array([0.3, -0.2, 0.0]), 0.5),
        ar.Domain.box(np.array([-1.0, 0.0]), np.array([1.0, 0.75])),
        ar.Domain.box(np.array([-1.0]), np.array([1.0])),
    ]
    for dom in others:
        assert dom != ball and dom != box
    assert ball != box and ball != "ball"
    assert len({ball, box, *others, pickle.loads(pickle.dumps(box))}) == 7


@pytest.mark.parametrize("d", [1, 2, 5])
def test_row_maps_match_per_row_calls(d):
    # the stacked maps return, row for row, the bits of the one-vector calls
    rng = np.random.default_rng(d)
    X = rng.normal(scale=1.5, size=(60, d)) * 10.0 ** rng.uniform(-2, 1, size=(60, 1))
    y = rng.normal(size=d)
    assert np.array_equal(ar.core.row_dots(X, y), [np.dot(y, x) for x in X])
    assert np.array_equal(ar.core.row_dots(X, X), [np.dot(x, x) for x in X])
    for dom in (
        ar.Domain.box(-0.5 * np.ones(d), np.linspace(0.2, 0.9, d)),
        ar.Domain.ball(np.zeros(d), 0.7),
        ar.Domain.ball(rng.uniform(-0.5, 0.5, size=d), 0.4),
    ):
        Xd = np.concatenate([X, dom.project_rows(X), dom.project_rows(X) * (1.0 + 5e-10)])
        assert np.array_equal(dom.project_rows(Xd), np.stack([dom.project(x) for x in Xd]))
        assert np.array_equal(dom.contains_rows(Xd), [dom.contains(x) for x in Xd])
    scale = rng.uniform(0.01, 2.0, size=X.shape[0])
    for reg in (ar.Regularizer(), ar.Regularizer("l1", 0.3), ar.Regularizer("squared-l2", 0.4)):
        want = np.stack([reg.prox(x, s) for x, s in zip(X, scale)])
        assert np.array_equal(reg.prox_rows(X, scale), want)
        assert np.array_equal(reg.value_rows(X), [reg.value(x) for x in X])


def _one_vector_grad(loss, v):
    # [DERIVED] the one-vector gradient that LossSpec.grad computed before it
    # became a one-row call of grad_rows, transcribed
    p = loss.params
    if loss.family == "linear":
        return np.array(p["g"], dtype=float)
    if loss.family == "absolute":
        return float(np.sign(np.dot(p["x"], v) - p["y"])) * p["x"]
    if loss.family == "quadratic":
        return p["lam"] * (v - p["u"]) + p["b"]
    if loss.family == "squared-prediction":
        return 2.0 * (float(np.dot(p["x"], v)) - p["y"]) * p["x"]
    margin = -p["y"] * float(np.dot(p["x"], v))
    return (-p["y"] * (1.0 / (1.0 + np.exp(-margin)))) * p["x"]


def _random_loss(rng, family, d):
    x = rng.normal(size=d) * 10.0 ** rng.uniform(-1, 1)
    if family == "linear":
        return ar.LossSpec("linear", {"g": rng.normal(size=d)})
    if family == "quadratic":
        params = {"u": rng.normal(size=d), "lam": float(rng.uniform(0.1, 3.0)), "b": rng.normal(size=d)}
        return ar.LossSpec("quadratic", params)
    y = float(rng.choice([-1.0, 1.0])) if family == "log-like" else float(rng.normal())
    return ar.LossSpec(family, {"x": x, "y": y})


@pytest.mark.parametrize("family", ar.core.LOSS_FAMILIES)
@pytest.mark.parametrize("d", [1, 2, 5])
def test_row_gradients_match_one_vector_gradients(family, d):
    # grad_rows returns, row for row, the bits of the one-vector gradient, and
    # row_norms (the gradient-bound check's norm) those of np.linalg.norm
    rng = np.random.default_rng(10 * d + len(family))
    for _ in range(40):
        loss = _random_loss(rng, family, d)
        W = rng.normal(size=(30, d)) * 10.0 ** rng.uniform(-2, 1, size=(30, 1))
        got = loss.grad_rows(W)
        want = np.stack([_one_vector_grad(loss, w) for w in W])
        assert np.array_equal(got, want)
        assert np.array_equal(np.stack([loss.grad(w) for w in W]), want)
        assert np.array_equal(ar.core.row_norms(got), [np.linalg.norm(g) for g in want])


# ---------------------------------------------------------------------------
# Regularizers


def _prox_grid_oracle(reg, x, scale):
    # [DERIVED] dense scalar grid search of 0.5 (z-x)^2 + scale * r(z)
    zs = np.arange(-3.0, 3.0, 1e-4)
    vals = 0.5 * (zs - x) ** 2 + scale * np.array(
        [reg.value(np.array([z])) for z in zs]
    )
    return zs[int(np.argmin(vals))]


@pytest.mark.parametrize("kind,weight", [("l1", 0.3), ("squared-l2", 0.4)])
def test_prox_matches_grid_oracle(kind, weight, rng):
    reg = ar.Regularizer(kind, weight)
    for _ in range(25):
        x = float(rng.uniform(-2, 2))
        scale = float(rng.uniform(0.05, 2.0))
        got = reg.prox(np.array([x]), scale)[0]
        want = _prox_grid_oracle(reg, x, scale)
        assert abs(got - want) <= 1e-3  # grid resolution


def test_l1_prox_soft_threshold():
    reg = ar.Regularizer("l1", 0.5)
    x = np.array([2.0, -0.2, 0.6, -3.0])
    # [TRIVIAL] soft-thresholding with threshold scale*weight = 1.0
    assert np.allclose(reg.prox(x, 2.0), [1.0, 0.0, 0.0, -2.0])


def test_sql2_prox_closed_form():
    reg = ar.Regularizer("squared-l2", 0.25)
    x = np.array([1.0, -2.0])
    # [TRIVIAL] argmin 0.5||z-x||^2 + s*mu*||z||^2 = x / (1 + 2 s mu)
    assert np.allclose(reg.prox(x, 2.0), x / 2.0)


def test_prox_subgradient_optimality(rng):
    # z* = prox(x) must satisfy 0 in z* - x + scale * d r(z*)
    reg = ar.Regularizer("l1", 0.7)
    for _ in range(100):
        x = rng.uniform(-2, 2, size=3)
        s = float(rng.uniform(0.1, 1.5))
        z = reg.prox(x, s)
        for j in range(3):
            if z[j] > 0:
                assert z[j] - x[j] + s * 0.7 == pytest.approx(0.0, abs=1e-9)
            elif z[j] < 0:
                assert z[j] - x[j] - s * 0.7 == pytest.approx(0.0, abs=1e-9)
            else:
                assert abs(x[j]) <= s * 0.7 + 1e-9


@given(
    x=st.floats(-10, 10),
    y=st.floats(-10, 10),
    s=st.floats(0.01, 5.0),
)
@settings(max_examples=200, deadline=None)
def test_prox_nonexpansive(x, y, s):
    reg = ar.Regularizer("l1", 0.5)
    px = reg.prox(np.array([x]), s)
    py = reg.prox(np.array([y]), s)
    assert abs(px[0] - py[0]) <= abs(x - y) + 1e-12


def test_regularizer_bound_on():
    ball = ar.Domain.ball(np.array([1.0, 0.0]), 2.0)
    box = ar.Domain.box(np.array([-1.0, -0.5]), np.array([0.25, 2.0]))
    l1 = ar.Regularizer("l1", 0.5)
    # [TRIVIAL] sup ||w||_1 over ball <= ||c||_1 + R sqrt(d)
    assert l1.bound_on(ball) == pytest.approx(0.5 * (1.0 + 2.0 * math.sqrt(2)))
    assert l1.bound_on(box) == pytest.approx(0.5 * (1.0 + 2.0))
    sq = ar.Regularizer("squared-l2", 0.3)
    assert sq.bound_on(ball) == pytest.approx(0.3 * 3.0**2)
    assert ar.Regularizer().bound_on(ball) == 0.0


def test_regularizer_values_nonnegative(rng, ball2):
    for kind, w in (("none", 0.0), ("l1", 0.4), ("squared-l2", 0.2)):
        reg = ar.Regularizer(kind, w)
        for _ in range(50):
            assert reg.value(ball2.sample(rng)) >= 0.0


# ---------------------------------------------------------------------------
# Loss specs


def _spec_examples():
    return [
        ar.LossSpec("linear", {"g": np.array([0.3, -0.2])}, "convex", None, 1.0),
        ar.LossSpec(
            "absolute", {"x": np.array([0.5, 0.1]), "y": 0.2}, "convex", None, 1.0
        ),
        ar.LossSpec(
            "quadratic",
            {"u": np.array([0.2, -0.1]), "lam": 0.8, "b": np.array([0.05, 0.0])},
            "strongly-convex",
            0.8,
            3.0,
        ),
        ar.LossSpec(
            "squared-prediction",
            {"x": np.array([0.4, -0.3]), "y": 0.1},
            "exp-concave",
            0.3,
            2.0,
        ),
        ar.LossSpec(
            "log-like", {"x": np.array([0.6, 0.2]), "y": 1.0}, "convex", None, 1.0
        ),
    ]


def test_grad_matches_finite_differences(rng):
    for spec in _spec_examples():
        for _ in range(20):
            w = rng.uniform(-0.9, 0.9, size=2)
            if spec.family == "absolute":
                # stay away from the kink
                if abs(float(np.dot(spec.params["x"], w)) - spec.params["y"]) < 1e-3:
                    continue
            g = spec.grad(w)
            g_fd = fd_gradient(spec.value, w)
            assert np.allclose(g, g_fd, rtol=1e-5, atol=1e-6), spec.family


def test_loss_values_hand_checked():
    # [TRIVIAL] direct arithmetic
    lin = ar.LossSpec("linear", {"g": np.array([2.0, -1.0])}, "convex", None, 3.0)
    assert lin.value(np.array([0.5, 1.0])) == pytest.approx(0.0)
    quad = ar.LossSpec(
        "quadratic",
        {"u": np.zeros(1), "lam": 2.0, "b": np.array([1.0])},
        "strongly-convex",
        2.0,
        3.0,
    )
    assert quad.value(np.array([2.0])) == pytest.approx(0.5 * 2 * 4 + 2.0)
    sq = ar.LossSpec(
        "squared-prediction", {"x": np.array([1.0]), "y": 0.5}, "exp-concave", 0.1, 4.0
    )
    assert sq.value(np.array([2.0])) == pytest.approx(2.25)


def test_exp_concave_beta_examples():
    # [DERIVED] beta = 0.5 * min(1/(4GD), alpha)
    assert exp_concave_beta(1.0, 1.0, 1.0) == pytest.approx(0.125)
    assert exp_concave_beta(1.0, 1.0, 0.1) == pytest.approx(0.05)
    assert exp_concave_beta(2.0, 2.0, 10.0) == pytest.approx(0.03125)


def test_check_loss_accepts_valid(rng, ball2):
    spec = ar.LossSpec(
        "squared-prediction",
        {"x": np.array([0.4, -0.3]), "y": 0.1},
        "exp-concave",
        0.2,
        4.0,
    )
    check_loss_on_domain(spec, ball2, rng, samples=50)


def test_check_loss_rejects_bad_gradient_bound(rng, ball2):
    spec = ar.LossSpec("linear", {"g": np.array([3.0, 0.0])}, "convex", None, 1.0)
    with pytest.raises(ar.InvariantViolation):
        check_loss_on_domain(spec, ball2, rng, samples=20)


def test_check_loss_rejects_overdeclared_curvature(rng, ball2):
    spec = ar.LossSpec(
        "quadratic",
        {"u": np.zeros(2), "lam": 0.1, "b": np.zeros(2)},
        "strongly-convex",
        5.0,  # declared way above the true 0.1
        1.0,
    )
    with pytest.raises(ar.InvariantViolation):
        check_loss_on_domain(spec, ball2, rng, samples=20)


def test_loss_spec_validation():
    with pytest.raises(InputError):
        ar.LossSpec("nope", {}, "convex", None, 1.0)
    with pytest.raises(InputError):
        ar.LossSpec("linear", {"g": np.zeros(1)}, "exp-concave", None, 1.0)
