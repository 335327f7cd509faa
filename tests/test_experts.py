"""Base experts: gradient steps, Newton-style updates, proximal composites,
and the surrogate-loss calculus they rely on."""
import math

import numpy as np
import pytest
from scipy.optimize import minimize

import adaregret as ar
from adaregret.core import fd_gradient, fd_hessian
from adaregret.experts import (
    SURROGATE_GAMMA,
    OGDStronglyConvex,
    ONSExpert,
    ProxGradExpert,
    SurrogateStack,
    _prox_onto_ball,
    a_norm_project,
    eta_grid,
    prox_onto,
    prox_quadratic_argmin,
    surrogate_exp_eval,
    surrogate_sc_eval,
)
from adaregret.harness import _WindowEval
from adaregret.meta import (
    amlp_update,
    amlp_weights,
    normalized_loss,
    oamlp_update,
    oamlp_weights,
    optimism_fixed_point,
)
from tests.conftest import aggregate_quadratic


# ---------------------------------------------------------------------------
# Step-size schedules and simple experts


def test_ogd_fixed_single_step(box1):
    # [TRIVIAL] w1 = project(w0 - (D / (G sqrt(L))) g)
    exp = ProxGradExpert(box1, G=1.0, step=box1.diameter / (1.0 * math.sqrt(16)))
    assert exp.point() == pytest.approx([0.0])
    exp.update(np.array([1.0]), exp.point(), 1)
    assert exp.point() == pytest.approx([-2.0 / 4.0])


def test_ogd_diminishing_steps(box1):
    exp = ProxGradExpert(box1, G=2.0)
    w = 0.0
    for t in range(1, 6):
        g = 0.5 if t % 2 else -0.25
        exp.update(np.array([g]), exp.point(), t)
        w = float(np.clip(w - (2.0 / (2.0 * math.sqrt(t))) * g, -1.0, 1.0))
        assert exp.point() == pytest.approx([w], abs=1e-15)


def test_ogd_strongly_convex_steps(box1):
    lam = 0.5
    exp = OGDStronglyConvex(box1, moduli=lam)
    w = 0.0
    for t in range(1, 6):
        g = 0.3
        exp.update(np.array([g]), exp.point(), t)
        w = float(np.clip(w - g / (lam * t), -1.0, 1.0))
        assert exp.point() == pytest.approx([w], abs=1e-15)


def test_ons_hand_example(box1):
    # [DERIVED] eps = 1/(gamma^2 D^2) = 16; A after one step = 17;
    # w1 = 0 - (1/17)/0.125 = -8/17, feasible so projection is identity.
    ons = ONSExpert(box1, curvatures=0.125)
    ons.update(np.array([1.0]), ons.point(), 1)
    assert ons.point() == pytest.approx([-8.0 / 17.0], abs=1e-12)


def test_ons_projection_engages(rng):
    dom = ar.Domain.ball(np.zeros(2), 0.25)
    ons = ONSExpert(dom, curvatures=0.5)
    for _ in range(20):
        g = rng.uniform(-1, 1, size=2)
        ons.update(g, ons.point(), 1)
        assert dom.contains(ons.point())


def test_a_norm_projection_against_scipy(rng):
    dom = ar.Domain.ball(np.zeros(2), 0.5)
    for _ in range(10):
        m = rng.uniform(-1, 1, size=(2, 2))
        A = m @ m.T + 0.5 * np.eye(2)
        target = rng.uniform(-2, 2, size=2)
        got = a_norm_project(dom, A, target)
        # [DERIVED] direct constrained minimization of the A-norm distance
        res = minimize(
            lambda z: float((z - target) @ A @ (z - target)),
            x0=np.zeros(2),
            constraints=[{"type": "ineq", "fun": lambda z: 0.25 - float(z @ z)}],
        )
        assert float((got - target) @ A @ (got - target)) <= res.fun + 1e-6


def _quadratic_model_instance(rng, d, kind, reg_kind, curvature):
    """A random prox-ONS step: A = eps I + a few g g^T, a feasible w_ref and a
    linear term large enough to put some minima on the boundary."""
    if kind == "ball":
        dom = ar.Domain.ball(rng.uniform(-0.2, 0.2, size=d), 0.8)
    else:
        lo = rng.uniform(-1.0, -0.3, size=d)
        dom = ar.Domain.box(lo, lo + rng.uniform(0.5, 1.5, size=d))
    A = np.eye(d) / (curvature**2 * dom.diameter**2)
    for _ in range(int(rng.integers(1, 2 * d))):
        g = rng.uniform(-1, 1, size=d)
        A += np.outer(g, g)
    w_ref = dom.project(rng.uniform(-1, 1, size=d))
    lin = rng.uniform(-1, 1, size=d) * float(rng.choice([0.05, 0.5, 2.0]))
    reg = ar.Regularizer() if reg_kind == "none" else ar.Regularizer(reg_kind, 0.3)
    return dom, A, w_ref, lin, reg, float(rng.uniform(0.05, 1.0))


def _slsqp_quadratic_model(dom, A, curvature, w_ref, lin, reg, scale):
    """[DERIVED] SLSQP on the epigraph form: an l1 term becomes t >= |z|."""
    from scipy.optimize import minimize

    d = dom.dim
    k = d if reg.kind == "l1" else 0
    weight = scale * reg.weight

    def smooth(z):
        return float(lin @ z + 0.5 * curvature * (z - w_ref) @ A @ (z - w_ref))

    def f(v):
        z, t = v[:d], v[d:]
        extra = weight * float(z @ z) if reg.kind == "squared-l2" else weight * float(np.sum(t))
        return smooth(z) + extra

    def jac(v):
        z = v[:d]
        gz = lin + curvature * (A @ (z - w_ref))
        if reg.kind == "squared-l2":
            gz = gz + 2.0 * weight * z
        return np.concatenate([gz, np.full(k, weight)])

    cons = []
    if k:
        cons.append({"type": "ineq", "fun": lambda v: np.concatenate([v[d:] - v[:d], v[d:] + v[:d]])})
    if dom.kind == "ball":
        c, r = dom.center_, dom.radius
        cons.append({"type": "ineq", "fun": lambda v: r * r - float((v[:d] - c) @ (v[:d] - c))})
        bounds = None
    else:
        bounds = [(dom.lower[i], dom.upper[i]) for i in range(d)] + [(None, None)] * k
    x0 = np.concatenate([w_ref, np.abs(w_ref)[:k]])
    res = minimize(f, x0, jac=jac, constraints=cons, bounds=bounds, method="SLSQP",
                   options={"ftol": 1e-15, "maxiter": 1000})
    return dom.project(res.x[:d])


def _model_value(A, curvature, w_ref, lin, reg, scale, z):
    return float(lin @ z + 0.5 * curvature * (z - w_ref) @ A @ (z - w_ref)) + scale * reg.value(z)


@pytest.mark.parametrize("reg_kind", ["none", "l1", "squared-l2"])
@pytest.mark.parametrize("kind", ["ball", "box"])
@pytest.mark.parametrize("d", [2, 5])
@pytest.mark.parametrize("curvature", [5.0 / 16.0, 1.0, 2.5, 4.0])
def test_prox_quadratic_argmin_matches_slsqp(curvature, d, kind, reg_kind):
    # [DERIVED] the d >= 2 solver's objective is no worse than an SLSQP
    # epigraph solve of the same model. The step 1/(curvature lambda_max(A))
    # keeps curvature > 2 convergent, where a step 1/lambda_max(A) overshoots.
    rng = np.random.default_rng(int(curvature * 16) * 100 + d * 10 + len(kind + reg_kind))
    for _ in range(4):
        dom, A, w_ref, lin, reg, scale = _quadratic_model_instance(rng, d, kind, reg_kind, curvature)
        got = prox_quadratic_argmin(dom, A, curvature, w_ref, lin, reg, scale)
        ref = _slsqp_quadratic_model(dom, A, curvature, w_ref, lin, reg, scale)
        assert dom.contains(got)
        v_got = _model_value(A, curvature, w_ref, lin, reg, scale, got)
        v_ref = _model_value(A, curvature, w_ref, lin, reg, scale, ref)
        assert v_got <= v_ref + 1e-8 * (1.0 + abs(v_ref))


@pytest.mark.parametrize("reg", [ar.Regularizer(), ar.Regularizer("l1", 0.2)], ids=["none", "l1"])
def test_prox_quadratic_argmin_step_is_one_over_l(reg):
    # [DERIVED] with A = c I the smooth part's gradient is (curvature c)-Lipschitz;
    # one step of length 1/(curvature c) from w_ref lands on the exact
    # (interior) minimizer prox(w_ref - lin/(curvature c), scale/(curvature c)),
    # and the second step stops, so two steps suffice.
    dom = ar.Domain.ball(np.zeros(3), 1.0)
    c, curvature, scale = 4.0, 5.0 / 16.0, 0.1
    w_ref = np.array([0.1, -0.2, 0.05])
    lin = np.array([0.1, 0.05, -0.08])
    got = prox_quadratic_argmin(dom, c * np.eye(3), curvature, w_ref, lin, reg, scale, cap=2)
    want = reg.prox(w_ref - lin / (curvature * c), scale / (curvature * c))
    assert float(np.linalg.norm(want)) < 1.0
    assert np.allclose(got, want, rtol=0.0, atol=1e-14)


def _old_a_norm_project(domain, A, target, tol=1e-9, cap=10_000):
    # [REFERENCE] the previous A-norm projection, transcribed verbatim
    if domain.contains(target):
        return np.array(target, dtype=float)
    lam_max = float(np.linalg.eigvalsh(A)[-1])
    step = 1.0 / lam_max
    z = domain.project(target)
    for _ in range(cap):
        z_new = domain.project(z - step * (A @ (z - target)))
        move = float(np.linalg.norm(z_new - z))
        z = z_new
        if move <= tol:
            return z
    raise ar.ConvergenceError("A-norm projection did not converge", residual=move)


def _old_prox_gradient_quadratic(domain, A, b, reg, reg_count, start, tol=1e-12, cap=200_000):
    # [REFERENCE] the previous comparator solver, transcribed verbatim
    lam_max = float(np.linalg.eigvalsh(A)[-1])
    if lam_max <= 0.0:
        return start
    step = 1.0 / lam_max
    z = np.array(start, dtype=float)
    for _ in range(cap):
        grad = A @ z + b
        z_new = domain.project(reg.prox(z - step * grad, step * reg_count))
        move = float(np.linalg.norm(z_new - z))
        z = z_new
        if move <= tol:
            return z
    raise ar.ConvergenceError("comparator quadratic solve did not converge", residual=move)


def _random_domain(rng, d, kind):
    if kind == "ball":
        return ar.Domain.ball(rng.uniform(-0.3, 0.3, size=d), float(rng.uniform(0.3, 1.0)))
    lo = rng.uniform(-1.0, 0.0, size=d)
    return ar.Domain.box(lo, lo + rng.uniform(0.2, 1.5, size=d))


@pytest.mark.parametrize("kind", ["ball", "box"])
@pytest.mark.parametrize("d", [2, 3, 5])
def test_a_norm_project_bits_match_previous_loop(d, kind):
    # [DERIVED] the shared loop called with lin = 0, curvature = 1 and
    # w_ref = target repeats the previous projection's arithmetic exactly
    rng = np.random.default_rng(d * 7 + len(kind))
    for _ in range(25):
        dom = _random_domain(rng, d, kind)
        A = np.eye(d) * float(rng.uniform(0.01, 1.0))
        for _ in range(int(rng.integers(1, 3 * d))):
            g = rng.uniform(-1, 1, size=d)
            A += np.outer(g, g)
        target = rng.uniform(-2.0, 2.0, size=d)
        got = a_norm_project(dom, A, target)
        assert np.array_equal(got, _old_a_norm_project(dom, A, target))


@pytest.mark.parametrize("kind", ["ball", "box"])
@pytest.mark.parametrize("d", [2, 3, 5])
def test_quadratic_comparator_bits_match_previous_loop(d, kind):
    # [DERIVED] windows that reach the comparator's proximal gradient (an l1
    # term, or a minimizer off the domain) return the previous solver's point
    # and value exactly. With an l1 term the balls are centred at the origin:
    # on another ball project(prox(x)) is not the prox onto the ball, so the
    # previous loop stopped short of the minimum there (see
    # tests/test_harness.py::test_quadratic_comparator_l1_off_centre_ball).
    rng = np.random.default_rng(d * 11 + len(kind))
    for trial in range(12):
        dom = _random_domain(rng, d, kind)
        l1 = trial % 2 == 0
        if l1 and kind == "ball":
            dom = ar.Domain.ball(np.zeros(d), dom.radius)
        reg = ar.Regularizer("l1", float(rng.uniform(0.01, 0.3))) if l1 else ar.Regularizer()
        events = []
        for _ in range(int(rng.integers(d, 3 * d))):
            x = rng.uniform(-1, 1, size=d)
            y = float(rng.uniform(-1, 1)) + float(x @ rng.uniform(-3, 3, size=d))
            events.append(ar.LossSpec("squared-prediction", {"x": x, "y": y}))
        events.append(ar.LossSpec("linear", {"g": rng.uniform(-1, 1, size=d)}))
        A, b = aggregate_quadratic(events, d)
        if not l1 and dom.contains(np.linalg.solve(A, -b)):
            continue
        w_old = _old_prox_gradient_quadratic(
            dom, A, b, reg if l1 else ar.Regularizer(), float(len(events)), dom.project(dom.center)
        )
        ev = _WindowEval(events, reg)
        candidates = [dom.project(w_old), dom.project(dom.center)]
        values = [ev.value_sum(c) for c in candidates]
        k = int(np.argmin(values))
        w, value = ar.offline_comparator(events, 1, len(events), dom, reg=reg)
        assert np.array_equal(w, candidates[k]) and value == values[k]


# ---------------------------------------------------------------------------
# Learning-rate grid


def test_eta_grid_shape():
    grid = eta_grid(1, 1.0, 1.0)
    assert list(grid) == [0.2]
    grid = eta_grid(16, 2.0, 1.0)
    assert len(grid) == 1 + math.ceil(0.5 * math.log2(16))
    assert max(grid) == pytest.approx(1.0 / (5 * 2.0 * 1.0))


def test_eta_grid_two_approximation(rng):
    D, G = 2.0, 1.5
    for length in (1, 2, 3, 16, 100, 1 << 16):
        grid = sorted(eta_grid(length, D, G))
        lo, hi = grid[0], grid[-1]
        assert hi == pytest.approx(1.0 / (5 * D * G))
        for _ in range(100):
            eta_star = float(rng.uniform(lo, hi))
            assert any(eta <= eta_star <= 2.0 * eta for eta in grid)


# ---------------------------------------------------------------------------
# Surrogate calculus


def test_exp_surrogate_one_exp_concave(rng):
    # [DERIVED] Hessian 2 eta^2 g g^T; 1-exp-concavity requires
    # H - grad grad^T >= 0, i.e. slack of the smallest eigenvalue >= -1e-9.
    D, G = 2.0, 1.5
    for _ in range(1000):
        d = int(rng.integers(1, 4))
        g = rng.uniform(-1, 1, size=d)
        nrm = float(np.linalg.norm(g))
        if nrm > 0:
            g = g * (G * rng.uniform(0.2, 1.0) / nrm)
        eta = float(rng.uniform(0.02, 1.0)) / (5 * D * G)
        anchor = rng.uniform(-D / 2, D / 2, size=d) / math.sqrt(d)
        w = rng.uniform(-D / 2, D / 2, size=d) / math.sqrt(d)
        _, grad = surrogate_exp_eval(eta, g, anchor, w)
        hess = 2.0 * eta * eta * np.outer(g, g)
        slack = float(np.linalg.eigvalsh(hess - np.outer(grad, grad))[0])
        assert slack >= -1e-9


def test_exp_surrogate_matches_finite_differences(rng):
    g = np.array([0.4, -0.3])
    anchor = np.array([0.1, 0.2])
    eta = 0.1
    for _ in range(20):
        w = rng.uniform(-0.8, 0.8, size=2)
        val, grad = surrogate_exp_eval(eta, g, anchor, w)
        fd = fd_gradient(lambda z: surrogate_exp_eval(eta, g, anchor, z)[0], w)
        assert np.allclose(grad, fd, atol=1e-7)


def test_sc_surrogate_hessian_identity(rng):
    # [DERIVED] the quadratic surrogate has Hessian exactly 2 eta^2 G^2 I.
    G = 1.5
    g = np.array([0.5, -0.2])
    anchor = np.array([0.0, 0.3])
    for eta in (0.05, 0.1, 1.0 / (5 * 2.0 * G)):
        w = rng.uniform(-0.5, 0.5, size=2)
        hess = fd_hessian(
            lambda z: surrogate_sc_eval(eta, G, g, anchor, z)[0], w
        )
        assert np.allclose(hess, 2.0 * eta * eta * G * G * np.eye(2), atol=1e-6)
        _, grad = surrogate_sc_eval(eta, G, g, anchor, w)
        fd = fd_gradient(lambda z: surrogate_sc_eval(eta, G, g, anchor, z)[0], w)
        assert np.allclose(grad, fd, atol=1e-7)


def test_surrogate_zero_at_anchor():
    # [TRIVIAL] both surrogates vanish at w = anchor
    g = np.array([0.3, 0.1])
    anchor = np.array([0.2, -0.4])
    assert surrogate_exp_eval(0.1, g, anchor, anchor)[0] == 0.0
    assert surrogate_sc_eval(0.1, 1.0, g, anchor, anchor)[0] == 0.0


def test_surrogate_gamma_constant():
    # [DERIVED] exp_concave_beta(2/5, 1, 1) = 0.5 * min(1/(4*2/5), 1) = 5/16
    assert SURROGATE_GAMMA == pytest.approx(5.0 / 16.0)


# ---------------------------------------------------------------------------
# Proximal composite experts


def _grid_argmin(fn, lo=-1.0, hi=1.0, step=1e-4):
    zs = np.arange(lo, hi + step, step)
    vals = [fn(z) for z in zs]
    return float(zs[int(np.argmin(vals))])


def test_fobos_step_matches_grid_oracle(rng, box1):
    reg = ar.Regularizer("l1", 0.3)
    for _ in range(20):
        w0 = float(rng.uniform(-1, 1))
        g = float(rng.uniform(-1, 1))
        step = float(rng.uniform(0.05, 0.8))
        exp = ProxGradExpert(box1, G=1.0, step=step, reg=reg)
        exp.W[0] = w0
        exp.update(np.array([g]), exp.point(), t_local=1)
        # [DERIVED] grid oracle of the proximal objective followed by the
        # domain constraint (exact composition in one dimension)
        target = w0 - step * g
        want = _grid_argmin(
            lambda z: 0.5 * (z - target) ** 2 + step * 0.3 * abs(z)
        )
        want = float(np.clip(want, -1.0, 1.0))
        assert exp.point()[0] == pytest.approx(want, abs=1e-3)


def test_fobos_diminishing_matches_recursion(box1):
    reg = ar.Regularizer("l1", 0.1)
    exp = ProxGradExpert(box1, G=2.0, reg=reg)
    w = 0.0
    for t in range(1, 8):
        g = 0.4 if t % 2 else -0.3
        exp.update(np.array([g]), exp.point(), t_local=t)
        eta = 2.0 / (2.0 * math.sqrt(t))
        z = w - eta * g
        w = float(np.clip(np.sign(z) * max(abs(z) - eta * 0.1, 0.0), -1, 1))
        assert exp.point()[0] == pytest.approx(w, abs=1e-12)


def test_composite_sc_expert_prox_scaling(box1):
    # At w = anchor = 0 the surrogate gradient is exactly eta * g, so one
    # update is a closed-form soft-threshold step.
    reg = ar.Regularizer("l1", 0.02)
    eta = 0.5
    exp = SurrogateStack(box1, G=1.0, etas=[eta], reg=reg)  # row 1: comp-sc[eta]
    exp.update(np.array([0.3]), anchor=np.array([0.0]), t_local=1)
    step = 1.0 / (2.0 * eta * eta * 1.0)
    z = 0.0 - step * (eta * 0.3)
    want = float(np.clip(np.sign(z) * max(abs(z) - step * eta * 0.02, 0.0), -1, 1))
    assert want == pytest.approx(-0.28)
    assert exp.points()[1][0] == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize("reg_kind", ["l1", "squared-l2"])
@pytest.mark.parametrize("d", [2, 5])
@pytest.mark.parametrize("expert", ["fobos", "comp-sc"])
def test_composite_step_on_off_centre_ball_matches_slsqp(expert, d, reg_kind):
    # [DERIVED] one step of each FOBOS-style expert is the prox onto the
    # domain, argmin_z 0.5||z - x||^2 + scale r(z) over the ball, compared
    # with an SLSQP epigraph solve of that model (A = I, curvature 1, no
    # linear term). With l1 on an off-centre ball it is not project(prox(x));
    # with squared-l2 it is (the prox scales x, so z - c keeps its direction)
    rng = np.random.default_rng(d * 10 + len(expert + reg_kind))
    reg = ar.Regularizer(reg_kind, 0.3)
    for _ in range(8):
        dom = ar.Domain.ball(rng.uniform(0.3, 0.8, size=d) * rng.choice([-1.0, 1.0], size=d), 0.5)
        w0 = dom.sample(rng)
        g = rng.uniform(-1.0, 1.0, size=d)
        g /= float(np.linalg.norm(g))
        if expert == "fobos":
            step = float(rng.uniform(0.5, 2.0))
            exp = ProxGradExpert(dom, G=1.0, step=step, reg=reg, tag="fobos")
            anchor = w0
            x, scale = w0 - step * g, step
            exp.W[0] = w0
        else:
            eta = 1.0 / (5.0 * dom.diameter)
            exp = SurrogateStack(dom, G=1.0, etas=[eta], reg=reg)  # row 1: comp-sc[eta]
            anchor = dom.sample(rng)
            _, gs = surrogate_sc_eval(eta, 1.0, g, anchor, w0)
            step = 1.0 / (2.0 * eta**2)
            x, scale = w0 - step * gs, step * eta
            exp.W[1] = w0
        exp.update(g, anchor, 1)
        got = exp.points()[-1]
        eye, zero = np.eye(d), np.zeros(d)
        ref = _slsqp_quadratic_model(dom, eye, 1.0, x, zero, reg, scale)
        assert dom.contains(got)
        v_got = _model_value(eye, 1.0, x, zero, reg, scale, got)
        v_ref = _model_value(eye, 1.0, x, zero, reg, scale, ref)
        assert v_got <= v_ref + 1e-8 * (1.0 + abs(v_ref))


def test_prox_quadratic_argmin_one_dim_grid(box1, rng):
    reg = ar.Regularizer("l1", 0.4)
    for _ in range(20):
        a = float(rng.uniform(0.3, 3.0))
        w_ref = float(rng.uniform(-0.8, 0.8))
        lin = float(rng.uniform(-1, 1))
        eta = float(rng.uniform(0.05, 0.2))
        got = prox_quadratic_argmin(
            box1,
            np.array([[a]]),
            SURROGATE_GAMMA,
            np.array([w_ref]),
            np.array([lin]),
            reg,
            eta,
        )
        gamma = SURROGATE_GAMMA
        want = _grid_argmin(
            lambda z: lin * z + 0.5 * gamma * a * (z - w_ref) ** 2 + eta * 0.4 * abs(z)
        )
        assert got[0] == pytest.approx(want, abs=1e-3)


def test_prox_ons_expert_one_dim_against_grid(box1):
    reg = ar.Regularizer("l1", 0.2)
    eta = 0.1
    exp = SurrogateStack(box1, 1.0, [eta], reg)  # row 0: prox-ons[eta]
    rng = np.random.default_rng(5)
    for t in range(1, 15):
        g = np.array([float(rng.uniform(-1, 1))])
        anchor = np.array([float(rng.uniform(-0.5, 0.5))])
        w_prev = exp.points()[0].copy()
        A_prev = exp.A[0].copy()
        exp.update(g, anchor, t)
        _, gs = surrogate_exp_eval(eta, g, anchor, w_prev)
        A = A_prev + np.outer(gs, gs)
        gamma = SURROGATE_GAMMA
        want = _grid_argmin(
            lambda z: float(gs[0]) * z
            + 0.5 * gamma * float(A[0, 0]) * (z - float(w_prev[0])) ** 2
            + eta * 0.2 * abs(z)
        )
        assert exp.points()[0][0] == pytest.approx(want, abs=1e-3)


def test_expert_tags_distinct(box1):
    reg = ar.Regularizer("l1", 0.1)
    # the nine experts as the learners build them; meta.csv prints these tags
    tags = {
        *ProxGradExpert(box1, 1.0, step=0.5).tags,
        *ProxGradExpert(box1, 1.0, tag="ogd-dim").tags,
        *OGDStronglyConvex(box1, 0.5).tags,
        *ONSExpert(box1, 0.25).tags,
        *SurrogateStack(box1, 1.0, [0.1]).tags,  # sur-exp, sur-sc
        *ProxGradExpert(box1, 1.0, step=0.1, reg=reg, tag="fobos").tags,
        *SurrogateStack(box1, 1.0, [0.1], reg).tags,  # prox-ons, comp-sc
    }
    assert len(tags) == 9
    assert {t.split("[")[0] for t in tags} == {
        "ogd", "ogd-dim", "ogd-sc", "ons", "sur-exp", "sur-sc", "fobos", "comp-sc", "prox-ons"
    }


# ---------------------------------------------------------------------------
# One update protocol: every expert against its own recursion


class _Recursion:
    """Reference iterate driven by `step(ref, g, anchor, t)`: each expert's
    recursion written out with the library's solvers but not its classes."""

    def __init__(self, dom, step, curvature=None):
        self.dom, self.step, self.w = dom, step, dom.project(dom.center)
        if curvature is not None:
            self.A = np.eye(dom.dim) / (curvature**2 * dom.diameter**2)

    def point(self):
        return self.w

    def update(self, g, anchor, t):
        self.step(self, g, anchor, t)


def _exact_prox(dom, reg, z, scale):
    # the prox onto the test's off-centre ball at d = 2, where project(prox(z))
    # is not exact with l1
    if reg is None or reg.is_zero:
        return dom.project(z)
    return _prox_onto_ball(dom, reg, z, scale)


def _prox_grad(eta_of_t, reg=None):
    def step(r, g, anchor, t):
        eta = eta_of_t(t)
        r.w = _exact_prox(r.dom, reg, r.w - eta * g, eta)

    return step


def _ons(curvature, eta=None):
    def step(r, g, anchor, t):
        if eta is not None:
            _, g = surrogate_exp_eval(eta, g, anchor, r.w)
        r.A += np.outer(g, g)
        r.w = a_norm_project(r.dom, r.A, r.w - np.linalg.solve(r.A, g) / curvature)

    return step


def _ogd_sc(lam):
    # g / (lam t), which differs in the last bit from (1 / (lam t)) * g
    def step(r, g, anchor, t):
        r.w = r.dom.project(r.w - g / (lam * t))

    return step


def _prox_ons(reg, eta):
    def step(r, g, anchor, t):
        _, gs = surrogate_exp_eval(eta, g, anchor, r.w)
        r.A += np.outer(gs, gs)
        r.w = prox_quadratic_argmin(r.dom, r.A, SURROGATE_GAMMA, r.w, gs, reg, eta)

    return step


def _sc(eta, G, reg=None):
    def step(r, g, anchor, t):
        _, gs = surrogate_sc_eval(eta, G, g, anchor, r.w)
        s = 1.0 / (2.0 * eta**2 * G**2 * t)
        r.w = _exact_prox(r.dom, reg, r.w - s * gs, s * eta)

    return step


class _StackRow:
    """Row `row` of a one-eta SurrogateStack as an expert: 0 is the Newton
    row (sur-exp, prox-ons), 1 the gradient row (sur-sc, comp-sc)."""

    def __init__(self, stack, row):
        self.stack, self.row = stack, row

    def point(self):
        return self.stack.points()[self.row]

    def update(self, g, anchor, t):
        self.stack.update(g, anchor, t)


class _RefRows:
    """k references side by side, updated like a k-row expert: `g` is one
    gradient shared by every row or one per row."""

    def __init__(self, refs):
        self.refs = refs

    def points(self):
        return np.stack([r.point() for r in self.refs])

    def update(self, g, anchor, t):
        for r, g_row in zip(self.refs, np.broadcast_to(g, (len(self.refs), g.shape[-1]))):
            r.update(g_row, anchor, t)


class _Rows:
    """A k-row expert (or a _RefRows) as one expert whose point is its k x d
    stack. With `per_row`, row i takes its own gradient, the round's g with
    its coordinates rolled by i, instead of the shared g."""

    def __init__(self, rows, per_row):
        self.rows, self.per_row = rows, per_row

    def point(self):
        return self.rows.points()

    def update(self, g, anchor, t):
        if self.per_row:
            g = np.stack([np.roll(g, i) for i in range(len(self.rows.points()))])
        self.rows.update(g, anchor, t)


def _rows_case(expert, refs, per_row):
    return lambda d: (_Rows(expert(d), per_row), _Rows(_RefRows(refs(d)), per_row))


_TWO_ONS = (
    lambda d: ONSExpert(d, [0.25, 0.8]),
    lambda d: [_Recursion(d, _ons(c), curvature=c) for c in (0.25, 0.8)],
)
_TWO_OGD_SC = (
    lambda d: OGDStronglyConvex(d, [0.5, 2.0]),
    lambda d: [_Recursion(d, _ogd_sc(lam)) for lam in (0.5, 2.0)],
)


class _EnsembleLoop:
    """The plain (UniversalExpert) and optimistic (UMSCompCore) meta loops
    written out with the meta functions, over a second copy of the experts."""

    def __init__(self, ensemble, dom, G, reg=None, fp_tol=None):
        self.experts, self.slots = ensemble.experts, ensemble.slots
        self.G, self.D, self.reg, self.fp_tol = G, dom.diameter, reg, fp_tol
        self.C = reg.bound_on(dom) if reg is not None else 0.0

    def point(self):
        self.pts = np.concatenate([e.points() for e in self.experts])
        if self.reg is None:
            self.p = amlp_weights(self.slots)
        else:
            self.r = np.array([self.reg.value(row) for row in self.pts])
            self.hints, *_ = optimism_fixed_point(
                self.slots, self.r, self.G * self.D, self.C, self.fp_tol
            )
            self.p = oamlp_weights(self.slots, self.hints)
        self.w = self.p @ self.pts
        return self.w

    def update(self, g, anchor, t):
        if self.reg is None:
            ells = np.array([normalized_loss(g, self.w, x, self.G, self.D) for x in self.pts])
            amlp_update(self.slots, float(self.p @ ells), ells)
        else:
            ells = ((self.pts - self.w) @ g + self.r) / (self.G * self.D)
            oamlp_update(self.slots, float(self.p @ ells), ells, self.hints)
        for e in self.experts:
            e.update(g, self.w, t)


_L1 = ar.Regularizer("l1", 0.05)
_ZERO = ar.Regularizer()
_G = 1.0
_PROTOCOL_CASES = {
    # name: dom -> (expert, reference)
    "ogd": lambda d: (
        ProxGradExpert(d, _G, step=0.3),
        _Recursion(d, _prox_grad(lambda t: 0.3)),
    ),
    "ogd-dim": lambda d: (
        ProxGradExpert(d, _G),
        _Recursion(d, _prox_grad(lambda t: d.diameter / _G / math.sqrt(t))),
    ),
    "fobos-l1": lambda d: (
        ProxGradExpert(d, _G, step=0.3, reg=_L1),
        _Recursion(d, _prox_grad(lambda t: 0.3, _L1)),
    ),
    # a zero regularizer skips the prox, whose result was a copy of its input
    "fobos-dim-zero": lambda d: (
        ProxGradExpert(d, _G, reg=_ZERO),
        _Recursion(d, _prox_grad(lambda t: d.diameter / _G / math.sqrt(t), _ZERO)),
    ),
    "ogd-sc": lambda d: (OGDStronglyConvex(d, 0.5), _Recursion(d, _ogd_sc(0.5))),
    "ons": lambda d: (ONSExpert(d, 0.25), _Recursion(d, _ons(0.25), curvature=0.25)),
    # two-row experts, each row against its own recursion, with one shared
    # gradient and with one gradient per row
    "ons-2": _rows_case(*_TWO_ONS, per_row=False),
    "ons-2-per-row": _rows_case(*_TWO_ONS, per_row=True),
    "ogd-sc-2": _rows_case(*_TWO_OGD_SC, per_row=False),
    "ogd-sc-2-per-row": _rows_case(*_TWO_OGD_SC, per_row=True),
    "sur-exp": lambda d: (
        _StackRow(SurrogateStack(d, _G, [0.1]), 0),
        _Recursion(d, _ons(SURROGATE_GAMMA, eta=0.1), curvature=SURROGATE_GAMMA),
    ),
    "prox-ons": lambda d: (
        _StackRow(SurrogateStack(d, _G, [0.1], _L1), 0),
        _Recursion(d, _prox_ons(_L1, 0.1), curvature=SURROGATE_GAMMA),
    ),
    # with a zero regularizer the proximal Newton step is the A-norm
    # projection of the Newton target, the sur-exp recursion
    "prox-ons-zero": lambda d: (
        _StackRow(SurrogateStack(d, _G, [0.1], _ZERO), 0),
        _Recursion(d, _ons(SURROGATE_GAMMA, eta=0.1), curvature=SURROGATE_GAMMA),
    ),
    "sur-sc": lambda d: (
        _StackRow(SurrogateStack(d, _G, [0.1]), 1),
        _Recursion(d, _sc(0.1, _G)),
    ),
    "comp-sc-l1": lambda d: (
        _StackRow(SurrogateStack(d, _G, [0.1], _L1), 1),
        _Recursion(d, _sc(0.1, _G, _L1)),
    ),
    "comp-sc-zero": lambda d: (
        _StackRow(SurrogateStack(d, _G, [0.1], _ZERO), 1),
        _Recursion(d, _sc(0.1, _G, _ZERO)),
    ),
    "universal": lambda d: (
        ar.algorithms.UniversalExpert(d, _G, 16),
        _EnsembleLoop(ar.algorithms.UniversalExpert(d, _G, 16), d, _G),
    ),
    "ums-comp": lambda d: (
        ar.algorithms.UMSCompCore(d, _G, _L1, 16, 1e-3),
        _EnsembleLoop(ar.algorithms.UMSCompCore(d, _G, _L1, 16, 1e-3), d, _G, _L1, 1e-3),
    ),
}


@pytest.mark.parametrize("name", sorted(_PROTOCOL_CASES))
def test_update_protocol_matches_recursion(name):
    # every expert takes update(g, anchor, t_local) and reproduces its own
    # recursion bit for bit; the ball is small so projections engage
    dom = ar.Domain.ball(np.array([0.1, -0.1]), 0.4)
    expert, ref = _PROTOCOL_CASES[name](dom)
    rng = np.random.default_rng(11)
    for t in range(1, 17):
        assert np.array_equal(expert.point(), ref.point())
        g = rng.uniform(-1.0, 1.0, size=2)
        g *= _G * rng.uniform(0.2, 1.0) / float(np.linalg.norm(g))
        anchor = dom.project(rng.uniform(-0.5, 0.5, size=2))
        expert.update(g, anchor, t)
        ref.update(g, anchor, t)
    assert np.array_equal(expert.point(), ref.point())


@pytest.mark.parametrize("d", [2, 5])
def test_squared_l2_prox_onto_off_centre_ball_is_projected_prox(d):
    # the squared-l2 prox scales x toward the origin, and the constrained
    # minimizer lies on the ray from the centre through the prox point, so
    # prox_onto composes project(prox(x)); the multiplier bisection of
    # _prox_onto_ball reaches the same point up to round-off
    rng = np.random.default_rng(20 + d)
    reg = ar.Regularizer("squared-l2", 0.4)
    eye, zero = np.eye(d), np.zeros(d)
    for _ in range(100):
        dom = ar.Domain.ball(rng.uniform(-0.8, 0.8, size=d), float(rng.uniform(0.2, 0.6)))
        x = rng.uniform(-2.0, 2.0, size=d)
        scale = float(rng.uniform(0.05, 2.0))
        got = prox_onto(dom, reg, x, scale)
        assert np.array_equal(got, dom.project(reg.prox(x, scale)))
        ref = _prox_onto_ball(dom, reg, x, scale)
        assert dom.contains(got)
        assert np.allclose(got, ref, atol=1e-12)
        v_got = _model_value(eye, 1.0, x, zero, reg, scale, got)
        v_ref = _model_value(eye, 1.0, x, zero, reg, scale, ref)
        assert v_got <= v_ref + 1e-12


# ---------------------------------------------------------------------------
# The stacked surrogate experts against the per-expert recursions


class _SurExpRef:
    """[DERIVED] ONS on the exp-concave surrogate (+ eta r), one expert per
    eta, written out as the per-expert class that the stack replaced."""

    def __init__(self, domain, eta, reg):
        self.domain, self.eta, self.reg = domain, eta, reg
        self.curvature = SURROGATE_GAMMA
        self.w = domain.project(domain.center)
        eps = 1.0 / (self.curvature**2 * domain.diameter**2)
        self.A = eps * np.eye(domain.dim)

    def update(self, g, anchor, t_local):
        _, g = surrogate_exp_eval(self.eta, g, anchor, self.w)
        self.A += np.outer(g, g)
        if self.reg is None or self.reg.is_zero:
            target = self.w - np.linalg.solve(self.A, g) / self.curvature
            self.w = a_norm_project(self.domain, self.A, target)
        else:
            self.w = prox_quadratic_argmin(
                self.domain, self.A, self.curvature, self.w, g, self.reg, self.eta
            )


class _SurScRef:
    """[DERIVED] gradient steps 1/(2 eta^2 G^2 t) on the strongly convex
    surrogate (+ eta r), one expert per eta, as the per-expert class was."""

    def __init__(self, domain, eta, G, reg):
        self.domain, self.eta, self.G, self.reg = domain, eta, G, reg
        self.w = domain.project(domain.center)

    def update(self, g, anchor, t_local):
        _, gs = surrogate_sc_eval(self.eta, self.G, g, anchor, self.w)
        step = 1.0 / (2.0 * self.eta**2 * self.G**2 * t_local)
        self.w = prox_onto(self.domain, self.reg, self.w - step * gs, step * self.eta)


def _stack_domains(d):
    rng = np.random.default_rng(100 + d)
    return {
        "box": ar.Domain.box(-0.3 * np.ones(d), np.linspace(0.2, 0.5, d)),
        "origin-ball": ar.Domain.ball(np.zeros(d), 0.4),
        "off-centre-ball": ar.Domain.ball(rng.uniform(-0.5, 0.5, size=d), 0.35),
    }


@pytest.mark.parametrize("reg_kind", ["none", "l1", "squared-l2"])
@pytest.mark.parametrize("kind", ["box", "origin-ball", "off-centre-ball"])
@pytest.mark.parametrize("d", [1, 2, 5])
def test_surrogate_stack_matches_per_expert_recursions(d, kind, reg_kind):
    # every row of the stack reproduces its expert's recursion bit for bit,
    # in the interleaved order (ONS, OGD) per eta that fixes the slot order;
    # the domains are small, so projections and iterative solves engage
    dom = _stack_domains(d)[kind]
    reg = None if reg_kind == "none" else ar.Regularizer(reg_kind, 0.3)
    G = 1.0
    etas = [float(e) for e in eta_grid(64, dom.diameter, G)]
    stack = SurrogateStack(dom, G, etas, reg)
    refs = [r for eta in etas for r in (_SurExpRef(dom, eta, reg), _SurScRef(dom, eta, G, reg))]
    ons, sc = ("sur-exp", "sur-sc") if reg is None else ("prox-ons", "comp-sc")
    assert stack.tags == [f"{k}[{eta!r}]" for eta in etas for k in (ons, sc)]
    rng = np.random.default_rng(d * 7 + len(kind) + len(reg_kind))
    push = rng.normal(size=d)  # drives the iterates onto the boundary
    push *= 2.0 / float(np.linalg.norm(push))
    for t in range(1, 41):
        assert np.array_equal(stack.points(), np.stack([r.w for r in refs]))
        g = rng.uniform(-1.0, 1.0, size=d) + (push if t % 8 else -push)
        g *= G * rng.uniform(0.3, 1.0) / float(np.linalg.norm(g))
        anchor = dom.project(rng.uniform(-1.0, 1.0, size=d))
        stack.update(g, anchor, t)
        for r in refs:
            r.update(g, anchor, t)
        assert np.array_equal(stack.A, np.stack([r.A for r in refs[0::2]]))
    assert np.array_equal(stack.points(), np.stack([r.w for r in refs]))


@pytest.mark.parametrize("kind", ["box", "ball"])
def test_one_dim_newton_rows_match_the_a_norm_projection(kind):
    # at d = 1 the stack projects an infeasible Newton target in closed form,
    # as proximal_gradient's one step from the Euclidean projection; the
    # Euclidean projection alone is off by an ulp on some balls
    rng = np.random.default_rng(3 + len(kind))
    beta = SURROGATE_GAMMA
    for _ in range(3000):
        c = rng.uniform(-2.0, 2.0, size=1) * (rng.random() < 0.5)
        r = float(10.0 ** rng.uniform(-2.0, 0.5))
        if kind == "ball":
            dom = ar.Domain.ball(c, r)
        else:
            dom = ar.Domain.box(c - r, c + r * rng.uniform(0.5, 2.0))
        stack = SurrogateStack(dom, 1.0, [0.1, 0.05, 0.025])
        stack.A = 10.0 ** rng.uniform(-1.0, 4.0, size=(3, 1, 1))
        w = dom.project_rows(rng.uniform(-3.0, 3.0, size=(3, 1)))
        sides = np.sign(rng.standard_normal(size=(3, 1)))
        targets = dom.center + sides * r * (1.0 + 10.0 ** rng.uniform(-8.0, 1.0, size=(3, 1)))
        gs = (w - targets) * stack.A[:, 0] * beta
        want = np.stack(
            [a_norm_project(dom, A, x - np.linalg.solve(A, g) / beta) for A, x, g in zip(stack.A, w, gs)]
        )
        assert np.array_equal(stack._newton_step(w, gs), want)
