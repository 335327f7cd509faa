"""Base experts: gradient steps, Newton-style updates, proximal composites,
and the surrogate-loss calculus they rely on."""
import math

import numpy as np
import pytest
from scipy.optimize import minimize

import adaregret as ar
from adaregret.experts import a_norm_project, power_iteration, prox_quadratic_argmin


# ---------------------------------------------------------------------------
# Step-size schedules and simple experts


def test_ogd_fixed_single_step(box1):
    # [TRIVIAL] w1 = project(w0 - (D / (G sqrt(L))) g)
    exp = ar.ProxGradExpert(box1, G=1.0, step=box1.diameter / (1.0 * math.sqrt(16)))
    assert exp.point() == pytest.approx([0.0])
    exp.update(np.array([1.0]), exp.point(), 1)
    assert exp.point() == pytest.approx([-2.0 / 4.0])


def test_ogd_diminishing_steps(box1):
    exp = ar.ProxGradExpert(box1, G=2.0)
    w = 0.0
    for t in range(1, 6):
        g = 0.5 if t % 2 else -0.25
        exp.update(np.array([g]), exp.point(), t)
        w = float(np.clip(w - (2.0 / (2.0 * math.sqrt(t))) * g, -1.0, 1.0))
        assert exp.point() == pytest.approx([w], abs=1e-15)


def test_ogd_strongly_convex_steps(box1):
    lam = 0.5
    exp = ar.OGDStronglyConvex(box1, modulus=lam)
    w = 0.0
    for t in range(1, 6):
        g = 0.3
        exp.update(np.array([g]), exp.point(), t)
        w = float(np.clip(w - g / (lam * t), -1.0, 1.0))
        assert exp.point() == pytest.approx([w], abs=1e-15)


def test_ons_hand_example(box1):
    # [DERIVED] eps = 1/(gamma^2 D^2) = 16; A after one step = 17;
    # w1 = 0 - (1/17)/0.125 = -8/17, feasible so projection is identity.
    ons = ar.ONSCore(box1, curvature=0.125)
    ons.update(np.array([1.0]), ons.point(), 1)
    assert ons.point() == pytest.approx([-8.0 / 17.0], abs=1e-12)


def test_ons_projection_engages(rng):
    dom = ar.Domain.ball(np.zeros(2), 0.25)
    ons = ar.ONSCore(dom, curvature=0.5)
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


def test_power_iteration_matches_eigvalsh(rng):
    for _ in range(20):
        m = rng.normal(size=(4, 4))
        A = m @ m.T + 0.1 * np.eye(4)
        lam = power_iteration(A, iters=60)
        assert lam == pytest.approx(float(np.linalg.eigvalsh(A)[-1]), rel=1e-6)


# ---------------------------------------------------------------------------
# Learning-rate grid


def test_eta_grid_shape():
    grid = ar.eta_grid(1, 1.0, 1.0)
    assert list(grid) == [0.2]
    grid = ar.eta_grid(16, 2.0, 1.0)
    assert len(grid) == 1 + math.ceil(0.5 * math.log2(16))
    assert max(grid) == pytest.approx(1.0 / (5 * 2.0 * 1.0))


def test_eta_grid_two_approximation(rng):
    D, G = 2.0, 1.5
    for length in (1, 2, 3, 16, 100, 1 << 16):
        grid = sorted(ar.eta_grid(length, D, G))
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
        _, grad = ar.surrogate_exp_eval(eta, g, anchor, w)
        hess = 2.0 * eta * eta * np.outer(g, g)
        slack = float(np.linalg.eigvalsh(hess - np.outer(grad, grad))[0])
        assert slack >= -1e-9


def test_exp_surrogate_matches_finite_differences(rng):
    g = np.array([0.4, -0.3])
    anchor = np.array([0.1, 0.2])
    eta = 0.1
    for _ in range(20):
        w = rng.uniform(-0.8, 0.8, size=2)
        val, grad = ar.surrogate_exp_eval(eta, g, anchor, w)
        fd = ar.fd_gradient(lambda z: ar.surrogate_exp_eval(eta, g, anchor, z)[0], w)
        assert np.allclose(grad, fd, atol=1e-7)


def test_sc_surrogate_hessian_identity(rng):
    # [DERIVED] the quadratic surrogate has Hessian exactly 2 eta^2 G^2 I.
    G = 1.5
    g = np.array([0.5, -0.2])
    anchor = np.array([0.0, 0.3])
    for eta in (0.05, 0.1, 1.0 / (5 * 2.0 * G)):
        w = rng.uniform(-0.5, 0.5, size=2)
        hess = ar.fd_hessian(
            lambda z: ar.surrogate_sc_eval(eta, G, g, anchor, z)[0], w
        )
        assert np.allclose(hess, 2.0 * eta * eta * G * G * np.eye(2), atol=1e-6)
        _, grad = ar.surrogate_sc_eval(eta, G, g, anchor, w)
        fd = ar.fd_gradient(lambda z: ar.surrogate_sc_eval(eta, G, g, anchor, z)[0], w)
        assert np.allclose(grad, fd, atol=1e-7)


def test_surrogate_zero_at_anchor():
    # [TRIVIAL] both surrogates vanish at w = anchor
    g = np.array([0.3, 0.1])
    anchor = np.array([0.2, -0.4])
    assert ar.surrogate_exp_eval(0.1, g, anchor, anchor)[0] == 0.0
    assert ar.surrogate_sc_eval(0.1, 1.0, g, anchor, anchor)[0] == 0.0


def test_surrogate_gamma_constant():
    # [DERIVED] exp_concave_beta(2/5, 1, 1) = 0.5 * min(1/(4*2/5), 1) = 5/16
    assert ar.SURROGATE_GAMMA == pytest.approx(5.0 / 16.0)


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
        exp = ar.ProxGradExpert(box1, G=1.0, step=step, reg=reg)
        exp.w = np.array([w0])
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
    exp = ar.ProxGradExpert(box1, G=2.0, reg=reg)
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
    exp = ar.SurrogateScExpert(box1, eta=eta, G=1.0, reg=reg)
    exp.update(np.array([0.3]), anchor=np.array([0.0]), t_local=1)
    step = 1.0 / (2.0 * eta * eta * 1.0)
    z = 0.0 - step * (eta * 0.3)
    want = float(np.clip(np.sign(z) * max(abs(z) - step * eta * 0.02, 0.0), -1, 1))
    assert want == pytest.approx(-0.28)
    assert exp.point()[0] == pytest.approx(want, abs=1e-12)


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
            ar.SURROGATE_GAMMA,
            np.array([w_ref]),
            np.array([lin]),
            reg,
            eta,
        )
        gamma = ar.SURROGATE_GAMMA
        want = _grid_argmin(
            lambda z: lin * z + 0.5 * gamma * a * (z - w_ref) ** 2 + eta * 0.4 * abs(z)
        )
        assert got[0] == pytest.approx(want, abs=1e-3)


def test_prox_ons_expert_one_dim_against_grid(box1):
    reg = ar.Regularizer("l1", 0.2)
    eta = 0.1
    exp = ar.ProxONSExpert(box1, reg, eta=eta)
    rng = np.random.default_rng(5)
    for t in range(1, 15):
        g = np.array([float(rng.uniform(-1, 1))])
        anchor = np.array([float(rng.uniform(-0.5, 0.5))])
        w_prev = exp.point().copy()
        A_prev = exp.A.copy()
        exp.update(g, anchor, t)
        _, gs = ar.surrogate_exp_eval(eta, g, anchor, w_prev)
        A = A_prev + np.outer(gs, gs)
        gamma = ar.SURROGATE_GAMMA
        want = _grid_argmin(
            lambda z: float(gs[0]) * z
            + 0.5 * gamma * float(A[0, 0]) * (z - float(w_prev[0])) ** 2
            + eta * 0.2 * abs(z)
        )
        assert exp.point()[0] == pytest.approx(want, abs=1e-3)


def test_expert_tags_distinct(box1):
    reg = ar.Regularizer("l1", 0.1)
    # the nine experts as the learners build them; meta.csv prints these tags
    tags = {
        ar.ProxGradExpert(box1, 1.0, step=0.5).tag,
        ar.ProxGradExpert(box1, 1.0, tag="ogd-dim").tag,
        ar.OGDStronglyConvex(box1, 0.5).tag,
        ar.ONSCore(box1, 0.25).tag,
        ar.SurrogateExpExpert(box1, 0.1).tag,
        ar.SurrogateScExpert(box1, 0.1, 1.0).tag,
        ar.ProxGradExpert(box1, 1.0, step=0.1, reg=reg, tag="fobos").tag,
        ar.SurrogateScExpert(box1, 0.1, 1.0, reg=reg).tag,
        ar.ProxONSExpert(box1, reg, 0.1).tag,
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


def _prox_grad(eta_of_t, reg=None):
    def step(r, g, anchor, t):
        eta = eta_of_t(t)
        z = r.w - eta * g
        r.w = r.dom.project(z if reg is None else reg.prox(z, eta))

    return step


def _ons(curvature, eta=None):
    def step(r, g, anchor, t):
        if eta is not None:
            _, g = ar.surrogate_exp_eval(eta, g, anchor, r.w)
        r.A += np.outer(g, g)
        r.w = a_norm_project(r.dom, r.A, r.w - np.linalg.solve(r.A, g) / curvature)

    return step


def _prox_ons(reg, eta):
    def step(r, g, anchor, t):
        _, gs = ar.surrogate_exp_eval(eta, g, anchor, r.w)
        r.A += np.outer(gs, gs)
        r.w = prox_quadratic_argmin(r.dom, r.A, ar.SURROGATE_GAMMA, r.w, gs, reg, eta)

    return step


def _sc(eta, G, reg=None):
    def step(r, g, anchor, t):
        _, gs = ar.surrogate_sc_eval(eta, G, g, anchor, r.w)
        s = 1.0 / (2.0 * eta**2 * G**2 * t)
        z = r.w - s * gs
        r.w = r.dom.project(z if reg is None else reg.prox(z, s * eta))

    return step


class _EnsembleLoop:
    """The plain (UniversalExpert) and optimistic (UMSCompCore) meta loops
    written out with the meta functions, over a second copy of the experts."""

    def __init__(self, ensemble, dom, G, reg=None, fp_tol=None):
        self.experts, self.slots = ensemble.experts, ensemble.slots
        self.G, self.D, self.reg, self.fp_tol = G, dom.diameter, reg, fp_tol
        self.C = reg.bound_on(dom) if reg is not None else 0.0

    def point(self):
        self.pts = np.stack([e.point() for e in self.experts])
        if self.reg is None:
            self.p = ar.amlp_weights(self.slots)
        else:
            self.r = np.array([self.reg.value(row) for row in self.pts])
            self.hints, *_ = ar.optimism_fixed_point(
                self.slots, self.r, self.G * self.D, self.C, self.fp_tol
            )
            self.p = ar.oamlp_weights(self.slots, self.hints)
        self.w = self.p @ self.pts
        return self.w

    def update(self, g, anchor, t):
        if self.reg is None:
            ells = np.array([ar.normalized_loss(g, self.w, x, self.G, self.D) for x in self.pts])
            ar.amlp_update(self.slots, float(self.p @ ells), ells)
        else:
            ells = ((self.pts - self.w) @ g + self.r) / (self.G * self.D)
            ar.oamlp_update(self.slots, float(self.p @ ells), ells, self.hints)
        for e in self.experts:
            e.update(g, self.w, t)


_L1 = ar.Regularizer("l1", 0.05)
_ZERO = ar.Regularizer()
_G = 1.0
_PROTOCOL_CASES = {
    # name: dom -> (expert, reference)
    "ogd": lambda d: (
        ar.ProxGradExpert(d, _G, step=0.3),
        _Recursion(d, _prox_grad(lambda t: 0.3)),
    ),
    "ogd-dim": lambda d: (
        ar.ProxGradExpert(d, _G),
        _Recursion(d, _prox_grad(lambda t: d.diameter / _G / math.sqrt(t))),
    ),
    "fobos-l1": lambda d: (
        ar.ProxGradExpert(d, _G, step=0.3, reg=_L1),
        _Recursion(d, _prox_grad(lambda t: 0.3, _L1)),
    ),
    # a zero regularizer skips the prox, whose result was a copy of its input
    "fobos-dim-zero": lambda d: (
        ar.ProxGradExpert(d, _G, reg=_ZERO),
        _Recursion(d, _prox_grad(lambda t: d.diameter / _G / math.sqrt(t), _ZERO)),
    ),
    # g / (lam t), which differs in the last bit from (1 / (lam t)) * g
    "ogd-sc": lambda d: (
        ar.OGDStronglyConvex(d, 0.5),
        _Recursion(d, lambda r, g, anchor, t: setattr(r, "w", d.project(r.w - g / (0.5 * t)))),
    ),
    "ons": lambda d: (ar.ONSCore(d, 0.25), _Recursion(d, _ons(0.25), curvature=0.25)),
    "sur-exp": lambda d: (
        ar.SurrogateExpExpert(d, 0.1),
        _Recursion(d, _ons(ar.SURROGATE_GAMMA, eta=0.1), curvature=ar.SURROGATE_GAMMA),
    ),
    "prox-ons": lambda d: (
        ar.ProxONSExpert(d, _L1, 0.1),
        _Recursion(d, _prox_ons(_L1, 0.1), curvature=ar.SURROGATE_GAMMA),
    ),
    "sur-sc": lambda d: (ar.SurrogateScExpert(d, 0.1, _G), _Recursion(d, _sc(0.1, _G))),
    "comp-sc-l1": lambda d: (
        ar.SurrogateScExpert(d, 0.1, _G, reg=_L1),
        _Recursion(d, _sc(0.1, _G, _L1)),
    ),
    "comp-sc-zero": lambda d: (
        ar.SurrogateScExpert(d, 0.1, _G, reg=_ZERO),
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
