"""Benchmark harness: synthetic streams, offline comparators, regret reports,
and the closed-form bound calculators (frozen against an independent
transcription of every constant)."""
import math

import numpy as np
import pytest

import adaregret as ar
from adaregret.harness import (
    ALGORITHM_BOUNDS,
    bound_constant_a,
    bound_constant_ahat,
    bound_constant_b,
    bound_constant_c,
    bound_constant_h,
    bound_constant_xi,
    comparator_dominance_check,
    composite_expert_count,
    composite_phis,
    second_order_interval_check,
)
from adaregret.intervals import iter_gc_intervals
from tests.conftest import aggregate_quadratic, make_absolute_stream


# ---------------------------------------------------------------------------
# Stream generation


def _same_events(a, b):
    """Equal family, declared type, modulus and params, event by event."""
    return len(a) == len(b) and all(
        (x.family, x.declared_type, x.modulus) == (y.family, y.declared_type, y.modulus)
        and x.params.keys() == y.params.keys()
        and all(np.array_equal(x.params[k], y.params[k]) for k in x.params)
        for x, y in zip(a, b)
    )


def test_stream_reproducibility(ball2):
    cfg = dict(
        horizon=24,
        dimension=2,
        domain=ball2,
        gradient_bound=1.0,
        segments=[
            ar.SegmentSpec(12, "absolute", params={"target": [0.3, 0.0], "noise": 0.2}),
            ar.SegmentSpec(12, "quadratic", "strongly-convex", 0.2,
                           params={"target": [0.1, -0.1], "noise": 0.1, "b_scale": 0.2}),
        ],
    )
    a = ar.generate_stream(ar.StreamConfig(**cfg, seed=7))
    b = ar.generate_stream(ar.StreamConfig(**cfg, seed=7))
    c = ar.generate_stream(ar.StreamConfig(**cfg, seed=8))
    assert _same_events(a, b)
    assert not _same_events(a, c)
    assert len(a) == 24 and all(isinstance(e, ar.LossSpec) for e in a)


def test_stream_segment_sum_must_match_horizon(ball2):
    with pytest.raises(ar.InputError):
        ar.StreamConfig(
            horizon=10,
            dimension=2,
            domain=ball2,
            gradient_bound=1.0,
            segments=[ar.SegmentSpec(4), ar.SegmentSpec(4)],
        )


def test_stream_gradient_guards(ball2, box1):
    # feature scale above G makes the absolute loss violate the bound
    bad = ar.StreamConfig(
        horizon=4,
        dimension=1,
        domain=box1,
        gradient_bound=1.0,
        segments=[ar.SegmentSpec(4, "absolute", params={"scale": 2.0})],
    )
    with pytest.raises(ar.InputError):
        ar.generate_stream(bad)
    # linear direction above G
    bad2 = ar.StreamConfig(
        horizon=4,
        dimension=2,
        domain=ball2,
        gradient_bound=0.5,
        segments=[ar.SegmentSpec(4, "linear", params={"direction": [1.0, 0.0]})],
    )
    with pytest.raises(ar.InputError):
        ar.generate_stream(bad2)
    # quadratic curvature + linear term exceeding G on the domain
    bad3 = ar.StreamConfig(
        horizon=4,
        dimension=2,
        domain=ball2,
        gradient_bound=0.5,
        segments=[
            ar.SegmentSpec(4, "quadratic", "strongly-convex", 1.0,
                           params={"b_scale": 0.4})
        ],
    )
    with pytest.raises(ar.InputError):
        ar.generate_stream(bad3)


def test_cumulative_losses_include_regularizer(box1):
    events = [ar.LossSpec("linear", {"g": np.array([1.0])}) for _ in range(3)]
    pts = [np.array([0.5])] * 3
    reg = ar.Regularizer("l1", 0.2)
    prefix = ar.cumulative_losses(events, pts, reg)
    # each round: f = 0.5, r = 0.2*0.5 = 0.1
    assert np.allclose(prefix, [0.0, 0.6, 1.2, 1.8])
    with pytest.raises(ar.InputError):
        ar.cumulative_losses(events, pts[:2], reg)


# ---------------------------------------------------------------------------
# Offline comparators


def test_comparator_pure_linear_ball(ball2):
    # [TRIVIAL] constant gradient (1,0) over 10 rounds: w* = -(1,0), value -10
    events = [ar.LossSpec("linear", {"g": np.array([1.0, 0.0])}) for _ in range(10)]
    w, val = ar.offline_comparator(events, 1, 10, ball2)
    assert np.allclose(w, [-1.0, 0.0], atol=1e-12)
    assert val == pytest.approx(-10.0, abs=1e-12)


def test_comparator_quadratic_closed_form(ball2, rng):
    # [DERIVED] sum of 0.5*lam||w-u_t||^2 + <b_t, w> is minimized at
    # mean(u) - mean(b)/lam when that point is feasible.
    lam = 2.0
    us = rng.uniform(-0.2, 0.2, size=(6, 2))
    bs = rng.uniform(-0.1, 0.1, size=(6, 2))
    events = [
        ar.LossSpec("quadratic", {"lam": lam, "u": u, "b": b},
                    "strongly-convex", lam)
        for u, b in zip(us, bs)
    ]
    w, val = ar.offline_comparator(events, 1, 6, ball2)
    want = us.mean(axis=0) - bs.mean(axis=0) / lam
    assert np.allclose(w, want, atol=1e-10)
    direct = sum(ev.value(want) for ev in events)
    assert val == pytest.approx(direct, rel=1e-12)


def _certified(events, dom, reg=None):
    from adaregret.harness import _ellipsoid_minimize, _WindowEval

    _, value, lower = _ellipsoid_minimize(_WindowEval(events, reg), dom)
    return value, lower


def test_comparator_singular_quadratic_off_range(ball2):
    # [DERIVED] A = 2 x x^T is singular and the linear round's (0, 0.5) lies
    # outside its range, so the least-squares point (0.25, 0) is not stationary
    # (it reads 0.0); the minimum lies on the unit circle near (0.25, -0.968),
    # where the objective reads about -0.484.
    events = [
        ar.LossSpec("squared-prediction", {"x": np.array([0.4, 0.0]), "y": 0.1}, "exp-concave", 0.5),
        ar.LossSpec("linear", {"g": np.array([0.0, 0.5])}),
    ]
    w, val = ar.offline_comparator(events, 1, 2, ball2)
    value, lower = _certified(events, ball2)
    assert float(np.linalg.norm(w)) <= 1.0 + 1e-12
    assert val < -0.484
    assert lower <= val <= value + 1e-9 * (1.0 + abs(value))


def test_comparator_pure_linear_with_l1():
    # [DERIVED] sum 0.5 w1 + 0.5 w2 + 0.1 (|w1| + |w2|) on [-1, 0.5]^2 falls
    # along -(1, 1): the minimum is -0.8 at (-1, -1), found within the
    # certified gap 1e-9 (1 + 0.8)
    dom = ar.Domain.box(np.array([-1.0, -1.0]), np.array([0.5, 0.5]))
    reg = ar.Regularizer("l1", 0.1)
    events = [ar.LossSpec("linear", {"g": np.array([0.5, 0.5])})]
    w, val = ar.offline_comparator(events, 1, 1, dom, reg=reg)
    assert -0.8 <= val <= -0.8 + 1.8e-9
    assert np.allclose(w, [-1.0, -1.0], atol=1e-6)


def test_quadratic_comparator_l1_off_centre_ball():
    # [DERIVED] squared-prediction rounds with an l1 term on a ball centred
    # off the origin: the quadratic path's value matches the certified
    # ellipsoid value within its gap
    rng = np.random.default_rng(4)
    dom = ar.Domain.ball(np.array([0.4, -0.3, 0.2]), 0.6)
    reg = ar.Regularizer("l1", 0.3)
    events = []
    for _ in range(8):
        x = rng.uniform(-1, 1, size=3)
        events.append(ar.LossSpec("squared-prediction", {"x": x, "y": float(x @ [-1.0, 1.0, -0.5])}))
    w, val = ar.offline_comparator(events, 1, len(events), dom, reg=reg)
    value, lower = _certified(events, dom, reg)
    assert dom.contains(w)
    assert lower - 1e-9 <= val <= value + 1e-9 * (1.0 + abs(value))


def test_comparator_scalar_matches_grid(box1, rng):
    events = make_absolute_stream(15, box1, noise=0.5, seed=11)
    w, val = ar.offline_comparator(events, 3, 12, box1)
    zs = np.linspace(-1, 1, 200001)
    vals = np.zeros_like(zs)
    for ev in events[2:12]:
        vals += np.abs(ev.params["x"][0] * zs - ev.params["y"])
    assert val <= vals.min() + 1e-9
    assert val == pytest.approx(float(vals.min()), abs=1e-4)


def test_comparator_2d_matches_dense_grid(rng):
    dom = ar.Domain.box(np.array([-0.5, -0.5]), np.array([0.5, 0.5]))
    events = []
    for _ in range(8):
        x = rng.uniform(-0.6, 0.6, size=2)
        y = float(rng.uniform(-0.4, 0.4))
        events.append(
            ar.LossSpec("squared-prediction", {"x": x, "y": y}, "exp-concave", 0.5)
        )
    w, val = ar.offline_comparator(events, 1, 8, dom)
    grid = np.linspace(-0.5, 0.5, 161)
    best = math.inf
    for z1 in grid:
        for z2 in grid:
            z = np.array([z1, z2])
            best = min(best, sum(ev.value(z) for ev in events))
    assert val <= best + 1e-9
    assert val == pytest.approx(best, abs=2e-3)


def test_comparator_l1_composite_scalar(box1):
    events = make_absolute_stream(12, box1, noise=0.4, seed=3)
    reg = ar.Regularizer("l1", 0.3)
    w, val = ar.offline_comparator(events, 1, 12, box1, reg=reg)
    zs = np.linspace(-1, 1, 200001)
    vals = 12 * 0.3 * np.abs(zs)
    for ev in events:
        vals += np.abs(ev.params["x"][0] * zs - ev.params["y"])
    assert val <= vals.min() + 1e-9
    assert val == pytest.approx(float(vals.min()), abs=1e-4)


def _mixed_window(rng, n, d, anchor, absolute_every=2):
    """n absolute / log-like rounds with features of norm in [0.5, 1]."""
    events = []
    for i in range(n):
        x = rng.normal(size=d)
        x *= rng.uniform(0.5, 1.0) / np.linalg.norm(x)
        margin = float(x @ anchor) + float(rng.uniform(-0.2, 0.2))
        if i % absolute_every:
            events.append(ar.LossSpec("absolute", {"x": x, "y": margin}))
        else:
            events.append(ar.LossSpec("log-like", {"x": x, "y": 1.0 if margin >= 0 else -1.0}))
    return events


def _window_values(events, reg=None):
    """Vectorized sum objective of an absolute / log-like window at the rows of P."""
    X = np.stack([ev.params["x"] for ev in events])
    y = np.array([ev.params["y"] for ev in events])
    absolute = np.array([ev.family == "absolute" for ev in events])
    n = len(events)

    def values(P):
        M = P @ X.T
        out = np.abs(M[:, absolute] - y[absolute]).sum(axis=1)
        out += np.logaddexp(0.0, -y[~absolute] * M[:, ~absolute]).sum(axis=1)
        if reg is not None and reg.kind == "l1":
            out += n * reg.weight * np.abs(P).sum(axis=1)
        elif reg is not None and reg.kind == "squared-l2":
            out += n * reg.weight * (P * P).sum(axis=1)
        return out

    return values


def _refined_grid_min(values, project, lo, hi):
    """Nested grid refinement: from the five best points of a 101^d grid,
    search a 21^d local grid of half-width 2h, following a best point that
    lands on the local grid's edge at the same scale, else dividing h by 4
    down to 1e-12. Returns (smallest value found, final spacing)."""
    d = len(lo)
    axes = [np.linspace(lo[i], hi[i], 101) for i in range(d)]
    P = project(np.stack(np.meshgrid(*axes), -1).reshape(-1, d))
    vals = values(P)
    local = np.linspace(-2.0, 2.0, 21)
    offsets = np.stack(np.meshgrid(*([local] * d)), -1).reshape(-1, d)
    edge = np.max(np.abs(offsets), axis=1) == 2.0
    best = math.inf
    for k in np.argsort(vals)[:5]:
        pt, val = P[k], float(vals[k])
        h = float(np.max((np.asarray(hi) - np.asarray(lo)) / 100))
        while h > 1e-12:
            Q = project(pt + h * offsets)
            v = values(Q)
            j = int(np.argmin(v))
            moved = v[j] < val
            if moved:
                pt, val = Q[j], float(v[j])
            if not (moved and edge[j]):
                h /= 4.0
        best = min(best, val)
    return best, h


def _disk_window():
    events = _mixed_window(np.random.default_rng(4), 24, 2, np.array([0.4, -0.3]))

    def to_disk(P):
        norms = np.linalg.norm(P, axis=-1, keepdims=True)
        return np.where(norms > 1.0, P / np.maximum(norms, 1.0), P)

    return events, to_disk


def test_generic_comparator_disk_matches_refined_grid(ball2):
    # [DERIVED] d=2 unit disk, 12 absolute + 12 log-like rounds: the
    # certified comparator lies within 1e-8 above a nested-grid-refined
    # minimum, and no further below it than the grid's final resolution.
    events, to_disk = _disk_window()
    _, val = ar.offline_comparator(events, 1, len(events), ball2)
    grid, h = _refined_grid_min(_window_values(events), to_disk, [-1.0, -1.0], [1.0, 1.0])
    lipschitz = sum(float(np.linalg.norm(ev.params["x"])) for ev in events)
    assert val <= grid + 1e-8
    assert val >= grid - lipschitz * h * math.sqrt(2.0)


def _box3_window():
    lo, hi = np.array([-1.0, -0.5, -0.8]), np.array([0.6, 1.0, 0.7])
    events = _mixed_window(np.random.default_rng(1), 18, 3, np.array([0.3, 0.5, -0.4]), 3)
    return ar.Domain.box(lo, hi), events


def _box3_oracle(events, dom, reg):
    """The better of a dense 41^3 grid and the epigraph form solved by SLSQP:
    min smooth(w) + <weights, s> s.t. -s <= A w - b <= s, lower <= w <= upper,
    with the absolute terms (and, for l1, the coordinates of w) in A w - b."""
    from scipy.optimize import minimize

    lo, hi, d, n = dom.lower, dom.upper, dom.dim, len(events)
    values = _window_values(events, reg)
    axes = [np.linspace(lo[i], hi[i], 41) for i in range(d)]
    grid = float(values(np.stack(np.meshgrid(*axes), -1).reshape(-1, d)).min())

    absolute = [ev for ev in events if ev.family == "absolute"]
    logs = [ev for ev in events if ev.family == "log-like"]
    A = np.stack([ev.params["x"] for ev in absolute])
    b = np.array([ev.params["y"] for ev in absolute])
    weights = np.ones(len(b))
    Xl = np.stack([ev.params["x"] for ev in logs])
    yl = np.array([ev.params["y"] for ev in logs])
    quad = n * reg.weight if reg.kind == "squared-l2" else 0.0
    if reg.kind == "l1":
        A, b = np.vstack([A, np.eye(d)]), np.concatenate([b, np.zeros(d)])
        weights = np.concatenate([weights, np.full(d, n * reg.weight)])
    k = len(b)

    def smooth(w):
        return float(np.logaddexp(0.0, -yl * (Xl @ w)).sum() + quad * w @ w)

    def smooth_grad(w):
        sig = 0.5 * (1.0 + np.tanh(-0.5 * yl * (Xl @ w)))
        return Xl.T @ (-yl * sig) + 2.0 * quad * w

    cons = [
        {"type": "ineq", "fun": lambda v: v[d:] - (A @ v[:d] - b),
         "jac": lambda v: np.hstack([-A, np.eye(k)])},
        {"type": "ineq", "fun": lambda v: v[d:] + (A @ v[:d] - b),
         "jac": lambda v: np.hstack([A, np.eye(k)])},
    ]
    c0 = 0.5 * (lo + hi)
    res = minimize(
        lambda v: smooth(v[:d]) + weights @ v[d:],
        np.concatenate([c0, np.abs(A @ c0 - b) + 1e-3]),
        jac=lambda v: np.concatenate([smooth_grad(v[:d]), weights]),
        constraints=cons,
        bounds=[(lo[i], hi[i]) for i in range(d)] + [(None, None)] * k,
        method="SLSQP",
        options={"ftol": 1e-15, "maxiter": 1000},
    )
    w = np.clip(res.x[:d], lo, hi)
    return min(grid, smooth(w) + float(weights @ np.abs(A @ w - b)))


@pytest.mark.parametrize(
    "reg", [ar.Regularizer("l1", 0.15), ar.Regularizer("squared-l2", 0.3)], ids=["l1", "sq-l2"]
)
def test_generic_comparator_box3_matches_dense_oracle(reg):
    # [DERIVED] d=3 box, 12 absolute + 6 log-like rounds with a regularizer:
    # the certified comparator lies within 1e-8 above the oracle (an upper
    # bound on the minimum), and not below it beyond the oracle's own slack.
    dom, events = _box3_window()
    w, val = ar.offline_comparator(events, 1, len(events), dom, reg=reg)
    oracle = _box3_oracle(events, dom, reg)
    assert dom.contains(w, tol=0.0)
    assert val <= oracle + 1e-8
    assert val >= oracle - 1e-7


def test_generic_comparator_boundary_minima(ball2):
    # [DERIVED] log-like rounds with y = +1 decrease along their features.
    # Positive features on a box: the minimum sits at the upper corner.
    rng = np.random.default_rng(3)
    lo, hi = np.array([-0.7, -0.2, -1.0]), np.array([0.4, 0.9, 0.3])
    events = [
        ar.LossSpec("log-like", {"x": rng.uniform(0.1, 0.6, size=3), "y": 1.0})
        for _ in range(10)
    ]
    w, val = ar.offline_comparator(events, 1, 10, ar.Domain.box(lo, hi))
    want = sum(ev.value(hi) for ev in events)
    assert np.all(w <= hi) and np.all(w >= lo)
    assert want <= val <= want + 1e-9 * (1.0 + want)
    # Features along one unit direction u on the unit disk: the minimum sits at u.
    u = np.array([0.6, 0.8])
    events = [
        ar.LossSpec("log-like", {"x": float(a) * u, "y": 1.0})
        for a in rng.uniform(0.2, 1.0, size=10)
    ]
    w, val = ar.offline_comparator(events, 1, 10, ball2)
    want = sum(ev.value(u) for ev in events)
    assert float(np.linalg.norm(w)) <= 1.0
    assert want <= val <= want + 1e-9 * (1.0 + want)


def test_generic_comparator_certificate(ball2):
    # [DERIVED] lower <= value <= lower + 1e-9 (1 + |value|), the lower bound
    # sits below the refined-grid minimum, and the public comparator returns
    # the certified value.
    from adaregret.harness import _ellipsoid_minimize, _WindowEval

    events, to_disk = _disk_window()
    w, value, lower = _ellipsoid_minimize(_WindowEval(events, None), ball2)
    assert lower <= value <= lower + 1e-9 * (1.0 + abs(value))
    assert value == _WindowEval(events, None).value_sum(w)
    grid, _ = _refined_grid_min(_window_values(events), to_disk, [-1.0, -1.0], [1.0, 1.0])
    assert lower <= grid
    assert ar.offline_comparator(events, 1, len(events), ball2)[1] == value

    dom, box_events = _box3_window()
    for reg in (ar.Regularizer(), ar.Regularizer("l1", 0.15), ar.Regularizer("squared-l2", 0.3)):
        w, value, lower = _ellipsoid_minimize(_WindowEval(box_events, reg), dom)
        assert dom.contains(w, tol=0.0)
        assert lower <= value <= lower + 1e-9 * (1.0 + abs(value))


def test_generic_comparator_exhausted_cap_raises(ball2):
    # [DERIVED] five central cuts cannot certify a 1e-9 gap on this window
    from adaregret.harness import _ellipsoid_minimize, _WindowEval

    events, _ = _disk_window()
    with pytest.raises(ar.ConvergenceError) as exc:
        _ellipsoid_minimize(_WindowEval(events, None), ball2, cap=5)
    assert exc.value.residual > 1e-9


def _mixed_stream(rng, d, segments):
    """Events of the given (family, length) segments with d-dimensional params;
    a family may recur, so its rounds in a window need not be contiguous."""
    events = []
    for fam, length in segments:
        for _ in range(length):
            x = rng.uniform(-1.0, 1.0, size=d)
            if fam == "linear":
                events.append(ar.LossSpec("linear", {"g": x}))
            elif fam == "quadratic":
                params = {"u": rng.uniform(-0.8, 0.8, size=d), "lam": float(rng.uniform(0.2, 1.0)),
                          "b": 0.1 * x}
                events.append(ar.LossSpec("quadratic", params))
            elif fam == "log-like":
                events.append(ar.LossSpec("log-like", {"x": x, "y": float(rng.choice([-1.0, 1.0]))}))
            else:
                events.append(ar.LossSpec(fam, {"x": x, "y": float(rng.uniform(-0.6, 0.6))}))
    return events


_SWITCHING = [("absolute", 12), ("log-like", 9), ("quadratic", 7), ("absolute", 6),
              ("squared-prediction", 8), ("linear", 5), ("log-like", 6)]
_DOMAINS_1D = {
    "box": ar.Domain.box(np.array([-1.0]), np.array([0.7])),
    "ball": ar.Domain.ball(np.array([0.2]), 0.9),
}
_REGS = {
    "none": ar.Regularizer(),
    "l1": ar.Regularizer("l1", 0.1),
    "sq-l2": ar.Regularizer("squared-l2", 0.2),
}


def _scipy_brent(ev, lo, hi, maxiter=500):
    from scipy.optimize import minimize_scalar

    return minimize_scalar(
        lambda x: ev.value_sum(np.array([x])),
        bounds=(lo, hi),
        method="bounded",
        options={"xatol": 1e-11, "maxiter": maxiter},
    )


def _bounds_1d(dom):
    if dom.kind == "ball":
        return float(dom.center_[0] - dom.radius), float(dom.center_[0] + dom.radius)
    return float(dom.lower[0]), float(dom.upper[0])


@pytest.mark.parametrize("maxiter", [500, 7], ids=["converged", "capped"])
@pytest.mark.parametrize("reg", sorted(_REGS))
@pytest.mark.parametrize("dom", sorted(_DOMAINS_1D))
def test_lockstep_brent_matches_scipy(dom, reg, maxiter):
    # [DERIVED] the lockstep port makes scipy's evaluations: on every window
    # the minimizer, its value and the evaluation count equal scipy's bounded
    # search on _WindowEval.value_sum, bit for bit, alone (K=1) and in a batch
    # of windows that straddle family switches.
    from adaregret.harness import _StreamEval, _WindowEval, _bounded_brent, _sum_values

    dom, reg = _DOMAINS_1D[dom], _REGS[reg]
    lo, hi = _bounds_1d(dom)
    # a periodic stretch gives straddling windows that share a family layout
    periodic = [("absolute", 3), ("log-like", 2)] * 5 + [("absolute", 16)]
    events = _mixed_stream(np.random.default_rng(21), 1, _SWITCHING + periodic)
    stream = _StreamEval(events, reg)
    T = len(events)
    ps = np.arange(1, T - 7 + 2)
    groups = sorted((rows for rows, _ in stream.layouts(ps, ps + 6)), key=len)
    batches = [(ps[rows], ps[rows] + 6) for rows in groups[:3] + groups[-3:]]
    batches += [(np.array([1]), np.array([T])), (np.array([5]), np.array([5]))]
    assert len(batches[0][0]) == 1 and len(batches[-3][0]) > 1
    for bp, bq in batches:
        [(_, layout)] = stream.layouts(bp, bq)
        groups = stream.gather(bp, layout)
        n = int(bq[0] - bp[0] + 1)

        def f(x, rows):
            part = {fam: {k: v[rows] for k, v in g.items()} for fam, g in groups.items()}
            return _sum_values(part, n, reg, x[:, None])

        x, fx, nfev = _bounded_brent(f, np.full(len(bp), lo), np.full(len(bp), hi), maxiter=maxiter)
        for k, (p, q) in enumerate(zip(bp, bq)):
            res = _scipy_brent(_WindowEval(events[p - 1 : q], reg), lo, hi, maxiter)
            assert (x[k], fx[k], nfev[k]) == (res.x, res.fun, res.nfev)


def _scalar_comparator_scipy(events, p, q, dom, reg):
    """The one-dimensional comparator as one scipy search per window: the
    bounds, then the Brent point, then the projected centre."""
    from adaregret.harness import _WindowEval

    ev = _WindowEval(events[p - 1 : q], reg)
    lo, hi = _bounds_1d(dom)
    best = np.array([float(_scipy_brent(ev, lo, hi).x)])
    for cand in (np.array([lo]), np.array([hi]), best):
        if ev.value_sum(cand) < ev.value_sum(best):
            best = cand
    candidates = [dom.project(best), dom.project(dom.center)]
    vals = [ev.value_sum(c) for c in candidates]
    k = int(np.argmin(vals))
    return candidates[k], float(vals[k])


@pytest.mark.parametrize("reg", sorted(_REGS))
@pytest.mark.parametrize("dom", sorted(_DOMAINS_1D))
def test_scalar_reports_match_scipy_per_window(dom, reg, monkeypatch):
    # [DERIVED] every comparator value behind a report, solved a batch at a
    # time (chunks shrunk to a few windows), equals the per-window scipy path
    # bit for bit, and so does offline_comparator on each window (point
    # included: on the flat zero-gradient stretch the projected Brent point
    # ties the centre and is kept).
    import adaregret.harness as harness

    monkeypatch.setattr(harness, "_CHUNK_ELEMENTS", 40)
    dom, reg = _DOMAINS_1D[dom], _REGS[reg]
    events = _mixed_stream(np.random.default_rng(8), 1, _SWITCHING)
    events += [ar.LossSpec("linear", {"g": np.zeros(1)}) for _ in range(8)]
    pts = [dom.project(np.array([0.3 * math.sin(t)])) for t in range(len(events))]
    rows = ar.adaptive_regret_report(events, pts, dom, tau_list=(1, 6, 16), reg=reg)
    rows += ar.gc_interval_regret(events, pts, dom, reg=reg)
    prefix = ar.cumulative_losses(events, pts, reg)
    for row in rows:
        w, want = _scalar_comparator_scipy(events, row.p, row.q, dom, reg)
        assert row.comparator_value == want
        assert row.empirical == float(prefix[row.q] - prefix[row.p - 1]) - want
        w1, v1 = ar.offline_comparator(events, row.p, row.q, dom, reg=reg)
        assert (w1.tolist(), v1) == (w.tolist(), want)


@pytest.mark.parametrize("d", [1, 2, 3, 5])
def test_batched_values_match_value_sum(d):
    # [DERIVED] the stream evaluator's batched sum objective equals
    # _WindowEval.value_sum at every point, bit for bit, on windows that
    # straddle family switches.
    from adaregret.harness import _StreamEval, _WindowEval

    rng = np.random.default_rng(d)
    events = _mixed_stream(rng, d, _SWITCHING)
    W = rng.uniform(-1.0, 1.0, size=(30, d))
    for reg in _REGS.values():
        stream = _StreamEval(events, reg)
        for p, q in ((1, len(events)), (10, 30), (13, 13), (20, 45)):
            ev = _WindowEval(events[p - 1 : q], reg)
            assert stream.values(p, q, W).tolist() == [ev.value_sum(w) for w in W]


def _quadratic_comparator_reference(events, dom, reg):
    """[REFERENCE] the d >= 2 comparator of one window, solved on its own:
    (w*, value, path). The closed forms, the least-squares fallback and the
    proximal gradient loop are transcribed; the ellipsoid is the harness's."""
    from adaregret.experts import prox_onto
    from adaregret.harness import _ellipsoid_minimize, _WindowEval

    d, n = dom.dim, len(events)
    ev = _WindowEval(events, reg)

    def finish(w, path):
        candidates = [dom.project(w), dom.project(dom.center)]
        vals = [ev.value_sum(c) for c in candidates]
        k = int(np.argmin(vals))
        return candidates[k], float(vals[k]), path

    if {e.family for e in events} <= {"linear", "quadratic", "squared-prediction"}:
        A, b = aggregate_quadratic(events, d)
        if reg.kind == "squared-l2" and not reg.is_zero:
            A = A + 2.0 * n * reg.weight * np.eye(d)
        l1 = reg.kind == "l1" and not reg.is_zero
        linear = float(np.linalg.norm(A)) == 0.0
        if linear and not l1:
            if dom.kind == "ball":
                norm = float(np.linalg.norm(b))
                w = dom.center if norm == 0.0 else dom.center_ - dom.radius * b / norm
            else:
                w = np.where(b > 0, dom.lower, np.where(b < 0, dom.upper, dom.center))
            return finish(w.astype(float), "linear")
        if not l1:
            try:
                w, path = np.linalg.solve(A, -b), "solve"
            except np.linalg.LinAlgError:
                w, path = np.linalg.lstsq(A, -b, rcond=None)[0], "lstsq"
                norm = np.linalg.norm
                scale = float(norm(A)) * float(norm(w)) + float(norm(b))
                if float(norm(A @ w + b)) > 1e3 * np.finfo(float).eps * scale:
                    w = None
            if w is not None and dom.contains(w):
                return finish(w, path)
        if not linear:
            step = 1.0 / float(np.linalg.eigvalsh(A)[-1])
            z = dom.project(dom.center)
            for _ in range(200_000):
                z_new = prox_onto(dom, reg if l1 else None, z - step * (b + A @ z), step * float(n))
                move = float(np.linalg.norm(z_new - z))
                z = z_new
                if move <= 1e-12:
                    return finish(z, "prox")
            raise ar.ConvergenceError("reference loop did not converge", residual=move)
    w, _, _ = _ellipsoid_minimize(ev, dom)
    return finish(w, "ellipsoid")


def _quadratic_stream(d):
    """Contiguous blocks of the quadratic-structure families: squared
    prediction with far targets, quadratics, linear rounds, squared prediction
    on the first coordinate only (a singular A whose b lies in its range) and
    linear rounds off that coordinate (a b outside it)."""
    rng = np.random.default_rng(30 + d)
    events = []
    for _ in range(d + 1):
        x = rng.uniform(-1.0, 1.0, size=d)
        y = float(x @ rng.uniform(-3, 3, size=d))
        events.append(ar.LossSpec("squared-prediction", {"x": x, "y": y}))
    for _ in range(4):
        params = {"u": rng.uniform(-0.5, 0.5, size=d), "lam": float(rng.uniform(0.3, 1.0)),
                  "b": rng.uniform(-0.2, 0.2, size=d)}
        events.append(ar.LossSpec("quadratic", params))
    for _ in range(3):
        events.append(ar.LossSpec("linear", {"g": rng.uniform(-1.0, 1.0, size=d)}))
    for _ in range(2):
        x = np.zeros(d)
        x[0] = float(rng.uniform(0.3, 1.0))
        events.append(ar.LossSpec("squared-prediction", {"x": x, "y": 0.1 * x[0]}))
    for _ in range(2):
        g = np.zeros(d)
        g[1] = float(rng.uniform(-1.0, 1.0))
        events.append(ar.LossSpec("linear", {"g": g}))
    for _ in range(3):
        x = rng.uniform(-1.0, 1.0, size=d)
        y = float(rng.uniform(-0.5, 0.5))
        events.append(ar.LossSpec("squared-prediction", {"x": x, "y": y}))
    return events


_DOMAINS_ND = {
    "box": lambda d: ar.Domain.box(np.linspace(-1.0, -0.4, d), np.linspace(0.3, 0.9, d)),
    "ball": lambda d: ar.Domain.ball(np.zeros(d), 0.8),
    "off-ball": lambda d: ar.Domain.ball(np.linspace(0.3, -0.2, d), 0.6),
}


@pytest.mark.parametrize("reg", sorted(_REGS))
@pytest.mark.parametrize("dom", sorted(_DOMAINS_ND))
@pytest.mark.parametrize("d", [2, 5])
def test_quadratic_comparators_match_a_per_window_reference(d, dom, reg, monkeypatch):
    # [DERIVED] the d >= 2 comparators of many windows at once (mixed lengths,
    # in chunks of the default size and of a few windows), of one window at a
    # time, offline_comparator on each window and a regret report's
    # comparator values equal the per-window reference, point and value bit
    # for bit, windows whose families interleave (linear, squared
    # prediction, linear) included. The windows cover every path: the linear
    # closed form, a solve, the least-squares fallback, the proximal gradient
    # loop and (linear with l1) the ellipsoid.
    import adaregret.harness as harness

    dom, reg = _DOMAINS_ND[dom](d), _REGS[reg]
    events = _quadratic_stream(d)
    T = len(events)
    windows = [(p, p + n - 1) for n in (1, 2, 3, 5, T) for p in range(1, T - n + 2)]
    ps, qs = (np.array(v) for v in zip(*windows))
    want = [_quadratic_comparator_reference(events[p - 1 : q], dom, reg) for p, q in windows]
    paths = {path for _, _, path in want}
    want_paths = {
        "none": {"linear", "solve", "lstsq", "prox"},
        "l1": {"prox", "ellipsoid"},
        "squared-l2": {"solve", "prox"},  # the l2 term makes A nonsingular
    }
    assert want_paths[reg.kind] <= paths
    stream = harness._StreamEval(events, reg)
    W, V = harness._comparators(stream, ps, qs, dom)
    assert [(w.tolist(), v) for w, v in zip(W, V.tolist())] == [(w.tolist(), v) for w, v, _ in want]
    for (p, q), (w, v, _) in zip(windows, want):
        W1, V1 = harness._comparators(stream, np.array([p]), np.array([q]), dom)
        assert (W1[0].tolist(), float(V1[0])) == (w.tolist(), v)
        w1, v1 = ar.offline_comparator(events, p, q, dom, reg=reg)
        assert (w1.tolist(), v1) == (w.tolist(), v)
    monkeypatch.setattr(harness, "_CHUNK_ELEMENTS", 12)
    W, V = harness._comparators(stream, ps, qs, dom)
    assert [(w.tolist(), v) for w, v in zip(W, V.tolist())] == [(w.tolist(), v) for w, v, _ in want]
    # the exhaustive report over these lengths scores the same windows, in order
    pts = [dom.project(dom.center)] * T
    rows = ar.adaptive_regret_report(events, pts, dom, tau_list=(1, 2, 3, 5, T), reg=reg)
    assert [(r.p, r.q, r.comparator_value) for r in rows] == [
        (p, q, v) for (p, q), (_, v, _) in zip(windows, want)
    ]


def test_quadratic_comparators_step_cap_raises():
    # [DERIVED] two proximal gradient steps do not settle these l1 windows:
    # the lockstep loop raises, with the largest last move as its residual
    import adaregret.harness as harness

    reg = ar.Regularizer("l1", 0.1)
    stream = harness._StreamEval(_quadratic_stream(5), reg)
    ps = np.arange(1, 7)
    with pytest.raises(ar.ConvergenceError) as exc:
        harness._comparators(stream, ps, ps + 3, ar.Domain.ball(np.zeros(5), 0.8), cap=2)
    assert "2 steps" in str(exc.value) and exc.value.residual > 1e-12


@pytest.mark.parametrize("kind", ["box", "ball"])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_dominance_probes_match_one_at_a_time(d, kind):
    # [DERIVED] the batched probe check returns the smallest value_sum over
    # 100 Domain.sample draws plus the projected candidates, bit for bit,
    # with or without a whole-stream evaluator.
    from adaregret.harness import _StreamEval, _WindowEval

    rng = np.random.default_rng(10 + d)
    if kind == "box":
        dom = ar.Domain.box(rng.uniform(-1.0, -0.2, size=d), rng.uniform(0.1, 1.0, size=d))
    else:
        dom = ar.Domain.ball(rng.uniform(-0.3, 0.3, size=d), 0.8)
    events = _mixed_stream(rng, d, _SWITCHING)
    reg = ar.Regularizer("l1", 0.1)
    candidates = [rng.uniform(-2.0, 2.0, size=d) for _ in range(4)]
    for p, q in ((3, 30), (40, 53)):
        draws = np.random.default_rng(p * 1_000_003 + q)
        probes = [dom.sample(draws) for _ in range(100)] + [dom.project(c) for c in candidates]
        ev = _WindowEval(events[p - 1 : q], reg)
        want = min(ev.value_sum(w) for w in probes)
        for stream in (None, _StreamEval(events, reg)):
            got = comparator_dominance_check(
                events, p, q, dom, -1e9, reg=reg, candidates=candidates, stream=stream
            )
            assert got == want


@pytest.mark.parametrize("d", [1, 2, 3, 5])
def test_box_probe_draws_match_domain_sample(d):
    # [DERIVED] one bulk uniform draw on a box gives the points, in order, of
    # 100 Domain.sample calls on the same generator
    rng = np.random.default_rng(d)
    dom = ar.Domain.box(rng.uniform(-2.0, 0.0, size=d), rng.uniform(0.0, 2.0, size=d))
    for seed in range(20):
        bulk = np.random.default_rng(seed).uniform(dom.lower, dom.upper, size=(100, d))
        one_by_one = np.random.default_rng(seed)
        assert bulk.tolist() == [dom.sample(one_by_one).tolist() for _ in range(100)]


def test_dominance_check(box1):
    events = make_absolute_stream(8, box1, noise=0.3, seed=5)
    _, val = ar.offline_comparator(events, 1, 8, box1)
    # the true optimum dominates every probe
    low = comparator_dominance_check(events, 1, 8, box1, val, seed=0)
    assert low >= val - 1e-12
    # an inflated "comparator value" is beaten by some probe
    with pytest.raises(ar.InvariantViolation) as exc:
        comparator_dominance_check(events, 1, 8, box1, val + 0.5, seed=0)
    assert exc.value.name == "comparator-optimality"


def test_playing_comparator_gives_zero_regret(box1):
    events = make_absolute_stream(20, box1, noise=0.4, seed=6)
    w, _ = ar.offline_comparator(events, 1, 20, box1)
    pts = [w] * 20
    prefix = ar.cumulative_losses(events, pts)
    emp, _ = ar.interval_regret(events, prefix, 1, 20, box1, trajectory=pts)
    assert abs(emp) <= 1e-9


def test_flip_stream_interval_regret_closed_form(ball2):
    # gradient +g for 32 rounds then -g; trajectory pinned at the pre-flip
    # optimum -g/||g||. On any post-flip interval of length tau the comparator
    # earns -||g|| tau while the trajectory pays +||g|| tau: regret 2 ||g|| tau.
    g = np.array([0.8, 0.0])
    events = [ar.LossSpec("linear", {"g": g}) for _ in range(32)]
    events += [ar.LossSpec("linear", {"g": -g}) for _ in range(32)]
    pts = [np.array([-1.0, 0.0])] * 64
    prefix = ar.cumulative_losses(events, pts)
    for (p, q) in [(33, 64), (40, 47), (50, 50)]:
        tau = q - p + 1
        emp, comp = ar.interval_regret(events, prefix, p, q, ball2, trajectory=pts)
        assert comp == pytest.approx(-0.8 * tau, abs=1e-12)
        assert emp == pytest.approx(2 * 0.8 * tau, abs=1e-12)
    # the full horizon nets out to zero for both learner and comparator
    emp, comp = ar.interval_regret(events, prefix, 1, 64, ball2, trajectory=pts)
    assert comp == pytest.approx(0.0, abs=1e-12)
    assert emp == pytest.approx(0.0, abs=1e-12)


# ---------------------------------------------------------------------------
# Regret reports


def _short_run(horizon=64, seed=2, algo="uma2-surrogate"):
    dom = ar.Domain.box(np.array([-1.0]), np.array([1.0]))
    events = make_absolute_stream(horizon, dom, noise=0.4, seed=seed)
    learner = ar.build_learner(
        ar.LearnerConfig(algorithm=algo, domain=dom, G=1.0, horizon=horizon)
    )
    recs = ar.run(learner, events)
    return dom, events, [r.w for r in recs]


def test_report_exhaustive_counts():
    dom, events, pts = _short_run(horizon=32)
    rows = ar.adaptive_regret_report(events, pts, dom, tau_list=(4, 32))
    by_tau = {}
    for row in rows:
        by_tau.setdefault(row.tau, []).append(row)
        assert row.q - row.p + 1 == row.tau
        assert math.isnan(row.bound_rhs) and math.isnan(row.ratio)
    assert len(by_tau[4]) == 32 - 4 + 1
    assert len(by_tau[32]) == 1
    assert [r.p for r in by_tau[4]] == list(range(1, 30))


def test_report_anchored_starts():
    dom, events, pts = _short_run(horizon=64)
    rows = ar.adaptive_regret_report(events, pts, dom, tau_list=(16,), mode="anchored")
    starts = [r.p for r in rows]
    # {1} plus multiples of ceil(16/4) = 4 while the window fits
    assert starts == [1] + [4 * j for j in range(1, 13)]


def test_report_tau_validation():
    dom, events, pts = _short_run(horizon=32)
    with pytest.raises(ar.InputError, match=r"evaluation\.tau 33 outside \[1, 32\]"):
        ar.adaptive_regret_report(events, pts, dom, tau_list=(33,))
    with pytest.raises(ar.InputError):
        ar.adaptive_regret_report(events, pts, dom, tau_list=(0,))
    with pytest.raises(ar.InputError):
        ar.adaptive_regret_report(events, pts, dom, tau_list=(8,), mode="sideways")


def test_report_with_bound_ratios():
    dom, events, pts = _short_run(horizon=32)
    params = {"G": 1.0, "D": dom.diameter, "d": 1, "T": 32}
    fn = ar.bound_fn_for("uma2-surrogate", "convex", params)
    rows = ar.adaptive_regret_report(events, pts, dom, tau_list=(8,), bound_fn=fn)
    for row in rows:
        assert row.bound_rhs > 0 and math.isfinite(row.bound_rhs)
        assert row.ratio == pytest.approx(row.empirical / row.bound_rhs)
        assert row.ratio <= 1.0


def test_gc_interval_regret_covers_schedule():
    dom, events, pts = _short_run(horizon=64)
    params = {"G": 1.0, "D": dom.diameter, "d": 1, "T": 64}
    fn = ar.bound_fn_for("uma2-surrogate", "convex", params)
    rows = ar.gc_interval_regret(events, pts, dom, bound_fn=fn)
    schedule = list(iter_gc_intervals(64))
    assert len(rows) == len(schedule) == 121
    assert {(r.p, r.q) for r in rows} == {(iv.start, iv.end) for iv in schedule}
    for row in rows:
        assert row.empirical <= row.bound_rhs


def test_second_order_check_on_learner_run():
    dom, events, pts = _short_run(horizon=64)
    rows = second_order_interval_check(events, pts, dom, G=1.0)
    assert len(rows) == 121
    for (r, s, lhs, rhs_grad, rhs_norm, slack) in rows:
        assert lhs <= rhs_grad + 1e-9
        assert lhs <= rhs_norm + 1e-9
        assert slack == pytest.approx(min(rhs_grad - lhs, rhs_norm - lhs))
        assert slack >= -1e-9


@pytest.mark.parametrize("d", [1, 2])
def test_second_order_check_matches_per_interval_comparators(d, monkeypatch):
    # [DERIVED] the GC intervals' comparators, solved together, are the
    # one-window offline_comparator points bit for bit, and so is every row:
    # each equals the row the check computes at that interval's own point
    import adaregret.harness as harness

    rng = np.random.default_rng(70 + d)
    dom = _DOMAINS_1D["ball"] if d == 1 else _DOMAINS_ND["off-ball"](d)
    events = _mixed_stream(rng, d, _SWITCHING)
    pts = [dom.sample(rng) for _ in events]
    seen = {}
    solve = harness.offline_comparator

    def recording(events, p, q, domain, reg=None, batch=None):
        assert batch is not None
        seen[(p, q)] = solve(events, p, q, domain, reg=reg, batch=batch)[0]
        return seen[(p, q)], math.nan

    monkeypatch.setattr(harness, "offline_comparator", recording)
    rows = second_order_interval_check(events, pts, dom, G=1.0)
    monkeypatch.undo()
    assert [row[:2] for row in rows] == [
        (iv.start, iv.end) for iv in iter_gc_intervals(len(events))
    ]
    for row in rows:
        w_ref, _ = ar.offline_comparator(events, row[0], row[1], dom)
        assert seen[row[:2]].tolist() == w_ref.tolist()
        alone = second_order_interval_check(events, pts, dom, G=1.0, reference=w_ref)
        assert row == next(r for r in alone if r[:2] == row[:2])


# ---------------------------------------------------------------------------
# Bound calculators — constants frozen from an independent transcription


def test_bound_constants_frozen():
    # [DERIVED] all evaluated at the interval [5, 68] with d=2, T=512
    assert bound_constant_b(5, 68) == 14
    assert bound_constant_c(68) == pytest.approx(157.20495634355368, rel=1e-14)
    assert bound_constant_a(5, 68, 2) == pytest.approx(41.07099963075236, rel=1e-14)
    assert bound_constant_ahat(5, 68) == pytest.approx(44.46012216924809, rel=1e-14)
    assert bound_constant_xi(5, 68) == pytest.approx(4.68213122712422, rel=1e-14)
    assert bound_constant_h(68, 512) == pytest.approx(148.48449119553058, rel=1e-14)


def test_composite_constants_frozen():
    assert composite_expert_count(1) == 3
    assert composite_expert_count(16) == 7
    assert composite_expert_count(1024) == 13
    phi1, phi2, phi3, _ = composite_phis(512)
    assert phi1 == pytest.approx(9.418849316794887, rel=1e-14)
    assert phi2 == pytest.approx(49.627307646651765, rel=1e-14)
    assert phi3 == pytest.approx(8.7837800880564, rel=1e-13)


def test_composite_expert_count_matches_construction(box1):
    from adaregret.algorithms import UMSCompCore

    reg = ar.Regularizer("l1", 0.1)
    for horizon in (1, 2, 16, 100, 1024):
        core = UMSCompCore(box1, 1.0, reg, horizon, fp_tol=1e-3)
        assert len(core.slots) == composite_expert_count(horizon)


# [DERIVED] independent transcription of each bound formula, evaluated at
# p=5, q=68 with G=1.5, D=1, d=2, T=512, alpha=0.5, lam=0.5.
FROZEN_BOUNDS = {
    ("T1", "convex"): 7343.924015748525,
    ("T1", "exp-concave"): 21911.385864823802,
    ("T1", "strongly-convex"): 11238.619737123157,
    ("T2", "convex"): 23381.990129836973,
    ("T2", "exp-concave"): 29592.545185528703,
    ("T2", "strongly-convex"): 25692.95314714606,
    ("T3", "convex"): 6837.065847235093,
    ("T3", "exp-concave"): 236732.5477637837,
    ("T3", "strongly-convex"): 120939.4537488895,
    ("T4", "convex"): 374.0723437763481,
    ("T4", "exp-concave"): 1954.1020211675452,
    ("T4", "strongly-convex"): 3539.21717684992,
    ("T5", "convex"): 3633.1080865471204,
    ("T5", "exp-concave"): 37269.63238014054,
    ("T5", "strongly-convex"): 46492.21813873883,
}


@pytest.mark.parametrize("key", sorted(FROZEN_BOUNDS))
def test_theorem_bounds_frozen(key):
    theorem, ftype = key
    params = {"G": 1.5, "D": 1.0, "d": 2, "T": 512, "alpha": 0.5, "lam": 0.5}
    got = ar.theorem_bound_rhs(theorem, ftype, params, 5, 68)
    assert got == pytest.approx(FROZEN_BOUNDS[key], rel=1e-12)


def test_bound_aliases_agree():
    params = {"G": 1.5, "D": 1.0, "d": 2, "T": 512, "alpha": 0.5, "lam": 0.5}
    pairs = [
        ("adaptive-grid", "T1"),
        ("adaptive-surrogate", "T2"),
        ("adaptive-universal", "T3"),
        ("static-composite", "T4"),
        ("adaptive-composite", "T5"),
    ]
    for alias, tag in pairs:
        for ftype in ("convex", "exp-concave", "strongly-convex"):
            assert ar.theorem_bound_rhs(alias, ftype, params, 5, 68) == ar.theorem_bound_rhs(
                tag, ftype, params, 5, 68
            )
    assert ALGORITHM_BOUNDS == {
        "uma2-grid": "T1",
        "uma2-surrogate": "T2",
        "uma3": "T3",
        "ums-comp": "T4",
        "uma-comp": "T5",
    }


def test_theorem_bound_validation():
    params = {"G": 1.0, "D": 2.0, "d": 1, "T": 64}
    with pytest.raises(ar.InputError):
        ar.theorem_bound_rhs("T9", "convex", params, 1, 8)
    with pytest.raises(ar.InputError):
        ar.theorem_bound_rhs("T1", "concave", params, 1, 8)
    with pytest.raises(ar.InputError):
        ar.theorem_bound_rhs("T1", "exp-concave", params, 1, 8)  # no alpha
    with pytest.raises(ar.InputError):
        ar.theorem_bound_rhs("T1", "strongly-convex", params, 1, 8)  # no lam
    with pytest.raises(ar.InputError):
        ar.theorem_bound_rhs("T1", "convex", params, 9, 8)


def test_bound_fn_for_static_and_baselines():
    params = {"G": 1.0, "D": 2.0, "d": 1, "T": 64}
    fn = ar.bound_fn_for("ums-comp", "convex", params)
    assert math.isfinite(fn(1, 64))
    assert math.isnan(fn(2, 64))
    assert math.isnan(fn(1, 63))
    assert ar.bound_fn_for("baseline-ogd", "convex", params) is None
    assert ar.bound_fn_for("uma2-surrogate", "mixed", params) is None
    sliding = ar.bound_fn_for("uma3", "convex", params)
    assert sliding(3, 10) == ar.theorem_bound_rhs("T3", "convex", params, 3, 10)
