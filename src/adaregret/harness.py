"""Benchmark harness: synthetic streams, offline comparators, regret reports,
and closed-form regret-bound calculators for the learner family.

All "log" in bound expressions is the natural logarithm; base-2 logs are
written log2 explicitly.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .core import (
    Array,
    ConvergenceError,
    Domain,
    InputError,
    InvariantViolation,
    LossSpec,
    Regularizer,
    check_loss_on_domain,
    row_norms,
)
from .experts import prox_onto_rows
from .intervals import iter_gc_intervals

# ---------------------------------------------------------------------------
# Stream configuration and generation


@dataclass
class SegmentSpec:
    """A contiguous block of rounds drawn from one loss family.

    params by family (all optional with sane defaults):
      absolute / squared-prediction / log-like:
          target (comparator anchor), scale (feature magnitude), noise
      quadratic: target, noise (anchor jitter), b_scale (linear term size)
      linear:    direction (fixed gradient vector; zeros give a zero stream)
    """

    length: int
    family: str = "absolute"
    declared_type: str = "convex"
    modulus: float | None = None
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.length < 1:
            raise InputError("segment length must be >= 1")


@dataclass
class StreamConfig:
    horizon: int
    dimension: int
    domain: Domain
    gradient_bound: float
    segments: list[SegmentSpec]
    regularizer: Regularizer = field(default_factory=Regularizer)
    seed: int = 0

    def __post_init__(self):
        total = sum(s.length for s in self.segments)
        if total != self.horizon:
            raise InputError(
                f"segment lengths sum to {total}, horizon is {self.horizon}"
            )
        if self.domain.dim != self.dimension:
            raise InputError("domain dimension does not match stream dimension")
        if self.gradient_bound <= 0:
            raise InputError("gradient bound must be positive")

    def declared_profile(self) -> tuple[str, float | None]:
        """(function_type, modulus) when all segments agree, else ("mixed", None)."""
        types = {s.declared_type for s in self.segments}
        if len(types) != 1:
            return "mixed", None
        tp = types.pop()
        if tp == "convex":
            return tp, None
        moduli = [s.modulus for s in self.segments]
        return tp, min(moduli)


def _unit(rng: np.random.Generator, d: int) -> Array:
    g = rng.standard_normal(d)
    n = float(np.linalg.norm(g))
    if n == 0.0:
        g = np.zeros(d)
        g[0] = 1.0
        return g
    return g / n


def _segment_events(
    seg: SegmentSpec, cfg: StreamConfig, rng: np.random.Generator
) -> list[LossSpec]:
    d = cfg.dimension
    G = cfg.gradient_bound
    W = cfg.domain.max_norm()
    p = seg.params
    target = np.asarray(p.get("target", np.zeros(d)), dtype=float)
    noise = float(p.get("noise", 0.0))
    events: list[LossSpec] = []

    if seg.family == "linear":
        direction = np.asarray(p.get("direction", np.zeros(d)), dtype=float)
        if float(np.linalg.norm(direction)) > G + 1e-12:
            raise InputError("linear segment direction exceeds the gradient bound")
        for _ in range(seg.length):
            events.append(
                LossSpec("linear", {"g": direction.copy()}, seg.declared_type, seg.modulus, G)
            )
        return events

    if seg.family == "quadratic":
        lam = seg.modulus if seg.modulus is not None else float(p.get("lam", 1.0))
        b_scale = float(p.get("b_scale", 0.0))
        if lam * cfg.domain.diameter + b_scale > G + 1e-9:
            raise InputError("quadratic segment violates the gradient bound")
        for _ in range(seg.length):
            u = cfg.domain.project(target + noise * rng.uniform(-1.0, 1.0) * _unit(rng, d))
            b = b_scale * _unit(rng, d) if b_scale > 0 else np.zeros(d)
            events.append(
                LossSpec(
                    "quadratic", {"u": u, "lam": lam, "b": b}, seg.declared_type, seg.modulus, G
                )
            )
        return events

    if seg.family not in ("absolute", "squared-prediction", "log-like"):
        raise InputError(f"unknown loss family {seg.family!r}")
    if seg.family == "squared-prediction":
        scale = float(p.get("scale", 0.5 * G))
        y_max = scale * float(np.linalg.norm(target)) + noise
        B = scale * W + y_max  # worst-case |<x,w> - y| over the domain
        if 2.0 * B * scale > G + 1e-9:
            raise InputError("squared-prediction segment violates the gradient bound")
        alpha_true = 1.0 / (2.0 * B * B)
        if seg.modulus is not None and seg.modulus > alpha_true + 1e-12:
            raise InputError(
                f"declared exp-concavity {seg.modulus} exceeds attainable {alpha_true:.6g}"
            )
    else:
        scale = float(p.get("scale", G))
        if scale > G + 1e-12:
            raise InputError(f"{seg.family} segment scale exceeds the gradient bound")
    # one draw path for the (x, y) families; log-like keeps only the sign of y
    for _ in range(seg.length):
        x = scale * rng.uniform(0.5, 1.0) * _unit(rng, d)
        y = float(np.dot(x, target)) + noise * rng.uniform(-1.0, 1.0)
        if seg.family == "log-like":
            y = 1.0 if y >= 0 else -1.0
        events.append(LossSpec(seg.family, {"x": x, "y": y}, seg.declared_type, seg.modulus, G))
    return events


def generate_stream(cfg: StreamConfig) -> list[LossSpec]:
    """Deterministic synthetic stream; same config + seed => identical events.

    The first three events of each segment are checked against the domain
    (gradient bound and declared curvature) with a generator of their own,
    so the check draws nothing from the stream's."""
    rng = np.random.default_rng(cfg.seed)
    events: list[LossSpec] = []
    for seg in cfg.segments:
        seg_events = _segment_events(seg, cfg, rng)
        if seg_events:
            check_rng = np.random.default_rng(cfg.seed + 1)
            for ev in seg_events[: min(3, len(seg_events))]:
                check_loss_on_domain(ev, cfg.domain, check_rng, samples=10)
        events.extend(seg_events)
    return events


# ---------------------------------------------------------------------------
# Offline comparator


def _by_family(events: Sequence[LossSpec]) -> dict[str, dict[str, Array]]:
    """Each family's params stacked in event order, families in order of first
    appearance."""
    by_family: dict[str, list[LossSpec]] = {}
    for ev in events:
        by_family.setdefault(ev.family, []).append(ev)
    groups: dict[str, dict[str, Array]] = {}
    for fam, evs in by_family.items():
        if fam == "linear":
            groups[fam] = {"g": np.stack([e.params["g"] for e in evs])}
        elif fam in ("absolute", "squared-prediction", "log-like"):
            groups[fam] = {
                "x": np.stack([e.params["x"] for e in evs]),
                "y": np.array([e.params["y"] for e in evs]),
            }
        else:
            groups[fam] = {
                "u": np.stack([e.params["u"] for e in evs]),
                "lam": np.array([e.params["lam"] for e in evs]),
                "b": np.stack([e.params["b"] for e in evs]),
            }
    return groups


class _WindowEval:
    """Sum objective and its subgradient over one window of events, as the
    ellipsoid method reads them."""

    def __init__(self, events: Sequence[LossSpec], reg: Regularizer | None):
        self.n = len(events)
        self.reg = reg if reg is not None else Regularizer()
        self.groups = _by_family(events)

    def value_sum(self, w: Array) -> float:
        total = 0.0
        for fam, g in self.groups.items():
            if fam == "linear":
                total += float(np.sum(g["g"] @ w))
            elif fam == "absolute":
                total += float(np.sum(np.abs(g["x"] @ w - g["y"])))
            elif fam == "squared-prediction":
                total += float(np.sum((g["x"] @ w - g["y"]) ** 2))
            elif fam == "log-like":
                total += float(np.sum(np.logaddexp(0.0, -g["y"] * (g["x"] @ w))))
            else:
                diff = w[None, :] - g["u"]
                total += float(
                    np.sum(0.5 * g["lam"] * np.sum(diff * diff, axis=1) + g["b"] @ w)
                )
        return total + self.n * self.reg.value(w)

    def mean_grad(self, w: Array) -> Array:
        grad = np.zeros_like(w)
        for fam, g in self.groups.items():
            if fam == "linear":
                grad += np.sum(g["g"], axis=0)
            elif fam == "absolute":
                s = np.sign(g["x"] @ w - g["y"])
                grad += g["x"].T @ s
            elif fam == "squared-prediction":
                r = g["x"] @ w - g["y"]
                grad += 2.0 * (g["x"].T @ r)
            elif fam == "log-like":
                m = -g["y"] * (g["x"] @ w)
                sig = 1.0 / (1.0 + np.exp(-m))
                grad += g["x"].T @ (-g["y"] * sig)
            else:
                diff = w[None, :] - g["u"]
                grad += g["lam"] @ diff + np.sum(g["b"], axis=0)
        return grad / self.n


# Windows x rounds evaluated per batched call; bounds the evaluation's scratch
# memory at a few MB whatever the number and length of the windows.
_CHUNK_ELEMENTS = 1 << 16
# The families of a window in their order of first appearance, as (family
# index, rounds of that family) pairs.
_Layout = list[tuple[int, int]]


def _inner(X: Array, W: Array) -> Array:
    """Inner products <X[k, j], W[k]>, shape (K, n), for X of shape (K or 1, n, d).

    A one-dimensional product is one multiplication; for d >= 2 row k is the
    matrix-vector product X[k] @ W[k], as a one-window evaluation computes it.
    """
    if W.shape[1] == 1:
        return X[:, :, 0] * W
    return np.stack([x @ w for x, w in zip(np.broadcast_to(X, (len(W),) + X.shape[1:]), W)])


def _sum_values(groups: dict[str, dict[str, Array]], n: int, reg: Regularizer, W: Array) -> Array:
    """Sum objective of window k at the point W[k], for every row of W (K, d).

    groups holds the windows' params, families in their order of first
    appearance, each array with a leading window axis of length K (or 1, one
    window shared by every row). Row k equals _WindowEval.value_sum(W[k]) bit
    for bit: it takes the same floating-point operations in the same order,
    and a row sum of a contiguous array adds like the 1-D sum.
    """
    total = np.zeros(len(W))
    for fam, g in groups.items():
        if fam == "linear":
            terms = _inner(g["g"], W)
        elif fam == "absolute":
            terms = np.abs(_inner(g["x"], W) - g["y"])
        elif fam == "squared-prediction":
            terms = (_inner(g["x"], W) - g["y"]) ** 2
        elif fam == "log-like":
            terms = np.logaddexp(0.0, -g["y"] * _inner(g["x"], W))
        else:
            diff = W[:, None, :] - g["u"]
            terms = 0.5 * g["lam"] * np.sum(diff * diff, axis=2) + _inner(g["b"], W)
        total += np.sum(terms, axis=1)
    return total + n * reg.value_rows(W)


class _StreamEval:
    """Sum-objective evaluation of any window of one stream.

    Each family's params are stacked once in stream order, so a family's
    events inside a window [p, q] are one contiguous slice, located by the
    family's prefix counts. Within a window the families are grouped in order
    of first appearance, as _WindowEval groups them.
    """

    def __init__(self, events: Sequence[LossSpec], reg: Regularizer | None):
        self.events = events
        self.reg = reg if reg is not None else Regularizer()
        groups = _by_family(events)
        self.families = list(groups)
        self.stacks = list(groups.values())
        index = {fam: f for f, fam in enumerate(self.families)}
        T, F = len(events), len(self.families)
        self.code = code = np.array([index[ev.family] for ev in events], dtype=np.int64)
        member = code[None, :] == np.arange(F)[:, None]
        # count[f, t]: rounds of family f among rounds 1..t
        self.count = np.zeros((F, T + 1), dtype=np.int64)
        np.cumsum(member, axis=1, out=self.count[:, 1:])
        # absent[f]: a position past the stream, distinct per family
        self.absent = T + 1 + np.arange(F)[:, None]
        # first[f, t - 1]: the first round >= t of family f (absent[f] if none)
        pos = np.where(member, np.arange(1, T + 1), self.absent)
        self.first = np.minimum.accumulate(pos[:, ::-1], axis=1)[:, ::-1]

    def layouts(self, ps: Array, qs: Array) -> list[tuple[Array, _Layout]]:
        """Group the windows [ps[k], qs[k]] by family layout: (window indices,
        layout) pairs."""
        count = self.count[:, qs] - self.count[:, ps - 1]
        order = np.argsort(np.where(count > 0, self.first[:, ps - 1], self.absent), axis=0)
        keys = np.concatenate([order, np.take_along_axis(count, order, axis=0)]).T.tolist()
        members: dict[tuple[int, ...], list[int]] = {}
        for k, key in enumerate(keys):
            members.setdefault(tuple(key), []).append(k)
        F = len(self.families)
        return [
            (np.array(rows), [(f, c) for f, c in zip(key[:F], key[F:]) if c > 0])
            for key, rows in members.items()
        ]

    @functools.cached_property
    def quadratic_terms(self) -> tuple[Array, Array, Array]:
        """(x, lam, b), one row per round: round t adds 2 x[t] x[t]^T + lam[t] I
        to a quadratic-structure window's A and b[t] to its b, with the
        arithmetic of one event's update; rounds of other families read 0."""
        d = next(v.shape[1] for v in self.stacks[0].values() if v.ndim == 2)
        T = len(self.code)
        x, lam, b = np.zeros((T, d)), np.zeros(T), np.zeros((T, d))
        for f, (fam, g) in enumerate(zip(self.families, self.stacks)):
            rounds = self.code == f
            if fam == "linear":
                b[rounds] = g["g"]
            elif fam == "quadratic":
                lam[rounds] = g["lam"]
                b[rounds] = g["b"] - g["lam"][:, None] * g["u"]
            elif fam == "squared-prediction":
                x[rounds] = g["x"]
                b[rounds] = (-2.0 * g["y"])[:, None] * g["x"]
        return x, lam, b

    def gather(self, ps: Array, layout: _Layout) -> dict[str, dict[str, Array]]:
        """Params of the windows starting at ps that share `layout`, each array
        with a leading window axis."""
        groups = {}
        for f, n_f in layout:
            idx = self.count[f, ps - 1][:, None] + np.arange(n_f)
            groups[self.families[f]] = {k: v[idx] for k, v in self.stacks[f].items()}
        return groups

    def values(self, p: int, q: int, W: Array) -> Array:
        """Sum objective of the window [p, q] at every row of W."""
        [(_, layout)] = self.layouts(np.array([p]), np.array([q]))
        groups = self.gather(np.array([p]), layout)
        n = q - p + 1
        step = max(1, _CHUNK_ELEMENTS // n)
        parts = [_sum_values(groups, n, self.reg, W[i : i + step]) for i in range(0, len(W), step)]
        return np.concatenate(parts) if parts else np.zeros(0)


# scipy's constants in _minimize_scalar_bounded, and the absolute tolerance
# every one-dimensional comparator search uses
_SQRT_EPS = math.sqrt(2.2e-16)
_GOLDEN = 0.5 * (3.0 - math.sqrt(5.0))
_XATOL = 1e-11


def _bounded_brent(
    func: Callable[[Array, Array], Array],
    lo: Array,
    hi: Array,
    maxiter: int = 500,
) -> tuple[Array, Array, Array]:
    """Bounded Brent minimization of K scalar functions in lockstep.

    A port of scipy 1.17.1's optimize._optimize._minimize_scalar_bounded to
    arrays: function k is evaluated at exactly the points scipy's search on
    [lo[k], hi[k]] evaluates, computed with the same floating-point
    operations, and stops on its own test (or when the evaluation count
    reaches maxiter). func(x, rows) returns the values of functions rows[i]
    at x[i]; rows lists the functions still searching and is a new array
    only after some stop. Returns (minimizer, value, evaluations) per function.
    """
    K = len(lo)
    x_out, f_out, n_out = np.empty(K), np.empty(K), np.zeros(K, dtype=np.int64)
    rows = np.arange(K)
    a, b = np.array(lo, dtype=float), np.array(hi, dtype=float)
    xf = a + _GOLDEN * (b - a)
    nfc = fulc = xf
    rat = e = np.zeros(K)
    fx = func(xf, rows)
    fnfc = ffulc = fx
    num = 1
    while True:
        xm = 0.5 * (a + b)
        tol1 = _SQRT_EPS * np.abs(xf) + _XATOL / 3.0
        tol2 = 2.0 * tol1
        run = np.abs(xf - xm) > (tol2 - 0.5 * (b - a))
        if not run.all():
            done = rows[~run]
            x_out[done], f_out[done], n_out[done] = xf[~run], fx[~run], num
            a, b, xf, fx, nfc, fnfc, fulc, ffulc, rat, e, xm, tol1, tol2, rows = (
                v[run] for v in (a, b, xf, fx, nfc, fnfc, fulc, ffulc, rat, e, xm, tol1, tol2, rows)
            )
            if not rows.size:
                break
        # parabolic fit through xf, nfc and fulc, taken where |e| > tol1 and
        # the step lands inside (a, b) and is less than half the step before last
        r = (xf - nfc) * (fx - ffulc)
        q = (xf - fulc) * (fx - fnfc)
        p = (xf - fulc) * q - (xf - nfc) * r
        q = 2.0 * (q - r)
        p = np.where(q > 0.0, -p, p)
        q = np.abs(q)
        fit = (
            (np.abs(e) > tol1)
            & (np.abs(p) < np.abs(0.5 * q * e))
            & (p > q * (a - xf))
            & (p < q * (b - xf))
        )
        with np.errstate(divide="ignore", invalid="ignore"):
            step = (p + 0.0) / q
        x = xf + step
        toward = np.sign(xm - xf) + ((xm - xf) == 0)
        step = np.where(((x - a) < tol2) | ((b - x) < tol2), tol1 * toward, step)
        # otherwise a golden-section step into the larger part of (a, b)
        golden = np.where(xf >= xm, a - xf, b - xf)
        e = np.where(fit, rat, golden)
        rat = np.where(fit, step, _GOLDEN * golden)

        si = np.sign(rat) + (rat == 0)
        x = xf + si * np.maximum(np.abs(rat), tol1)
        fu = func(x, rows)
        num += 1

        down = fu <= fx
        left = x < xf
        right = x >= xf
        a = np.where(down, np.where(right, xf, a), np.where(left, x, a))
        b = np.where(down, np.where(right, b, xf), np.where(left, b, x))
        up = ~down
        near = up & ((fu <= fnfc) | (nfc == xf))
        far = up & ~near & ((fu <= ffulc) | (fulc == xf) | (fulc == nfc))
        shift = down | near
        fulc = np.where(shift, nfc, np.where(far, x, fulc))
        ffulc = np.where(shift, fnfc, np.where(far, fu, ffulc))
        nfc = np.where(down, xf, np.where(near, x, nfc))
        fnfc = np.where(down, fx, np.where(near, fu, fnfc))
        xf = np.where(down, x, xf)
        fx = np.where(down, fu, fx)
        if num >= maxiter:
            x_out[rows], f_out[rows], n_out[rows] = xf, fx, num
            break
    return x_out, f_out, n_out


def _brent_points(
    stream: _StreamEval, starts: Array, layout: _Layout, n: int, domain: Domain
) -> tuple[Array, tuple[Array, ...]]:
    """`_comparators`' proposal (a K x 1 stack) for the one-dimensional
    windows of n rounds starting at `starts` that share `layout`: the bounded
    Brent search on the domain's interval [lo, hi] with xatol 1e-11 and 500
    evaluations, all windows in lockstep. Further candidates: lo, then hi.
    """
    if domain.kind == "ball":
        lo = float(domain.center_[0] - domain.radius)
        hi = float(domain.center_[0] + domain.radius)
    else:
        lo, hi = float(domain.lower[0]), float(domain.upper[0])
    K = len(starts)
    # the windows still searching and their params, one copy at a time
    searching = [K, stream.gather(starts, layout)]

    def objective(x: Array, rows: Array) -> Array:
        if len(rows) != searching[0]:  # some windows stopped
            searching[:] = len(rows), stream.gather(starts[rows], layout)
        return _sum_values(searching[1], n, stream.reg, x[:, None])

    x = _bounded_brent(objective, np.full(K, lo), np.full(K, hi))[0]
    return x[:, None], (np.full((K, 1), lo), np.full((K, 1), hi))


_QUADRATIC_FAMILIES = {"linear", "quadratic", "squared-prediction"}


def _quadratic_models(
    stream: _StreamEval, starts: Array, n: int, families: set[str]
) -> tuple[Array, Array]:
    """A (K, d, d) and b (K, d) of the quadratic-structure windows [starts[k],
    starts[k] + n - 1], whose sum objective is 0.5 w^T A w + b^T w plus a
    constant. One round offset at a time, every window adds its round's terms
    (`_StreamEval.quadratic_terms`), so each adds them in event order, as one
    event at a time would; the zero terms of other families change nothing.
    """
    x, lam, b_t = stream.quadratic_terms
    K, d = len(starts), x.shape[1]
    A, b = np.zeros((K, d, d)), np.zeros((K, d))
    eye = np.eye(d)
    for j in range(n):
        t = starts + (j - 1)
        if "squared-prediction" in families:
            xt = x[t]
            A += 2.0 * (xt[:, :, None] * xt[:, None, :])
        if "quadratic" in families:
            A += lam[t][:, None, None] * eye
        b += b_t[t]
    return A, b


def _minimize_linear(domain: Domain, gbar: Array) -> Array:
    if domain.kind == "ball":
        n = float(np.linalg.norm(gbar))
        if n == 0.0:
            return domain.center
        return domain.center_ - domain.radius * gbar / n
    out = domain.center
    out = np.where(gbar > 0, domain.lower, np.where(gbar < 0, domain.upper, out))
    return out.astype(float)


# Relative residual ||A w + b|| / (||A|| ||w|| + ||b||) up to which a
# least-squares point counts as stationary (measured: at most ~20 eps).
_ROUNDOFF = 1e3 * np.finfo(float).eps


def _stationary_point(A: Array, b: Array) -> Array | None:
    """A w with A w + b = 0, the unconstrained minimizer of 0.5 w^T A w + b^T w;
    None when A is singular and b has a part outside its range, where the
    objective is unbounded below and the minimum lies on the boundary."""
    try:
        return np.linalg.solve(A, -b)
    except np.linalg.LinAlgError:
        w = np.linalg.lstsq(A, -b, rcond=None)[0]
    scale = float(np.linalg.norm(A)) * float(np.linalg.norm(w)) + float(np.linalg.norm(b))
    return w if float(np.linalg.norm(A @ w + b)) <= _ROUNDOFF * scale else None


def _stationary_points(A: Array, b: Array) -> Array:
    """_stationary_point of every row (A[k], b[k]), a NaN row where it is None:
    one batched solve, or one window at a time when some A[k] is singular."""
    try:
        return np.linalg.solve(A, -b[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError:
        points = [_stationary_point(a, v) for a, v in zip(A, b)]
        return np.stack([np.full(len(v), np.nan) if w is None else w for w, v in zip(points, b)])


def _proximal_gradient_rows(
    domain: Domain, A: Array, b: Array, reg: Regularizer | None, scale: float, cap: int
) -> Array:
    """argmin_z <b[k], z> + 0.5 z^T A[k] z + scale * r(z) over the domain, for
    every k in lockstep.

    Row k repeats experts.proximal_gradient(domain, A[k], 1.0, 0.0, b[k], reg,
    scale, domain.project(domain.center), 1e-12, cap) bit for bit: steps of
    1/lambda_max(A[k]) from the projected centre, each row stopping on its own
    move <= 1e-12. Raises ConvergenceError when some row has taken `cap` steps.
    """
    K = len(b)
    step = 1.0 / np.linalg.eigvalsh(A)[:, -1]
    prox_scale = step * scale
    Z = np.tile(domain.project(domain.center), (K, 1))
    out = np.empty_like(Z)
    rows = np.arange(K)
    for _ in range(cap):
        grad = b + (A @ Z[:, :, None])[:, :, 0]
        Z_new = prox_onto_rows(domain, reg, Z - step[:, None] * grad, prox_scale)
        move = row_norms(Z_new - Z)
        Z = Z_new
        done = move <= 1e-12
        if done.any():
            out[rows[done]] = Z[done]
            run = ~done
            if not run.any():
                return out
            rows, Z, A, b, step, prox_scale, move = (
                v[run] for v in (rows, Z, A, b, step, prox_scale, move)
            )
    raise ConvergenceError(
        f"proximal gradient did not converge in {cap} steps", residual=float(move.max())
    )


# The generic comparator stops once its best value is within this relative gap
# of its certified lower bound: best - lower <= _GAP_TOL * (1 + |best|).
_GAP_TOL = 1e-9
# Step cap, as a multiple of the 2m(m+1) ln(1/tol) central cuts that the
# ellipsoid's volume argument needs in m dimensions.
_ELLIPSOID_CAP_FACTOR = 10


def _reg_subgradient(reg: Regularizer, w: Array) -> Array:
    if reg.is_zero:
        return np.zeros_like(w)
    if reg.kind == "l1":
        return reg.weight * np.sign(w)
    return 2.0 * reg.weight * w


def _ellipsoid_minimize(
    ev: _WindowEval, domain: Domain, cap: int | None = None
) -> tuple[Array, float, float]:
    """Central-cut ellipsoid method on the window's sum objective.

    Returns (w, value, lower): a feasible w, value = ev.value_sum(w), and a
    certified lower bound on the minimum over the domain with
    value - lower <= _GAP_TOL * (1 + |value|).

    The ellipsoid E = {c + J z : ||z|| <= 1} (shape P = J J^T) starts as the
    domain's enclosing ball; coordinates a box pins (lower == upper) are held
    fixed. An infeasible centre is cut by the domain: the outward normal for a
    ball, the most violated coordinate for a box. A feasible centre w_k takes
    an objective cut on a subgradient g_k. No cut removes a minimizer, so
    f(w_k) - ||J^T g_k|| = f(w_k) - sqrt(g_k^T P g_k) bounds the minimum from
    below; the bound also gives up a round-off allowance for the rounding
    error accumulated in c and J. J is updated in square-root form, which
    keeps the thin axes of a long, flat ellipsoid that an update of P would
    lose to cancellation.
    Raises ConvergenceError when the step cap runs out or J turns singular;
    it never returns an uncertified value.
    """
    if domain.kind == "ball":
        free = np.ones(domain.dim, dtype=bool)
        origin, radius = domain.center, domain.radius
    else:
        free = domain.upper > domain.lower
        lo, hi = domain.lower[free], domain.upper[free]
        origin, radius = 0.5 * (lo + hi), 0.5 * float(np.linalg.norm(hi - lo))
    w = domain.center
    m = int(np.count_nonzero(free))
    if m == 0:
        value = ev.value_sum(w)
        return w, value, value
    if cap is None:
        cap = _ELLIPSOID_CAP_FACTOR * math.ceil(2 * m * (m + 1) * math.log(1.0 / _GAP_TOL))
    c = origin.copy()
    J = radius * np.eye(m)
    drift = 0.0  # round-off allowance: the true ellipsoid lies within this of E
    best_w, best, lower = w, math.inf, -math.inf
    for _ in range(cap):
        if domain.kind == "ball":
            off = c - origin
            dist = float(np.linalg.norm(off))
            feasible = dist <= radius
            if not feasible:
                a = off / dist
        else:
            excess = np.maximum(c - hi, lo - c)
            i = int(np.argmax(excess))
            feasible = excess[i] <= 0.0
            if not feasible:
                a = np.zeros(m)
                a[i] = 1.0 if c[i] > hi[i] else -1.0
        if feasible:
            w = w.copy()
            w[free] = c
            value = ev.value_sum(w)
            a = ev.n * (ev.mean_grad(w) + _reg_subgradient(ev.reg, w))[free]
        p = J.T @ a
        width = float(np.linalg.norm(p))  # sqrt(a^T P a)
        if feasible:
            if value < best:
                best_w, best = w, value
            lower = max(lower, value - width - drift * float(np.linalg.norm(a)))
            if best - lower <= _GAP_TOL * (1.0 + abs(best)):
                return best_w, best, lower
        if not width > 0.0:
            raise ConvergenceError("comparator ellipsoid turned singular", residual=best - lower)
        u = p / width
        Ju = J @ u
        c = c - Ju / (m + 1)
        if m == 1:
            J = 0.5 * J
        else:
            J = (m / math.sqrt(m * m - 1.0)) * (
                J + (math.sqrt((m - 1.0) / (m + 1.0)) - 1.0) * np.outer(Ju, u)
            )
        drift += 4.0 * (m + 1) * np.finfo(float).eps * (
            float(np.linalg.norm(J)) + float(np.linalg.norm(c))
        )
    raise ConvergenceError(
        f"comparator ellipsoid method did not certify its gap in {cap} steps",
        residual=best - lower,
    )


def _quadratic_points(
    stream: _StreamEval, starts: Array, layout: _Layout, n: int, domain: Domain, cap: int
) -> tuple[Array, tuple[Array, ...]]:
    """`_comparators`' proposal (a K x d stack) for the windows of n rounds
    and dimension d >= 2 starting at `starts` that share `layout`; no further
    candidates.

    Windows whose families all have quadratic structure (linear, quadratic,
    squared prediction) build their A and b at once (`_quadratic_models`);
    each then takes the first path that applies:
      with no l1 term and A = 0: the linear closed form;
      with no l1 term: the stationary point when it is feasible;
      with A != 0: the proximal gradient, all such windows in lockstep
          (`_proximal_gradient_rows`, at most `cap` steps);
      a pure linear sum with an l1 term (no step length), and every window
          with absolute or log-like terms: the ellipsoid method, one window at
          a time.
    """
    d, reg = domain.dim, stream.reg
    l1 = reg.kind == "l1" and not reg.is_zero
    families = {stream.families[f] for f, _ in layout}
    K = len(starts)
    W = np.empty((K, d))
    generic = np.ones(K, dtype=bool)  # windows for the ellipsoid
    if families <= _QUADRATIC_FAMILIES:
        A, b = _quadratic_models(stream, starts, n, families)
        if reg.kind == "squared-l2" and not reg.is_zero:
            A = A + 2.0 * n * reg.weight * np.eye(d)
        linear = np.linalg.norm(A, axis=(1, 2)) == 0.0
        stepped = ~linear  # windows for the proximal gradient
        if not l1:
            for k in np.flatnonzero(linear):
                W[k] = _minimize_linear(domain, b[k])
            if stepped.any():
                W[stepped] = _stationary_points(A[stepped], b[stepped])
                stepped &= ~domain.contains_rows(W)
        if stepped.any():
            W[stepped] = _proximal_gradient_rows(
                domain, A[stepped], b[stepped], reg if l1 else None, float(n), cap
            )
        generic = linear & l1
    for k in np.flatnonzero(generic):
        window = stream.events[starts[k] - 1 : starts[k] - 1 + n]
        W[k] = _ellipsoid_minimize(_WindowEval(window, reg), domain)[0]
    return W, ()


def _comparators(
    stream: _StreamEval, ps: Array, qs: Array, domain: Domain, cap: int = 200_000
) -> tuple[Array, Array]:
    """Comparators (w* as a K x d stack, value) of the windows [ps[k], qs[k]].

    Windows of n rounds that share a family layout are solved together, in
    chunks of K windows with K * d * max(n, d) <= _CHUNK_ELEMENTS. A proposer
    gives each window of a chunk a point and further candidates:
    `_brent_points` at d = 1, `_quadratic_points` (at most `cap`
    proximal-gradient steps) at d >= 2. Each window starts from its projected
    point and moves to each further candidate in turn, then to the projected
    domain centre, on a strict improvement of its sum objective.
    """
    d, reg = domain.dim, stream.reg
    propose = _brent_points if d == 1 else functools.partial(_quadratic_points, cap=cap)
    centre = domain.project(domain.center)
    w_out, v_out = np.empty((len(ps), d)), np.empty(len(ps))
    for members, layout in stream.layouts(ps, qs):
        n = sum(c for _, c in layout)
        step = max(1, _CHUNK_ELEMENTS // (d * max(n, d)))
        for i in range(0, len(members), step):
            chunk = members[i : i + step]
            starts = ps[chunk]
            W, further = propose(stream, starts, layout, n, domain)
            groups = stream.gather(starts, layout)
            best = domain.project_rows(W)
            f_best = _sum_values(groups, n, reg, best)
            for cand in (*further, np.tile(centre, (len(chunk), 1))):
                f_cand = _sum_values(groups, n, reg, cand)
                better = f_cand < f_best
                best = np.where(better[:, None], cand, best)
                f_best = np.where(better, f_cand, f_best)
            w_out[chunk], v_out[chunk] = best, f_best
    return w_out, v_out


class _LockstepBatch:
    """The comparators (w*, value) of the windows [ps[k], qs[k]] of one
    stream, all solved together by `_comparators` when the first of them is
    asked for."""

    def __init__(self, stream: _StreamEval, ps: Array, qs: Array, domain: Domain):
        self.stream, self.ps, self.qs, self.domain = stream, ps, qs, domain
        self.index = {pq: k for k, pq in enumerate(zip(ps.tolist(), qs.tolist()))}
        self.solved: tuple[Array, Array] | None = None

    def comparator(self, p: int, q: int) -> tuple[Array, float]:
        if self.solved is None:
            self.solved = _comparators(self.stream, self.ps, self.qs, self.domain)
        k = self.index[(p, q)]
        return self.solved[0][k], float(self.solved[1][k])


def offline_comparator(
    events: Sequence[LossSpec],
    p: int,
    q: int,
    domain: Domain,
    reg: Regularizer | None = None,
    batch: _LockstepBatch | None = None,
) -> tuple[Array, float]:
    """Best fixed point over [p, q]: returns (w*, sum-objective value at w*).

    Alone, the window is solved as a batch of one. Given `batch`, a
    `_LockstepBatch` over these events, reg and domain that holds [p, q], it
    returns the window's share of the batch's lockstep solve (`_comparators`);
    the regret reports and `second_order_interval_check` score every window
    so, and a wrapper of this function sees each of their windows. The path,
    and the accuracy of the value it returns, depend on the window:
      one-dimensional windows: bounded Brent search with xatol 1e-11 (a port
          of scipy's), which also stops on its relative term sqrt(eps)*|x|,
          so the minimizer is located to about 1.5e-8*|x|;
      d >= 2, pure linear sums, or quadratic-structure sums (linear,
          quadratic, squared prediction) without an l1 term whose
          unconstrained minimizer is feasible (a least-squares point for a
          singular A only when it is stationary): closed form, exact up to
          round-off;
      d >= 2, other quadratic-structure sums: proximal gradient with the step
          1/lambda_max(A), stopped when a step moves the iterate by at most
          1e-12;
      d >= 2 with absolute or log-like terms, and pure linear sums with an l1
          term: the central-cut ellipsoid method, stopped on a certified gap
          value - lower <= 1e-9 (1 + |value|).
    """
    if not (1 <= p <= q <= len(events)):
        raise InputError(f"interval [{p},{q}] outside the stream of length {len(events)}")
    if batch is None:
        window = _StreamEval(events[p - 1 : q], reg)
        p, q = 1, q - p + 1
        batch = _LockstepBatch(window, np.array([p]), np.array([q]), domain)
    return batch.comparator(p, q)


# ---------------------------------------------------------------------------
# Regret evaluation


@dataclass
class RegretRow:
    p: int
    q: int
    tau: int
    empirical: float
    bound_rhs: float
    ratio: float
    comparator_value: float


def cumulative_losses(
    events: Sequence[LossSpec], points: Sequence[Array], reg: Regularizer | None = None
) -> Array:
    """Prefix sums S[t] = sum_{s<=t} (f_s(w_s) + r(w_s)); S[0] = 0."""
    if len(events) != len(points):
        raise InputError("trajectory length does not match the stream")
    reg = reg if reg is not None else Regularizer()
    out = np.zeros(len(events) + 1)
    for t, (ev, w) in enumerate(zip(events, points), start=1):
        out[t] = out[t - 1] + ev.value(w) + reg.value(w)
    return out


_N_PROBES = 100  # random feasible points per dominance check


def comparator_dominance_check(
    events: Sequence[LossSpec],
    p: int,
    q: int,
    domain: Domain,
    comp_value: float,
    reg: Regularizer | None = None,
    candidates: Sequence[Array] = (),
    seed: int | None = None,
    stream: _StreamEval | None = None,
) -> float:
    """Raises unless comp_value <= window loss-sum at every probe point.

    Probes _N_PROBES random feasible points plus any supplied candidates.
    Returns the smallest probed value. stream, an evaluator of the whole of
    events built with the same reg, saves re-stacking the window.
    """
    rng = np.random.default_rng(seed if seed is not None else p * 1_000_003 + q)
    if domain.kind == "box":
        # the same draws, in the same order, as _N_PROBES domain.sample calls
        probes = list(rng.uniform(domain.lower, domain.upper, size=(_N_PROBES, domain.dim)))
    else:
        probes = [domain.sample(rng) for _ in range(_N_PROBES)]
    probes.extend(domain.project(c) for c in candidates)
    if stream is None:
        stream, first = _StreamEval(events[p - 1 : q], reg), 1
    else:
        first = p
    probes = np.array(probes).reshape(len(probes), domain.dim)
    values = stream.values(first, first + q - p, probes).tolist()
    threshold = comp_value - 1e-9 * (1.0 + abs(comp_value)) - 1e-6 * (q - p + 1)
    for val in values:
        if val < threshold:
            raise InvariantViolation(
                "comparator-optimality",
                f"interval [{p},{q}]: probe value {val:.6g} beats comparator "
                f"{comp_value:.6g}",
            )
    return min(values, default=math.inf)


def _window_regret(
    events: Sequence[LossSpec],
    prefix: Array,
    p: int,
    q: int,
    domain: Domain,
    reg: Regularizer | None,
    comp_value: float,
    trajectory: Sequence[Array] | None,
    stream: _StreamEval | None = None,
) -> float:
    """Empirical regret over [p, q] against comp_value, with interval_regret's
    comparator-optimality probe when it is negative."""
    empirical = float(prefix[q] - prefix[p - 1]) - comp_value
    if empirical < -1e-6 * (q - p + 1):
        candidates: list[Array] = []
        if trajectory is not None:
            window = np.asarray(trajectory[p - 1 : q])
            candidates.append(np.mean(window, axis=0))
            candidates.extend(window[[0, len(window) // 2, -1]])
        comparator_dominance_check(
            events, p, q, domain, comp_value, reg=reg, candidates=candidates, stream=stream
        )
    return empirical


def interval_regret(
    events: Sequence[LossSpec],
    prefix: Array,
    p: int,
    q: int,
    domain: Domain,
    reg: Regularizer | None = None,
    trajectory: Sequence[Array] | None = None,
) -> tuple[float, float]:
    """(empirical regret, comparator value) over [p, q].

    Negative regret beyond numerical slack triggers a comparator-optimality
    probe: an adaptive learner may legitimately beat every fixed point across
    a distribution shift, but no fixed probe point may beat the comparator.
    """
    _, comp_value = offline_comparator(events, p, q, domain, reg=reg)
    return _window_regret(events, prefix, p, q, domain, reg, comp_value, trajectory), comp_value


def _report_rows(
    events: Sequence[LossSpec],
    points: Sequence[Array],
    domain: Domain,
    reg: Regularizer | None,
    bound_fn: Callable[[int, int], float] | None,
    batches: Sequence[tuple[Array, Array]],
) -> list[RegretRow]:
    """One RegretRow per window [ps[k], qs[k]] of each batch (ps, qs), in order.

    Every window of a batch is solved together from one stream evaluator (a
    `_LockstepBatch`, which calls `_comparators`) and scored through
    offline_comparator.
    """
    prefix = cumulative_losses(events, points, reg)
    stream = _StreamEval(events, reg)
    trajectory = np.asarray(points)
    rows: list[RegretRow] = []
    for ps, qs in batches:
        batch = _LockstepBatch(stream, ps, qs, domain)
        for p, q in zip(ps.tolist(), qs.tolist()):
            _, comp = offline_comparator(events, p, q, domain, reg=reg, batch=batch)
            empirical = _window_regret(
                events, prefix, p, q, domain, reg, comp, trajectory, stream
            )
            bound = float(bound_fn(p, q)) if bound_fn is not None else math.nan
            ratio = empirical / bound if bound == bound and bound != 0.0 else math.nan
            rows.append(RegretRow(p, q, q - p + 1, empirical, bound, ratio, comp))
    return rows


def adaptive_regret_report(
    events: Sequence[LossSpec],
    points: Sequence[Array],
    domain: Domain,
    tau_list: Sequence[int],
    mode: str = "auto",
    reg: Regularizer | None = None,
    bound_fn: Callable[[int, int], float] | None = None,
) -> list[RegretRow]:
    """Per tau, the regret of every evaluated interval of that length.

    exhaustive mode evaluates all T-tau+1 intervals; anchored mode evaluates
    starts {1} plus multiples of ceil(tau/4); auto picks exhaustive for
    T <= 4096.
    """
    T = len(events)
    if mode not in ("auto", "exhaustive", "anchored"):
        raise InputError(f"unknown mode {mode!r}")
    resolved = mode if mode != "auto" else ("exhaustive" if T <= 4096 else "anchored")
    batches = []
    for tau in tau_list:
        if not 1 <= tau <= T:
            raise InputError(f"evaluation.tau {tau} outside [1, {T}]")
        if resolved == "exhaustive":
            starts = range(1, T - tau + 2)
        else:
            m = math.ceil(tau / 4)
            starts_set = {1}
            j = 1
            while j * m + tau - 1 <= T:
                starts_set.add(j * m)
                j += 1
            starts = sorted(starts_set)
        ps = np.array([p0 for p0 in starts if p0 + tau - 1 <= T], dtype=np.int64)
        batches.append((ps, ps + tau - 1))
    return _report_rows(events, points, domain, reg, bound_fn, batches)


def gc_interval_regret(
    events: Sequence[LossSpec],
    points: Sequence[Array],
    domain: Domain,
    reg: Regularizer | None = None,
    bound_fn: Callable[[int, int], float] | None = None,
) -> list[RegretRow]:
    """Empirical regret (and optional bound) on every GC interval in [1, T]."""
    intervals = np.array([(iv.start, iv.end) for iv in iter_gc_intervals(len(events))])
    return _report_rows(
        events, points, domain, reg, bound_fn, [(intervals[:, 0], intervals[:, 1])]
    )


def second_order_interval_check(
    events: Sequence[LossSpec],
    points: Sequence[Array],
    domain: Domain,
    G: float,
    reference: Array | None = None,
) -> list[tuple[int, int, float, float, float, float]]:
    """Per GC interval: gradient-form and norm-form second-order inequalities.

    Returns rows (r, s, lhs, rhs_gradient_form, rhs_norm_form, slack_min),
    where lhs = sum <g_t, w_t - w>, evaluated at the interval comparator (or a
    supplied point). Both right-hand sides must dominate lhs. The comparators
    of all intervals are solved together (a `_LockstepBatch`).
    """
    T = len(events)
    D = domain.diameter
    grads = [ev.grad(w) for ev, w in zip(events, points)]
    intervals = np.array([(iv.start, iv.end) for iv in iter_gc_intervals(T)])
    if reference is None:
        batch = _LockstepBatch(_StreamEval(events, None), intervals[:, 0], intervals[:, 1], domain)
    rows = []
    for r, s in intervals.tolist():
        if reference is None:
            w_ref, _ = offline_comparator(events, r, s, domain, batch=batch)
        else:
            w_ref = reference
        lhs = 0.0
        sq_grad = 0.0
        sq_norm = 0.0
        for t in range(r, s + 1):
            inner = float(np.dot(grads[t - 1], points[t - 1] - w_ref))
            lhs += inner
            sq_grad += inner * inner
            sq_norm += float(np.dot(points[t - 1] - w_ref, points[t - 1] - w_ref))
        a = bound_constant_a(r, s, d=domain.dim)
        ahat = bound_constant_ahat(r, s)
        cq = bound_constant_c(s)
        rhs_grad = 1.5 * math.sqrt(a * sq_grad) + 2.0 * G * D * (5.0 * a + 2.0 * cq)
        rhs_norm = 1.5 * G * math.sqrt(ahat * sq_norm) + 2.0 * G * D * (5.0 * ahat + 2.0 * cq)
        rows.append((r, s, lhs, rhs_grad, rhs_norm, min(rhs_grad - lhs, rhs_norm - lhs)))
    return rows


# ---------------------------------------------------------------------------
# Theorem-style bound calculators


def bound_constant_c(q: int) -> float:
    return 32.0 * math.log(2.0 * q)


def bound_constant_b(p: int, q: int) -> float:
    return 2.0 * math.ceil(math.log2(q - p + 2))


def bound_constant_a(p: int, q: int, d: int) -> float:
    return bound_constant_c(q) / 4.0 + 0.5 + (d / 2.0) * math.log(1.0 + 2.0 * (q - p + 1) / (25.0 * d))


def bound_constant_ahat(p: int, q: int) -> float:
    return bound_constant_c(q) / 4.0 + 1.0 + math.log(q - p + 1.0)


def bound_constant_xi(p: int, q: int) -> float:
    return 2.0 * math.log(
        (math.sqrt(3.0) / 2.0) * math.log2(q - p + 1.0) + 3.0 * math.sqrt(3.0)
    )


def bound_constant_h(s: int, T: int) -> float:
    m = 3.0 + (2.0 * math.ceil(math.log2(T)) if T > 1 else 0.0)
    return 24.0 * math.log(2.0 * s) + 7.0 * math.log(m) + math.log(m) ** 2


def composite_expert_count(horizon: int) -> int:
    """Actual experts built by the static composite ensemble for this horizon."""
    top = math.ceil(0.5 * math.log2(horizon)) if horizon > 1 else 0
    return 3 + 2 * top


def composite_phis(T: int, n_experts: int | None = None) -> tuple[float, float, float, float]:
    """(phi_1, phi_2, phi_3, Psi) with the actual constructed expert count."""
    n = n_experts if n_experts is not None else composite_expert_count(T)
    tail = math.log(1.0 + (n / math.e) * (1.0 + math.log(T + 1.0)))
    psi = math.log(n) + tail
    phi1 = 0.25 * psi * psi
    phi2 = 19.0 * math.log(n) + 0.25 * tail
    phi3 = math.sqrt(7.0) + psi
    return phi1, phi2, phi3, psi


BOUND_ALIASES = {
    "T1": "T1",
    "T2": "T2",
    "T3": "T3",
    "T4": "T4",
    "T5": "T5",
    "adaptive-grid": "T1",
    "adaptive-surrogate": "T2",
    "adaptive-universal": "T3",
    "static-composite": "T4",
    "adaptive-composite": "T5",
}

ALGORITHM_BOUNDS = {
    "uma2-grid": "T1",
    "uma2-surrogate": "T2",
    "uma3": "T3",
    "ums-comp": "T4",
    "uma-comp": "T5",
}


def theorem_bound_rhs(
    theorem: str, function_type: str, params: dict, p: int, q: int
) -> float:
    """Exact right-hand side of the named regret bound for the interval [p, q].

    params must provide G, D, d, T, and alpha (exp-concave) or lam
    (strongly-convex) as required by the function type.
    """
    name = BOUND_ALIASES.get(theorem)
    if name is None:
        raise InputError(f"unknown bound identifier {theorem!r}")
    if function_type not in ("convex", "exp-concave", "strongly-convex"):
        raise InputError(f"unknown function type {function_type!r}")
    if not 1 <= p <= q:
        raise InputError(f"bad interval [{p},{q}]")
    G = float(params["G"])
    D = float(params["D"])
    d = int(params["d"])
    T = int(params["T"])
    n = q - p + 1
    b = bound_constant_b(p, q)
    c = bound_constant_c(q)

    if function_type == "exp-concave":
        alpha = params.get("alpha")
        if alpha is None:
            raise InputError("exp-concave bound needs params['alpha']")
        from .core import exp_concave_beta

        beta = exp_concave_beta(G, D, float(alpha))
    if function_type == "strongly-convex":
        lam = params.get("lam")
        if lam is None:
            raise InputError("strongly-convex bound needs params['lam']")
        lam = float(lam)

    if name == "T1":
        h = bound_constant_h(q, T)
        if function_type == "exp-concave":
            alpha = float(params["alpha"])
            return (2.0 * G * D + 1.0 / (2.0 * beta)) * h * b + 5.0 * (
                2.0 / alpha + G * D
            ) * d * math.log(n) * b
        if function_type == "strongly-convex":
            return (2.0 * G * D + G * G / (2.0 * lam)) * h * b + (G * G / lam) * (
                1.0 + math.log(n)
            ) * b
        return 2.0 * G * D * h * b + 7.0 * G * D * (math.sqrt(h) + 1.0) * math.sqrt(n)

    if name == "T2":
        a = bound_constant_a(p, q, d)
        ahat = bound_constant_ahat(p, q)
        tau = 2.0 * G * D * (5.0 * a + 2.0 * c)
        tauhat = 2.0 * G * D * (5.0 * ahat + 2.0 * c)
        if function_type == "exp-concave":
            return (9.0 * a / (8.0 * beta) + tau) * b
        if function_type == "strongly-convex":
            return (9.0 * G * G * ahat / (8.0 * lam) + tauhat) * b
        return tauhat * b + 10.5 * D * G * math.sqrt(ahat * n)

    if name == "T3":
        xi = bound_constant_xi(p, q)
        if function_type == "exp-concave":
            return (10.0 * G * D + 9.0 / (2.0 * beta)) * b * (c + xi + 10.0 * d * math.log(n))
        if function_type == "strongly-convex":
            return (10.0 * G * D + 9.0 * G * G / (2.0 * lam)) * b * (
                c + xi + 10.0 * d * math.log(n)
            )
        return 2.0 * G * D * c * b + G * D * (math.sqrt(c) + 7.0) * math.sqrt(n)

    phi1, phi2, phi3, _ = composite_phis(T, params.get("n_experts"))

    if name == "T4":
        if function_type == "exp-concave":
            return (9.0 / (8.0 * beta) + 10.0 * G * D) * (
                4.0 * d * math.log(T + 1.0) + phi1 + 4.0
            ) + 2.0 * G * D * phi2
        if function_type == "strongly-convex":
            return (9.0 * G * G / lam + 10.0 * G * D) * (
                7.0 * math.log(T) + 8.0 + phi1
            ) + 2.0 * G * D * phi2
        return G * D * phi3 * math.sqrt(T) + G * D * (phi2 + 1.0)

    # T5
    if function_type == "exp-concave":
        phi = (9.0 / (8.0 * beta) + 10.0 * G * D) * (
            4.0 * d * math.log(n + 1.0) + phi1 + 4.0
        ) + 2.0 * G * D * phi2
        return (G * D + 1.0 / (2.0 * beta)) * c * b + phi * b
    if function_type == "strongly-convex":
        phihat = (9.0 * G * G / lam + 10.0 * G * D) * (
            7.0 * math.log(n) + phi1 + 8.0
        ) + 2.0 * G * D * phi2
        return (G * D + G * G / (2.0 * lam)) * c * b + phihat * b
    return (
        G * D * c * b
        + G * D * (math.sqrt(c) + phi3) * math.sqrt(n)
        + G * D * (phi2 + 1.0)
    )


def bound_fn_for(
    algorithm: str, function_type: str, params: dict
) -> Callable[[int, int], float] | None:
    """Interval-bound closure for an algorithm tag, or None when no bound applies."""
    name = ALGORITHM_BOUNDS.get(algorithm)
    if name is None or function_type == "mixed":
        return None
    T = int(params["T"])
    if name == "T4":
        # static guarantee: only the full horizon is covered
        def static_bound(p: int, q: int) -> float:
            if p == 1 and q == T:
                return theorem_bound_rhs("T4", function_type, params, p, q)
            return math.nan

        return static_bound

    def bound(p: int, q: int) -> float:
        return theorem_bound_rhs(name, function_type, params, p, q)

    return bound
