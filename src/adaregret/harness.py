"""Benchmark harness: synthetic streams, offline comparators, regret reports,
and closed-form regret-bound calculators for the learner family.

All "log" in bound expressions is the natural logarithm; base-2 logs are
written log2 explicitly.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from scipy.optimize import minimize_scalar

from .core import (
    Array,
    ConvergenceError,
    Domain,
    InputError,
    InvariantViolation,
    LossSpec,
    Regularizer,
    check_loss_on_domain,
)
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

    if seg.family == "absolute":
        scale = float(p.get("scale", G))
        if scale > G + 1e-12:
            raise InputError("absolute segment scale exceeds the gradient bound")
        for _ in range(seg.length):
            x = scale * rng.uniform(0.5, 1.0) * _unit(rng, d)
            y = float(np.dot(x, target)) + noise * rng.uniform(-1.0, 1.0)
            events.append(LossSpec("absolute", {"x": x, "y": y}, seg.declared_type, seg.modulus, G))
        return events

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
        for _ in range(seg.length):
            x = scale * rng.uniform(0.5, 1.0) * _unit(rng, d)
            y = float(np.dot(x, target)) + noise * rng.uniform(-1.0, 1.0)
            events.append(
                LossSpec("squared-prediction", {"x": x, "y": y}, seg.declared_type, seg.modulus, G)
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

    if seg.family == "log-like":
        scale = float(p.get("scale", G))
        if scale > G + 1e-12:
            raise InputError("log-like segment scale exceeds the gradient bound")
        for _ in range(seg.length):
            x = scale * rng.uniform(0.5, 1.0) * _unit(rng, d)
            y = 1.0 if float(np.dot(x, target)) + noise * rng.uniform(-1.0, 1.0) >= 0 else -1.0
            events.append(LossSpec("log-like", {"x": x, "y": y}, seg.declared_type, seg.modulus, G))
        return events

    raise InputError(f"unknown loss family {seg.family!r}")


def generate_stream(cfg: StreamConfig, validate: bool = True) -> list[LossSpec]:
    """Deterministic synthetic stream; same config + seed => identical events."""
    rng = np.random.default_rng(cfg.seed)
    events: list[LossSpec] = []
    for seg in cfg.segments:
        seg_events = _segment_events(seg, cfg, rng)
        if validate and seg_events:
            check_rng = np.random.default_rng(cfg.seed + 1)
            for ev in seg_events[: min(3, len(seg_events))]:
                check_loss_on_domain(ev, cfg.domain, check_rng, samples=10)
        events.extend(seg_events)
    return events


def stream_rows(events: Sequence[LossSpec]) -> list[tuple]:
    """Flat serialization: one row of (t, family, type, modulus, params-json)."""
    rows = []
    for t, ev in enumerate(events, start=1):
        blob = {
            k: (v.tolist() if isinstance(v, np.ndarray) else v) for k, v in sorted(ev.params.items())
        }
        rows.append(
            (t, ev.family, ev.declared_type, ev.modulus, json.dumps(blob, sort_keys=True))
        )
    return rows


# ---------------------------------------------------------------------------
# Offline comparator


class _WindowEval:
    """Vectorized sum-objective evaluation over a window of events."""

    def __init__(self, events: Sequence[LossSpec], reg: Regularizer | None):
        self.n = len(events)
        self.reg = reg if reg is not None else Regularizer()
        self.groups: dict[str, dict[str, Array]] = {}
        by_family: dict[str, list[LossSpec]] = {}
        for ev in events:
            by_family.setdefault(ev.family, []).append(ev)
        for fam, evs in by_family.items():
            if fam == "linear":
                self.groups[fam] = {"g": np.stack([e.params["g"] for e in evs])}
            elif fam in ("absolute", "squared-prediction", "log-like"):
                self.groups[fam] = {
                    "x": np.stack([e.params["x"] for e in evs]),
                    "y": np.array([e.params["y"] for e in evs]),
                }
            else:
                self.groups[fam] = {
                    "u": np.stack([e.params["u"] for e in evs]),
                    "lam": np.array([e.params["lam"] for e in evs]),
                    "b": np.stack([e.params["b"] for e in evs]),
                }

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


_QUADRATIC_FAMILIES = {"linear", "quadratic", "squared-prediction"}


def _aggregate_quadratic(events: Sequence[LossSpec], d: int) -> tuple[Array, Array, float]:
    """Sum objective as 0.5 w^T A w + b^T w + c for quadratic-structure families."""
    A = np.zeros((d, d))
    b = np.zeros(d)
    c = 0.0
    for ev in events:
        p = ev.params
        if ev.family == "linear":
            b += p["g"]
        elif ev.family == "quadratic":
            A += p["lam"] * np.eye(d)
            b += p["b"] - p["lam"] * p["u"]
            c += 0.5 * p["lam"] * float(np.dot(p["u"], p["u"]))
        else:
            x, y = p["x"], p["y"]
            A += 2.0 * np.outer(x, x)
            b += -2.0 * y * x
            c += y * y
    return A, b, c


def _minimize_linear(domain: Domain, gbar: Array) -> Array:
    if domain.kind == "ball":
        n = float(np.linalg.norm(gbar))
        if n == 0.0:
            return domain.center
        return domain.center_ - domain.radius * gbar / n
    out = domain.center
    out = np.where(gbar > 0, domain.lower, np.where(gbar < 0, domain.upper, out))
    return out.astype(float)


def _prox_gradient_quadratic(
    domain: Domain,
    A: Array,
    b: Array,
    reg: Regularizer,
    reg_count: float,
    start: Array,
    tol: float = 1e-12,
    cap: int = 200_000,
) -> Array:
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
    raise ConvergenceError("comparator quadratic solve did not converge", residual=move)


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


def offline_comparator(
    events: Sequence[LossSpec],
    p: int,
    q: int,
    domain: Domain,
    reg: Regularizer | None = None,
    G: float | None = None,
) -> tuple[Array, float]:
    """Best fixed point over [p, q]: returns (w*, sum-objective value at w*).

    The path, and the accuracy of the value it returns, depend on the window:
      one-dimensional windows: scipy's bounded Brent search with xatol 1e-11,
          which also stops on its relative term sqrt(eps)*|x|, so the
          minimizer is located to about 1.5e-8*|x|;
      d >= 2, pure linear sums, or quadratic-structure sums (linear,
          quadratic, squared prediction) without an l1 term whose
          unconstrained minimizer is feasible: closed form, exact up to
          round-off;
      d >= 2, other quadratic-structure sums: projected (proximal) gradient,
          stopped when a step moves the iterate by at most 1e-12;
      d >= 2 with absolute or log-like terms: the central-cut ellipsoid
          method, stopped on a certified gap value - lower <= 1e-9 (1 + |value|).
    G is accepted for call compatibility; no path uses it.
    """
    if not (1 <= p <= q <= len(events)):
        raise InputError(f"interval [{p},{q}] outside the stream of length {len(events)}")
    window = events[p - 1 : q]
    reg = reg if reg is not None else Regularizer()
    d = domain.dim
    ev = _WindowEval(window, reg)
    families = {e.family for e in window}

    def finish(w: Array) -> tuple[Array, float]:
        # keep the best of the candidate and the domain center (cheap insurance)
        candidates = [domain.project(w), domain.project(domain.center)]
        vals = [ev.value_sum(c) for c in candidates]
        k = int(np.argmin(vals))
        return candidates[k], float(vals[k])

    if d == 1:
        if domain.kind == "ball":
            lo = float(domain.center_[0] - domain.radius)
            hi = float(domain.center_[0] + domain.radius)
        else:
            lo, hi = float(domain.lower[0]), float(domain.upper[0])
        res = minimize_scalar(
            lambda x: ev.value_sum(np.array([x])),
            bounds=(lo, hi),
            method="bounded",
            options={"xatol": 1e-11, "maxiter": 500},
        )
        best = np.array([float(res.x)])
        for cand in (np.array([lo]), np.array([hi]), best):
            if ev.value_sum(cand) < ev.value_sum(best):
                best = cand
        return finish(best)

    if families <= _QUADRATIC_FAMILIES and reg.kind in ("none", "squared-l2", "l1"):
        A, b, c = _aggregate_quadratic(window, d)
        n = len(window)
        if reg.kind == "squared-l2" and not reg.is_zero:
            A = A + 2.0 * n * reg.weight * np.eye(d)
        l1_active = reg.kind == "l1" and not reg.is_zero
        if float(np.linalg.norm(A)) == 0.0 and not l1_active:
            return finish(_minimize_linear(domain, b))
        if not l1_active:
            try:
                w_star = np.linalg.solve(A, -b)
            except np.linalg.LinAlgError:
                w_star = np.linalg.lstsq(A, -b, rcond=None)[0]
            if domain.contains(w_star):
                return finish(w_star)
        prox_reg = reg if l1_active else Regularizer()
        w_star = _prox_gradient_quadratic(
            domain, A, b, prox_reg, float(n), start=domain.project(domain.center)
        )
        return finish(w_star)

    # generic path: central-cut ellipsoid method with a certified gap
    w_star, _, _ = _ellipsoid_minimize(ev, domain)
    return finish(w_star)


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


def comparator_dominance_check(
    events: Sequence[LossSpec],
    p: int,
    q: int,
    domain: Domain,
    comp_value: float,
    reg: Regularizer | None = None,
    candidates: Sequence[Array] = (),
    n_random: int = 100,
    seed: int | None = None,
) -> float:
    """Raises unless comp_value <= window loss-sum at every probe point.

    Probes n_random feasible points plus any supplied candidates. Returns the
    smallest probed value.
    """
    ev = _WindowEval(events[p - 1 : q], reg)
    rng = np.random.default_rng(seed if seed is not None else p * 1_000_003 + q)
    probes = [domain.sample(rng) for _ in range(n_random)]
    probes.extend(domain.project(c) for c in candidates)
    best = math.inf
    for w in probes:
        val = ev.value_sum(w)
        best = min(best, val)
        if val < comp_value - 1e-9 * (1.0 + abs(comp_value)) - 1e-6 * (q - p + 1):
            raise InvariantViolation(
                "comparator-optimality",
                f"interval [{p},{q}]: probe value {val:.6g} beats comparator "
                f"{comp_value:.6g}",
            )
    return best


def interval_regret(
    events: Sequence[LossSpec],
    prefix: Array,
    p: int,
    q: int,
    domain: Domain,
    reg: Regularizer | None = None,
    G: float | None = None,
    trajectory: Sequence[Array] | None = None,
) -> tuple[float, float]:
    """(empirical regret, comparator value) over [p, q].

    Negative regret beyond numerical slack triggers a comparator-optimality
    probe: an adaptive learner may legitimately beat every fixed point across
    a distribution shift, but no fixed probe point may beat the comparator.
    """
    _, comp_value = offline_comparator(events, p, q, domain, reg=reg, G=G)
    learner = float(prefix[q] - prefix[p - 1])
    empirical = learner - comp_value
    if empirical < -1e-6 * (q - p + 1):
        candidates: list[Array] = []
        if trajectory is not None:
            window = np.stack(trajectory[p - 1 : q])
            candidates.append(np.mean(window, axis=0))
            candidates.extend(window[[0, len(window) // 2, -1]])
        comparator_dominance_check(
            events, p, q, domain, comp_value, reg=reg, candidates=candidates
        )
    return empirical, comp_value


def adaptive_regret_report(
    events: Sequence[LossSpec],
    points: Sequence[Array],
    domain: Domain,
    tau_list: Sequence[int],
    mode: str = "auto",
    reg: Regularizer | None = None,
    G: float | None = None,
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
    prefix = cumulative_losses(events, points, reg)
    rows: list[RegretRow] = []
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
        for p0 in starts:
            q0 = p0 + tau - 1
            if q0 > T:
                continue
            empirical, comp = interval_regret(
                events, prefix, p0, q0, domain, reg, G, trajectory=points
            )
            bound = float(bound_fn(p0, q0)) if bound_fn is not None else math.nan
            ratio = empirical / bound if bound == bound and bound != 0.0 else math.nan
            rows.append(RegretRow(p0, q0, tau, empirical, bound, ratio, comp))
    return rows


def gc_interval_regret(
    events: Sequence[LossSpec],
    points: Sequence[Array],
    domain: Domain,
    reg: Regularizer | None = None,
    G: float | None = None,
    bound_fn: Callable[[int, int], float] | None = None,
) -> list[RegretRow]:
    """Empirical regret (and optional bound) on every GC interval in [1, T]."""
    T = len(events)
    prefix = cumulative_losses(events, points, reg)
    rows: list[RegretRow] = []
    for iv in iter_gc_intervals(T):
        empirical, comp = interval_regret(
            events, prefix, iv.start, iv.end, domain, reg, G, trajectory=points
        )
        bound = float(bound_fn(iv.start, iv.end)) if bound_fn is not None else math.nan
        ratio = empirical / bound if bound == bound and bound != 0.0 else math.nan
        rows.append(RegretRow(iv.start, iv.end, iv.length, empirical, bound, ratio, comp))
    return rows


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
    supplied point). Both right-hand sides must dominate lhs.
    """
    T = len(events)
    D = domain.diameter
    grads = [ev.grad(w) for ev, w in zip(events, points)]
    rows = []
    for iv in iter_gc_intervals(T):
        if reference is None:
            w_ref, _ = offline_comparator(events, iv.start, iv.end, domain, G=G)
        else:
            w_ref = reference
        lhs = 0.0
        sq_grad = 0.0
        sq_norm = 0.0
        for t in range(iv.start, iv.end + 1):
            inner = float(np.dot(grads[t - 1], points[t - 1] - w_ref))
            lhs += inner
            sq_grad += inner * inner
            sq_norm += float(np.dot(points[t - 1] - w_ref, points[t - 1] - w_ref))
        a = bound_constant_a(iv.start, iv.end, d=domain.dim)
        ahat = bound_constant_ahat(iv.start, iv.end)
        cq = bound_constant_c(iv.end)
        rhs_grad = 1.5 * math.sqrt(a * sq_grad) + 2.0 * G * D * (5.0 * a + 2.0 * cq)
        rhs_norm = 1.5 * G * math.sqrt(ahat * sq_norm) + 2.0 * G * D * (5.0 * ahat + 2.0 * cq)
        rows.append(
            (iv.start, iv.end, lhs, rhs_grad, rhs_norm, min(rhs_grad - lhs, rhs_norm - lhs))
        )
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
