"""Adaptive universal learners: sleeping-expert ensembles over GC intervals.

Every learner exposes `run_round(loss) -> RoundRecord` and `finish()`. The
sleeping learners spawn a cohort of experts for each GC interval born at the
current round, aggregate live expert points with a second-order meta, and
retire cohorts when their interval ends. Gradient evaluations of the round's
loss are counted; the surrogate, universal, and composite variants evaluate
the gradient exactly once per round, at the aggregated point; `uma2-grid`
also evaluates it at every live expert row, in one call per round.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .core import (
    Array,
    Domain,
    InputError,
    InvariantViolation,
    LossSpec,
    Regularizer,
    UsageError,
    exp_concave_beta,
    row_norms,
)
from .experts import (
    OGDStronglyConvex,
    ONSExpert,
    ProxGradExpert,
    SurrogateStack,
    eta_grid,
)
from .intervals import GCInterval, LifetimeScheduler
from .meta import (
    MetaSlot,
    MetaSlots,
    amlp_update,
    amlp_weights,
    gamma_for_end,
    meta_lemma_rhs,
    normalized_loss,
    oamlp_update,
    oamlp_weights,
    optimism_fixed_point,
)

ALGORITHMS = (
    "uma2-grid",
    "uma2-surrogate",
    "uma3",
    "ums-comp",
    "uma-comp",
    "baseline-ogd",
    "baseline-ons",
    "baseline-fobos",
)

ONE_GRADIENT_ALGORITHMS = ("uma2-surrogate", "uma3", "ums-comp", "uma-comp")


@dataclass
class LearnerConfig:
    algorithm: str
    domain: Domain
    G: float
    horizon: int
    regularizer: Regularizer = field(default_factory=Regularizer)
    alpha: float | None = None  # declared exp-concavity (baseline-ons)
    check_invariants: bool = True

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise InputError(f"unknown algorithm {self.algorithm!r}")
        if self.G <= 0:
            raise InputError("gradient bound G must be positive")
        if self.horizon < 1:
            raise InputError("horizon must be >= 1")


@dataclass
class RoundRecord:
    t: int
    w: Array
    live_experts: int
    alive_intervals: int
    grad_evals: int  # cumulative
    meta_loss: float | None = None
    optimism_gamma: float | None = None
    optimism_residual: float | None = None


@dataclass(slots=True)
class MetaLogRow:
    """Measured meta-regret of one slot over (a prefix of) its lifetime."""

    start: int
    end: int
    s_eff: int
    tag: str
    lhs: float
    rhs: float
    sq_dev: float
    n_created: int


@dataclass
class _Cohort:
    """The experts born with one interval; they hold `size` consecutive slots."""

    interval: GCInterval
    experts: list[Any]
    size: int


def _log2_floor(t: int) -> int:
    return t.bit_length() - 1


def _surrogate_created_bound(s: int) -> int:
    """2 s (floor(log2 s) + 1) (1 + ceil(0.5 log2 s)); also at most 4 s^2."""
    factor = 1 + (math.ceil(0.5 * math.log2(s)) if s > 1 else 0)
    return 2 * s * (_log2_floor(s) + 1) * factor


def rate_grid(horizon: int) -> Array:
    """Modulus grid {2^j / T : j = 0..ceil(log2 T)} covering [1/T, 1]."""
    if horizon < 1:
        raise InputError("horizon must be >= 1")
    top = math.ceil(math.log2(horizon)) if horizon > 1 else 0
    return np.array([2.0**j / horizon for j in range(top + 1)])


# The meta.* calls stay in this module, not in meta.py: bench/tracer.py times a
# meta function only where a module outside meta calls it.
class MetaAggregator:
    """The second-order meta over a list of experts, at every nesting level.

    Plain (no regularizer): weights from `amlp_weights`, normalized losses
    (<g, w_i - w> + GD) / (2GD). Optimistic (a regularizer): hints from the
    optimism fixed point, weights from `oamlp_weights`, composite losses
    (<g, w_i - w> + r(w_i)) / GD. Each round is `point(slots, pts)`, with
    the owner's `MetaSlots` and the experts' points in slot order, which
    returns the aggregate point, then `update(g)` with the gradient taken
    there. `check` turns on the played-point checks of the outermost level.
    Fixed-point residuals and identity gaps go into the running maxima
    `max_fixed_point_residual` and `max_identity_gap` of `sink` (the learner,
    or by default the aggregator itself).
    """

    def __init__(
        self,
        domain: Domain,
        G: float,
        reg: Regularizer | None = None,
        fp_tol: float = 0.0,
        check: bool = False,
        sink: Any = None,
    ):
        self.G = G
        self.D = domain.diameter
        self.GD = G * self.D
        self.reg = reg
        self.reg_bound = reg.bound_on(domain) if reg is not None else 0.0
        self.fp_tol = fp_tol
        self.check = check
        self.max_fixed_point_residual = self.max_identity_gap = 0.0
        self.sink = sink if sink is not None else self
        self.gamma = self.residual = None
        self.slots: MetaSlots | None = None  # set from point() to update()

    def point(self, slots: MetaSlots, pts: Array) -> Array:
        if self.slots is not None:
            raise UsageError("point() called twice without update()")
        if self.reg is not None:
            self.r_vals = self.reg.value_rows(pts)
            self.hints, self.gamma, self.residual, _ = optimism_fixed_point(
                slots, self.r_vals, self.GD, self.reg_bound, self.fp_tol
            )
            sink = self.sink
            sink.max_fixed_point_residual = max(sink.max_fixed_point_residual, self.residual)
            p = oamlp_weights(slots, self.hints)
        else:
            p = amlp_weights(slots)
        w = p @ pts
        if self.check:
            agg = np.sum(p[:, None] * pts, axis=0)  # summed apart from p @ pts
            if float(np.linalg.norm(agg - w)) > 1e-12 * max(1.0, self.D):
                raise InvariantViolation("aggregation", "played point != weighted expert average")
            if abs(float(p.sum()) - 1.0) > 1e-12:
                raise InvariantViolation("weight-simplex", f"sum p = {p.sum()!r}")
        self.slots, self.weights, self.pts, self.w = slots, p, pts, w
        return w

    def update(self, g: Array) -> float:
        """Losses and slot update for the gradient at the last point; returns
        the meta loss."""
        if self.slots is None:
            raise UsageError("update() before point()")
        slots, self.slots = self.slots, None
        p, pts, w = self.weights, self.pts, self.w
        if self.reg is not None:
            lin = (pts - w) @ g
            ells = (lin + self.r_vals) / self.GD
            ell_meta = float(p @ ells)
            gap = float(np.max(np.abs((ell_meta - ells - self.hints) + lin / self.GD)))
            sink = self.sink
            sink.max_identity_gap = max(sink.max_identity_gap, gap)
            if self.check and gap > 10.0 * self.fp_tol:
                raise InvariantViolation(
                    "composite-deviation-identity",
                    f"deviation differs from -<g, w_i - w>/GD by {gap:.3g}",
                )
            oamlp_update(slots, ell_meta, ells, self.hints)
        else:
            ells = normalized_loss(g, w, pts, self.G, self.D)
            ell_meta = float(p @ ells)
            if self.check and abs(ell_meta - 0.5) > 1e-8:
                raise InvariantViolation(
                    "meta-loss-center", f"plain meta loss {ell_meta!r} != 1/2"
                )
            amlp_update(slots, ell_meta, ells)
        return ell_meta


class _LearnerBase:
    """Gradient accounting and invariant plumbing shared by all learners."""

    def __init__(self, cfg: LearnerConfig):
        self.cfg = cfg
        self.domain = cfg.domain
        self.G = cfg.G
        self.D = cfg.domain.diameter
        self.reg = cfg.regularizer
        self.fp_tol = 1.0 / cfg.horizon  # composite optimism fixed-point tolerance
        self.t = 0
        self.grad_evals = 0
        self.meta_log: list[MetaLogRow] = []
        self.max_fixed_point_residual = 0.0
        self.max_identity_gap = 0.0

    def _grad(self, loss: LossSpec, W: Array) -> Array:
        """The gradients at the rows of W, one evaluation each, every row's
        norm checked against G."""
        self.grad_evals += W.shape[0]
        grads = loss.grad_rows(W)
        if self.cfg.check_invariants:
            norm = float(row_norms(grads).max())
            if norm > self.G * (1.0 + 1e-6) + 1e-12:
                raise InvariantViolation(
                    "gradient-bound", f"||grad f|| = {norm:.6g} exceeds G = {self.G}"
                )
        return grads

    def run_round(self, loss: LossSpec) -> RoundRecord:
        raise NotImplementedError

    def finish(self) -> list[MetaLogRow]:
        return self.meta_log


class _SleepingLearner(_LearnerBase):
    """Sleeping-expert driver over the GC interval schedule.

    The meta's slots live in one `MetaSlots`, cohort after cohort in birth
    order: a cohort's birth appends its block, its death removes the block
    and logs it.
    """

    composite = False

    def __init__(self, cfg: LearnerConfig):
        super().__init__(cfg)
        self.sched = LifetimeScheduler()
        self.cohorts: dict[GCInterval, _Cohort] = {}
        self.slots = MetaSlots()
        self.created = 0
        self.meta = MetaAggregator(
            self.domain,
            self.G,
            self.reg if self.composite else None,
            self.fp_tol,
            check=cfg.check_invariants,
            sink=self,
        )

    # subclass hooks -------------------------------------------------------
    def _build(self, interval: GCInterval) -> list[Any]:
        raise NotImplementedError

    def _created_bound(self, s: int) -> int:
        raise NotImplementedError

    # ----------------------------------------------------------------------
    def _update_experts(self, loss: LossSpec, g: Array, w: Array, pts: Array, t: int) -> None:
        """Update every cohort after the meta took gradient g at w; pts are
        the live expert rows w was aggregated from."""
        for cohort in self.cohorts.values():
            t_local = t - cohort.interval.start + 1
            for expert in cohort.experts:
                expert.update(g, w, t_local)

    def run_round(self, loss: LossSpec) -> RoundRecord:
        t = self.t + 1
        self.t = t
        born, dying = self.sched.advance(t)
        for iv in born:
            experts = self._build(iv)
            tags = [tag for e in experts for tag in e.tags]
            gamma = gamma_for_end(iv.end)
            self.slots.extend(MetaSlot(gamma=gamma, tag=tag) for tag in tags)
            self.cohorts[iv] = _Cohort(iv, experts, len(tags))
            self.created += len(tags)

        alive_intervals = len(self.cohorts)  # intervals containing round t
        live = len(self.slots)
        pts = np.concatenate([e.points() for c in self.cohorts.values() for e in c.experts])
        w = self.meta.point(self.slots, pts)
        g = self._grad(loss, w[None])[0]
        ell_meta = self.meta.update(g)
        self._update_experts(loss, g, w, pts, t)

        for iv in dying:
            self._retire(iv, s_eff=t)

        if self.cfg.check_invariants:
            expected = _log2_floor(t) + 1
            if alive_intervals != expected:
                raise InvariantViolation(
                    "alive-intervals", f"{alive_intervals} alive at t={t}, expected {expected}"
                )
            if self.created > self._created_bound(t):
                raise InvariantViolation(
                    "expert-count",
                    f"{self.created} experts created by t={t}, bound {self._created_bound(t)}",
                )

        return RoundRecord(
            t=t,
            w=w,
            live_experts=live,
            alive_intervals=alive_intervals,
            grad_evals=self.grad_evals,
            meta_loss=ell_meta,
            optimism_gamma=self.meta.gamma,
            optimism_residual=self.meta.residual,
        )

    def _retire(self, iv: GCInterval, s_eff: int) -> None:
        """Remove the cohort of `iv` and its block of slots; log the block."""
        start = 0
        for other in self.cohorts:
            if other == iv:
                break
            start += self.cohorts[other].size
        cohort = self.cohorts.pop(iv)
        block = self.slots.take(start, start + cohort.size)
        for tag, gamma, lhs, sq_dev in zip(
            block.tags, block.gamma.tolist(), block.cum_r.tolist(), block.sq_dev.tolist()
        ):
            row = MetaLogRow(
                start=iv.start,
                end=iv.end,
                s_eff=s_eff,
                tag=tag,
                lhs=lhs,
                rhs=meta_lemma_rhs(gamma, self.created, s_eff, sq_dev),
                sq_dev=sq_dev,
                n_created=self.created,
            )
            self.meta_log.append(row)
            if self.cfg.check_invariants and row.lhs > row.rhs + 1e-9:
                raise InvariantViolation(
                    "meta-regret-lemma",
                    f"slot {tag} on [{row.start},{row.end}]: {row.lhs:.6g} > {row.rhs:.6g}",
                )

    def finish(self) -> list[MetaLogRow]:
        for iv in sorted(self.cohorts, key=lambda iv: (iv.end, iv.level)):
            self._retire(iv, s_eff=self.t)
        return self.meta_log


# ---------------------------------------------------------------------------
# Sleeping learner variants


class UMA2Grid(_SleepingLearner):
    """Per interval: one convex OGD, then one ONS row per modulus in the
    exp-concavity grid and one strongly convex OGD row per modulus, three
    expert objects in all; every row takes the gradient at its own iterate
    (multi-gradient), all rows of a round in one call."""

    def __init__(self, cfg: LearnerConfig):
        super().__init__(cfg)
        self.moduli = rate_grid(cfg.horizon).tolist()
        self._curvatures = [exp_concave_beta(self.G, self.D, a) for a in self.moduli]
        # one tag string per modulus, not one per expert: the meta log keeps every tag
        self._ons_tags = [f"ons[{a!r}]" for a in self.moduli]
        self._sc_tags = [f"ogd-sc[{lam!r}]" for lam in self.moduli]

    def _build(self, interval: GCInterval) -> list[Any]:
        step = self.D / (self.G * math.sqrt(interval.length))
        return [
            ProxGradExpert(self.domain, self.G, step),
            ONSExpert(self.domain, self._curvatures, self._ons_tags),
            OGDStronglyConvex(self.domain, self.moduli, self._sc_tags),
        ]

    def _update_experts(self, loss: LossSpec, g: Array, w: Array, pts: Array, t: int) -> None:
        grads = self._grad(loss, pts)
        k, start = len(self.moduli), 0
        for cohort in self.cohorts.values():
            t_local = t - cohort.interval.start + 1
            rows = grads[start : start + cohort.size]
            start += cohort.size
            ogd, ons, sc = cohort.experts
            ogd.update(rows[0], w, t_local)
            ons.update(rows[1 : 1 + k], w, t_local)
            sc.update(rows[1 + k :], w, t_local)

    def _created_bound(self, s: int) -> int:
        per = 3 + 2 * (math.ceil(math.log2(self.cfg.horizon)) if self.cfg.horizon > 1 else 0)
        return s * (_log2_floor(s) + 1) * per


def _surrogate_stack(domain: Domain, G: float, length: int, reg: Regularizer | None = None):
    """The surrogate experts for the eta grid of `length`: per eta, ONS on the
    exp-concave surrogate and OGD on the strongly convex one, each plus
    eta * r given a regularizer."""
    return SurrogateStack(domain, G, eta_grid(length, domain.diameter, G), reg)


class UMA2Surrogate(_SleepingLearner):
    """Per interval and per eta in the grid: ONS on the exp-concave surrogate
    and OGD on the strongly convex surrogate; one shared gradient per round."""

    def _build(self, interval: GCInterval) -> list[Any]:
        return [_surrogate_stack(self.domain, self.G, interval.length)]

    def _created_bound(self, s: int) -> int:
        return _surrogate_created_bound(s)


class _Ensemble:
    """A fixed list of experts under one meta, itself an expert. Its experts
    see the linearized loss anchored at the ensemble's own aggregate point."""

    def __init__(
        self,
        experts: list[Any],
        meta: MetaAggregator,
        tag: str,
        gamma: float,
        log_x: float = 0.0,
    ):
        self.experts = experts
        self.slots = MetaSlots(
            MetaSlot(gamma=gamma, tag=t, log_x=log_x) for e in experts for t in e.tags
        )
        self.meta = meta
        self.tags = [tag]

    def point(self) -> Array:
        return self.meta.point(self.slots, np.concatenate([e.points() for e in self.experts]))

    def points(self) -> Array:
        return self.point()[None]

    def update(self, g: Array, anchor: Array, t_local: int) -> None:
        self.meta.update(g)
        for expert in self.experts:
            expert.update(g, self.meta.w, t_local)


class UniversalExpert(_Ensemble):
    """Single-interval universal learner used as the one expert per interval.

    A plain meta aggregates the surrogate experts for the interval length
    plus one fixed-step OGD, all driven by the shared outer gradient.
    """

    def __init__(self, domain: Domain, G: float, lifetime: int):
        experts = [
            _surrogate_stack(domain, G, lifetime),
            ProxGradExpert(domain, G, domain.diameter / (G * math.sqrt(lifetime))),
        ]
        meta = MetaAggregator(domain, G)
        super().__init__(experts, meta, "universal", gamma_for_end(lifetime))


class UMA3(_SleepingLearner):
    """One universal expert per GC interval; one gradient per round."""

    def _build(self, interval: GCInterval) -> list[Any]:
        return [UniversalExpert(self.domain, self.G, interval.length)]

    def _created_bound(self, s: int) -> int:
        return _surrogate_created_bound(s)


class UMSCompCore(_Ensemble):
    """Static composite ensemble on the linearized composite loss.

    Experts: FOBOS on the (linearized) composite objective, and per eta a
    proximal-Newton step on the exp-concave surrogate + eta*r together with
    FOBOS on the strongly convex surrogate + eta*r. The meta is the
    optimistic variant with uniform initial potentials and numerator ln|E|.
    """

    def __init__(
        self,
        domain: Domain,
        G: float,
        reg: Regularizer,
        horizon: int,
        fp_tol: float,
        sink: Any = None,
    ):
        step = domain.diameter / (G * math.sqrt(7.0 * horizon))
        experts = [
            ProxGradExpert(domain, G, step, reg, tag="fobos-f"),
            _surrogate_stack(domain, G, horizon, reg),
        ]
        n = 1 + len(experts[1].tags)
        meta = MetaAggregator(domain, G, reg, fp_tol, sink=sink)
        super().__init__(experts, meta, "ums-comp", math.log(n), log_x=-math.log(n))


class UMSCompLearner(_LearnerBase):
    """Static composite learner: the core above on the true loss stream."""

    def __init__(self, cfg: LearnerConfig):
        super().__init__(cfg)
        self.core = UMSCompCore(
            cfg.domain, cfg.G, cfg.regularizer, cfg.horizon, self.fp_tol, sink=self
        )

    def run_round(self, loss: LossSpec) -> RoundRecord:
        self.t += 1
        w = self.core.point()
        self.core.update(self._grad(loss, w[None])[0], w, self.t)
        return RoundRecord(
            t=self.t,
            w=w,
            live_experts=len(self.core.slots),
            alive_intervals=1,
            grad_evals=self.grad_evals,
            optimism_gamma=self.core.meta.gamma,
            optimism_residual=self.core.meta.residual,
        )


class UMAComp(_SleepingLearner):
    """Sleeping composite meta over per-interval static composite ensembles."""

    composite = True

    def _build(self, interval: GCInterval) -> list[Any]:
        return [
            UMSCompCore(self.domain, self.G, self.reg, interval.length, self.fp_tol, sink=self)
        ]

    def _created_bound(self, s: int) -> int:
        return _surrogate_created_bound(s)


# ---------------------------------------------------------------------------
# Baselines


class BaselineLearner(_LearnerBase):
    """Single non-restarted expert over the whole horizon."""

    def __init__(self, cfg: LearnerConfig):
        super().__init__(cfg)
        if cfg.algorithm == "baseline-ogd":
            self.expert: Any = ProxGradExpert(cfg.domain, cfg.G, tag="ogd-dim")
        elif cfg.algorithm == "baseline-ons":
            alpha = cfg.alpha if cfg.alpha is not None else math.inf
            self.expert = ONSExpert(cfg.domain, exp_concave_beta(cfg.G, self.D, alpha))
        else:
            self.expert = ProxGradExpert(cfg.domain, cfg.G, reg=cfg.regularizer, tag="fobos")

    def run_round(self, loss: LossSpec) -> RoundRecord:
        self.t += 1
        w = self.expert.point()
        self.expert.update(self._grad(loss, w[None])[0], w, self.t)
        return RoundRecord(
            t=self.t, w=w, live_experts=1, alive_intervals=1, grad_evals=self.grad_evals
        )


# ---------------------------------------------------------------------------


def build_learner(cfg: LearnerConfig) -> _LearnerBase:
    table = {
        "uma2-grid": UMA2Grid,
        "uma2-surrogate": UMA2Surrogate,
        "uma3": UMA3,
        "ums-comp": UMSCompLearner,
        "uma-comp": UMAComp,
        "baseline-ogd": BaselineLearner,
        "baseline-ons": BaselineLearner,
        "baseline-fobos": BaselineLearner,
    }
    return table[cfg.algorithm](cfg)


def run(learner: _LearnerBase, events: list[LossSpec]) -> list[RoundRecord]:
    records = [learner.run_round(ev) for ev in events]
    learner.finish()
    return records
