"""Adaptive universal learners: sleeping-expert ensembles over GC intervals.

Every learner exposes `run_round(loss) -> RoundRecord` and `finish()`. The
sleeping learners spawn a cohort of experts for each GC interval born at the
current round, aggregate live expert points with a second-order meta, and
retire cohorts when their interval ends. Gradient evaluations of the round's
loss are counted; the surrogate, universal, and composite variants evaluate
the gradient exactly once per round, at the aggregated point.
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
)
from .experts import (
    SURROGATE_GAMMA,
    OGDStronglyConvex,
    ONSExpert,
    ProxGradExpert,
    SurrogateScExpert,
    eta_grid,
)
from .intervals import GCInterval, LifetimeScheduler
from .meta import (
    MetaSlot,
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
    fixed_point_tol: float | None = None  # composite; default 1/horizon
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
    interval: GCInterval
    slots: list[MetaSlot]
    experts: list[Any]


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
    (<g, w_i - w> + r(w_i)) / GD. Each round is `point(slots, pts)`, which
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
        self.dim = domain.dim
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
        self.slots: list[MetaSlot] | None = None  # set from point() to update()

    def point(self, slots: list[MetaSlot], pts: Array) -> Array:
        if self.slots is not None:
            raise UsageError("point() called twice without update()")
        if self.reg is not None:
            self.r_vals = np.array([self.reg.value(row) for row in pts])
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
            agg = np.zeros(self.dim)
            for pi, row in zip(p, pts):
                agg = agg + pi * row
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
            ells = np.array([normalized_loss(g, w, row, self.G, self.D) for row in pts])
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
        self.fp_tol = cfg.fixed_point_tol or 1.0 / cfg.horizon
        self.t = 0
        self.grad_evals = 0
        self.meta_log: list[MetaLogRow] = []
        self.max_fixed_point_residual = 0.0
        self.max_identity_gap = 0.0

    def _grad(self, loss: LossSpec, w: Array) -> Array:
        self.grad_evals += 1
        g = loss.grad(w)
        if self.cfg.check_invariants:
            norm = float(np.linalg.norm(g))
            if norm > self.G * (1.0 + 1e-6) + 1e-12:
                raise InvariantViolation(
                    "gradient-bound", f"||grad f|| = {norm:.6g} exceeds G = {self.G}"
                )
        return g

    def run_round(self, loss: LossSpec) -> RoundRecord:
        raise NotImplementedError

    def finish(self) -> list[MetaLogRow]:
        return self.meta_log


class _SleepingLearner(_LearnerBase):
    """Sleeping-expert driver over the GC interval schedule."""

    composite = False

    def __init__(self, cfg: LearnerConfig):
        super().__init__(cfg)
        self.sched = LifetimeScheduler()
        self.cohorts: dict[GCInterval, _Cohort] = {}
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
    def _update_experts(self, loss: LossSpec, g: Array, w: Array, t: int) -> None:
        for cohort in self.cohorts.values():
            t_local = t - cohort.interval.start + 1
            for expert in cohort.experts:
                expert.update(g, w, t_local)

    def _flat(self) -> tuple[list[MetaSlot], list[Any]]:
        slots: list[MetaSlot] = []
        experts: list[Any] = []
        for cohort in self.cohorts.values():
            slots.extend(cohort.slots)
            experts.extend(cohort.experts)
        return slots, experts

    def run_round(self, loss: LossSpec) -> RoundRecord:
        t = self.t + 1
        self.t = t
        born, dying = self.sched.advance(t)
        for iv in born:
            experts = self._build(iv)
            slots = [
                MetaSlot(gamma=gamma_for_end(iv.end), end=iv.end, born=t, tag=e.tag)
                for e in experts
            ]
            self.cohorts[iv] = _Cohort(iv, slots, experts)
            self.created += len(experts)

        slots, experts = self._flat()
        alive_intervals = len(self.cohorts)  # intervals containing round t
        w = self.meta.point(slots, np.stack([e.point() for e in experts]))
        g = self._grad(loss, w)
        ell_meta = self.meta.update(g)
        self._update_experts(loss, g, w, t)

        for iv in dying:
            cohort = self.cohorts.pop(iv)
            self._log_cohort(cohort, s_eff=t)

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
            live_experts=len(experts),
            alive_intervals=alive_intervals,
            grad_evals=self.grad_evals,
            meta_loss=ell_meta,
            optimism_gamma=self.meta.gamma,
            optimism_residual=self.meta.residual,
        )

    def _log_cohort(self, cohort: _Cohort, s_eff: int) -> None:
        for slot in cohort.slots:
            rhs = meta_lemma_rhs(slot.gamma, self.created, s_eff, slot.sq_dev)
            row = MetaLogRow(
                start=cohort.interval.start,
                end=cohort.interval.end,
                s_eff=s_eff,
                tag=slot.tag,
                lhs=slot.cum_r,
                rhs=rhs,
                sq_dev=slot.sq_dev,
                n_created=self.created,
            )
            self.meta_log.append(row)
            if self.cfg.check_invariants and row.lhs > row.rhs + 1e-9:
                raise InvariantViolation(
                    "meta-regret-lemma",
                    f"slot {slot.tag} on [{row.start},{row.end}]: {row.lhs:.6g} > {row.rhs:.6g}",
                )

    def finish(self) -> list[MetaLogRow]:
        for iv in sorted(self.cohorts, key=lambda iv: (iv.end, iv.level)):
            self._log_cohort(self.cohorts[iv], s_eff=self.t)
        self.cohorts.clear()
        return self.meta_log


# ---------------------------------------------------------------------------
# Sleeping learner variants


class UMA2Grid(_SleepingLearner):
    """Per interval: one convex OGD + ONS per modulus in the exp-concavity grid
    + strongly convex OGD per modulus; each expert queries the gradient at its
    own iterate (multi-gradient)."""

    def __init__(self, cfg: LearnerConfig):
        super().__init__(cfg)
        self.moduli = rate_grid(cfg.horizon)
        # one tag string per modulus, not one per expert: the meta log keeps every tag
        self._ons_tags = [f"ons[{float(a)!r}]" for a in self.moduli]
        self._sc_tags = [f"ogd-sc[{float(lam)!r}]" for lam in self.moduli]

    def _build(self, interval: GCInterval) -> list[Any]:
        step = self.D / (self.G * math.sqrt(interval.length))
        experts: list[Any] = [ProxGradExpert(self.domain, self.G, step)]
        for a, tag in zip(self.moduli, self._ons_tags):
            curv = exp_concave_beta(self.G, self.D, float(a))
            experts.append(ONSExpert(self.domain, curv, tag=tag))
        for lam, tag in zip(self.moduli, self._sc_tags):
            experts.append(OGDStronglyConvex(self.domain, float(lam), tag=tag))
        return experts

    def _update_experts(self, loss: LossSpec, g: Array, w: Array, t: int) -> None:
        for cohort in self.cohorts.values():
            t_local = t - cohort.interval.start + 1
            for expert in cohort.experts:
                expert.update(self._grad(loss, expert.point()), w, t_local)

    def _created_bound(self, s: int) -> int:
        per = 3 + 2 * (math.ceil(math.log2(self.cfg.horizon)) if self.cfg.horizon > 1 else 0)
        return s * (_log2_floor(s) + 1) * per


def _surrogate_pairs(domain: Domain, G: float, length: int, reg: Regularizer | None = None):
    """Per eta in the grid for `length`: ONS on the exp-concave surrogate and
    OGD on the strongly convex one, each plus eta * r given a regularizer."""
    experts: list[Any] = []
    for eta in eta_grid(length, domain.diameter, G):
        eta = float(eta)
        experts += [
            ONSExpert(domain, SURROGATE_GAMMA, eta, reg),
            SurrogateScExpert(domain, eta, G, reg),
        ]
    return experts


class UMA2Surrogate(_SleepingLearner):
    """Per interval and per eta in the grid: ONS on the exp-concave surrogate
    and OGD on the strongly convex surrogate; one shared gradient per round."""

    def _build(self, interval: GCInterval) -> list[Any]:
        return _surrogate_pairs(self.domain, self.G, interval.length)

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
        end: int,
        log_x: float = 0.0,
    ):
        self.experts = experts
        self.slots = [
            MetaSlot(gamma=gamma, end=end, born=1, tag=e.tag, log_x=log_x) for e in experts
        ]
        self.meta = meta
        self.tag = tag

    def point(self) -> Array:
        return self.meta.point(self.slots, np.stack([e.point() for e in self.experts]))

    def update(self, g: Array, anchor: Array, t_local: int) -> None:
        self.meta.update(g)
        for expert in self.experts:
            expert.update(g, self.meta.w, t_local)


class UniversalExpert(_Ensemble):
    """Single-interval universal learner used as the one expert per interval.

    A plain meta aggregates the surrogate pairs for the interval length plus
    one fixed-step OGD, all driven by the shared outer gradient.
    """

    def __init__(self, domain: Domain, G: float, lifetime: int):
        experts = _surrogate_pairs(domain, G, lifetime)
        experts.append(ProxGradExpert(domain, G, domain.diameter / (G * math.sqrt(lifetime))))
        meta = MetaAggregator(domain, G)
        super().__init__(experts, meta, "universal", gamma_for_end(lifetime), lifetime)


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
        experts = [ProxGradExpert(domain, G, step, reg, tag="fobos-f")]
        experts += _surrogate_pairs(domain, G, horizon, reg)
        n = len(experts)
        meta = MetaAggregator(domain, G, reg, fp_tol, sink=sink)
        super().__init__(experts, meta, "ums-comp", math.log(n), horizon, log_x=-math.log(n))


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
        self.core.update(self._grad(loss, w), w, self.t)
        return RoundRecord(
            t=self.t,
            w=w,
            live_experts=len(self.core.experts),
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
        self.expert.update(self._grad(loss, w), w, self.t)
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
