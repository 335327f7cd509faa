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
    CompositeScExpert,
    FOBOSExpert,
    OGDDiminishing,
    OGDFixed,
    OGDStronglyConvex,
    ONSCore,
    ProxONSExpert,
    SurrogateExpExpert,
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
    weights: Array | None = None
    points: Array | None = None
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


class _LearnerBase:
    """Gradient accounting and invariant plumbing shared by all learners."""

    composite = False

    def __init__(self, cfg: LearnerConfig):
        self.cfg = cfg
        self.domain = cfg.domain
        self.G = cfg.G
        self.D = cfg.domain.diameter
        self.GD = self.G * self.D
        self.reg = cfg.regularizer
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

    def __init__(self, cfg: LearnerConfig):
        super().__init__(cfg)
        self.sched = LifetimeScheduler(horizon_hint=cfg.horizon)
        self.cohorts: dict[GCInterval, _Cohort] = {}
        self.created = 0
        self.fp_tol = cfg.fixed_point_tol or 1.0 / cfg.horizon
        self.reg_bound = self.reg.bound_on(self.domain)

    # subclass hooks -------------------------------------------------------
    def _build(self, interval: GCInterval) -> list[Any]:
        raise NotImplementedError

    def _update_experts(self, loss: LossSpec, g: Array, w: Array, t: int) -> None:
        raise NotImplementedError

    def _created_bound(self, s: int) -> int:
        raise NotImplementedError

    # ----------------------------------------------------------------------
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
        pts = np.stack([e.point() for e in experts])

        opt_gamma = opt_residual = None
        if self.composite:
            r_vals = np.array([self.reg.value(row) for row in pts])
            hints, opt_gamma, opt_residual, _ = optimism_fixed_point(
                slots, r_vals, self.GD, self.reg_bound, self.fp_tol
            )
            self.max_fixed_point_residual = max(self.max_fixed_point_residual, opt_residual)
            p = oamlp_weights(slots, hints)
        else:
            p = amlp_weights(slots)

        w = p @ pts
        if self.cfg.check_invariants:
            agg = np.zeros(self.domain.dim)
            for pi, row in zip(p, pts):
                agg = agg + pi * row
            if float(np.linalg.norm(agg - w)) > 1e-12 * max(1.0, self.D):
                raise InvariantViolation("aggregation", "played point != weighted expert average")
            if abs(float(p.sum()) - 1.0) > 1e-12:
                raise InvariantViolation("weight-simplex", f"sum p = {p.sum()!r}")

        g = self._grad(loss, w)

        if self.composite:
            ells = ((pts - w) @ g + r_vals) / self.GD
            ell_meta = float(p @ ells)
            if self.cfg.check_invariants:
                gap = float(np.max(np.abs((ell_meta - ells - hints) + (pts - w) @ g / self.GD)))
                self.max_identity_gap = max(self.max_identity_gap, gap)
                if gap > 10.0 * self.fp_tol:
                    raise InvariantViolation(
                        "composite-deviation-identity",
                        f"deviation differs from -<g, w_i - w>/GD by {gap:.3g}",
                    )
            oamlp_update(slots, ell_meta, ells, hints)
        else:
            ells = np.array([normalized_loss(g, w, row, self.G, self.D) for row in pts])
            ell_meta = float(p @ ells)
            if self.cfg.check_invariants and abs(ell_meta - 0.5) > 1e-8:
                raise InvariantViolation(
                    "meta-loss-center", f"plain meta loss {ell_meta!r} != 1/2"
                )
            amlp_update(slots, ell_meta, ells)

        self._update_experts(loss, g, w, t)

        for iv in dying:
            cohort = self.cohorts.pop(iv)
            self._log_cohort(cohort, s_eff=t)

        live = len(experts)
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
            weights=p,
            points=pts,
            optimism_gamma=opt_gamma,
            optimism_residual=opt_residual,
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
        experts: list[Any] = [OGDFixed(self.domain, self.G, interval.length)]
        for a, tag in zip(self.moduli, self._ons_tags):
            curv = exp_concave_beta(self.G, self.D, float(a))
            experts.append(ONSCore(self.domain, curv, tag=tag))
        for lam, tag in zip(self.moduli, self._sc_tags):
            experts.append(OGDStronglyConvex(self.domain, float(lam), tag=tag))
        return experts

    def _update_experts(self, loss: LossSpec, g: Array, w: Array, t: int) -> None:
        for cohort in self.cohorts.values():
            t_local = t - cohort.interval.start + 1
            for expert in cohort.experts:
                ge = self._grad(loss, expert.point())
                if isinstance(expert, OGDFixed):
                    expert.update(ge)
                elif isinstance(expert, ONSCore):
                    expert.update(ge)
                else:
                    expert.update(ge, t_local)

    def _created_bound(self, s: int) -> int:
        per = 3 + 2 * (math.ceil(math.log2(self.cfg.horizon)) if self.cfg.horizon > 1 else 0)
        return s * (_log2_floor(s) + 1) * per


class UMA2Surrogate(_SleepingLearner):
    """Per interval and per eta in the grid: ONS on the exp-concave surrogate
    and OGD on the strongly convex surrogate; one shared gradient per round."""

    def _build(self, interval: GCInterval) -> list[Any]:
        experts: list[Any] = []
        for eta in eta_grid(interval.length, self.D, self.G):
            experts.append(SurrogateExpExpert(self.domain, float(eta)))
            experts.append(SurrogateScExpert(self.domain, float(eta), self.G))
        return experts

    def _update_experts(self, loss: LossSpec, g: Array, w: Array, t: int) -> None:
        for cohort in self.cohorts.values():
            t_local = t - cohort.interval.start + 1
            for expert in cohort.experts:
                if isinstance(expert, SurrogateExpExpert):
                    expert.update(g, w)
                else:
                    expert.update(g, w, t_local)

    def _created_bound(self, s: int) -> int:
        return _surrogate_created_bound(s)


class UniversalExpert:
    """Single-interval universal learner used as the one expert per interval.

    An inner plain meta aggregates the surrogate pairs for the interval length
    plus one fixed-step OGD, all driven by the shared outer gradient (the
    inner stack sees the linearized loss anchored at its own aggregate).
    """

    def __init__(self, domain: Domain, G: float, lifetime: int):
        self.domain = domain
        self.G = G
        self.D = domain.diameter
        self.tag = "universal"
        experts: list[Any] = []
        for eta in eta_grid(lifetime, self.D, G):
            experts.append(SurrogateExpExpert(domain, float(eta)))
            experts.append(SurrogateScExpert(domain, float(eta), G))
        experts.append(OGDFixed(domain, G, lifetime))
        self.experts = experts
        self.slots = [
            MetaSlot(gamma=gamma_for_end(lifetime), end=lifetime, born=1, tag=e.tag)
            for e in experts
        ]
        self.t_local = 0
        self._cache: tuple[Array, Array, Array] | None = None

    def point(self) -> Array:
        if self._cache is not None:
            raise UsageError("point() called twice without update()")
        p = amlp_weights(self.slots)
        pts = np.stack([e.point() for e in self.experts])
        w = p @ pts
        self._cache = (p, pts, w)
        return w

    def update(self, g: Array) -> None:
        if self._cache is None:
            raise UsageError("update() before point()")
        p, pts, w = self._cache
        self._cache = None
        self.t_local += 1
        ells = np.array([normalized_loss(g, w, row, self.G, self.D) for row in pts])
        amlp_update(self.slots, float(p @ ells), ells)
        for expert in self.experts:
            if isinstance(expert, SurrogateExpExpert):
                expert.update(g, w)
            elif isinstance(expert, SurrogateScExpert):
                expert.update(g, w, self.t_local)
            else:
                expert.update(g)


class UMA3(_SleepingLearner):
    """One universal expert per GC interval; one gradient per round."""

    def _build(self, interval: GCInterval) -> list[Any]:
        return [UniversalExpert(self.domain, self.G, interval.length)]

    def _update_experts(self, loss: LossSpec, g: Array, w: Array, t: int) -> None:
        for cohort in self.cohorts.values():
            cohort.experts[0].update(g)

    def _created_bound(self, s: int) -> int:
        return _surrogate_created_bound(s)


class UMSCompCore:
    """Static composite ensemble on the linearized composite loss.

    Experts: FOBOS on the (linearized) composite objective, and per eta a
    proximal-Newton step on the exp-concave surrogate + eta*r together with
    FOBOS on the strongly convex surrogate + eta*r. The meta is the
    optimistic variant with uniform initial potentials and numerator ln|E|.
    """

    def __init__(
        self, domain: Domain, G: float, reg: Regularizer, horizon: int, fp_tol: float
    ):
        self.domain = domain
        self.G = G
        self.D = domain.diameter
        self.GD = G * self.D
        self.reg = reg
        self.fp_tol = fp_tol
        self.tag = "ums-comp"
        experts: list[Any] = [
            FOBOSExpert(
                domain,
                reg,
                G,
                step=self.D / (G * math.sqrt(7.0 * horizon)),
                tag="fobos-f",
            )
        ]
        for eta in eta_grid(horizon, self.D, G):
            experts.append(ProxONSExpert(domain, reg, float(eta)))
            experts.append(CompositeScExpert(domain, reg, float(eta), G))
        self.experts = experts
        n = len(experts)
        self.slots = [
            MetaSlot(
                gamma=math.log(n), end=horizon, born=1, tag=e.tag, log_x=-math.log(n)
            )
            for e in experts
        ]
        self.reg_bound = reg.bound_on(domain)
        self.t_local = 0
        self.max_residual = 0.0
        self.max_identity_gap = 0.0
        self.last_gamma = 0.0
        self.last_residual = 0.0
        self._cache = None

    @property
    def n_experts(self) -> int:
        return len(self.experts)

    def point(self) -> Array:
        if self._cache is not None:
            raise UsageError("point() called twice without update()")
        pts = np.stack([e.point() for e in self.experts])
        r_vals = np.array([self.reg.value(row) for row in pts])
        hints, gamma_star, residual, _ = optimism_fixed_point(
            self.slots, r_vals, self.GD, self.reg_bound, self.fp_tol
        )
        self.max_residual = max(self.max_residual, residual)
        self.last_gamma = gamma_star
        self.last_residual = residual
        p = oamlp_weights(self.slots, hints)
        w = p @ pts
        self._cache = (p, pts, w, r_vals, hints)
        return w

    def update(self, g: Array) -> None:
        if self._cache is None:
            raise UsageError("update() before point()")
        p, pts, w, r_vals, hints = self._cache
        self._cache = None
        self.t_local += 1
        ells = ((pts - w) @ g + r_vals) / self.GD
        ell_meta = float(p @ ells)
        gap = float(np.max(np.abs((ell_meta - ells - hints) + (pts - w) @ g / self.GD)))
        self.max_identity_gap = max(self.max_identity_gap, gap)
        oamlp_update(self.slots, ell_meta, ells, hints)
        for expert in self.experts:
            if isinstance(expert, ProxONSExpert):
                expert.update(g, w)
            elif isinstance(expert, CompositeScExpert):
                expert.update(g, w, self.t_local)
            else:
                expert.update(g, self.t_local)


class UMSCompLearner(_LearnerBase):
    """Static composite learner: the core above on the true loss stream."""

    composite = True

    def __init__(self, cfg: LearnerConfig):
        super().__init__(cfg)
        fp_tol = cfg.fixed_point_tol or 1.0 / cfg.horizon
        self.core = UMSCompCore(cfg.domain, cfg.G, cfg.regularizer, cfg.horizon, fp_tol)

    def run_round(self, loss: LossSpec) -> RoundRecord:
        self.t += 1
        w = self.core.point()
        p, pts = self.core._cache[0], self.core._cache[1]
        g = self._grad(loss, w)
        self.core.update(g)
        self.max_fixed_point_residual = self.core.max_residual
        self.max_identity_gap = self.core.max_identity_gap
        return RoundRecord(
            t=self.t,
            w=w,
            live_experts=self.core.n_experts,
            alive_intervals=1,
            grad_evals=self.grad_evals,
            weights=p,
            points=pts,
            optimism_gamma=self.core.last_gamma,
            optimism_residual=self.core.last_residual,
        )


class UMAComp(_SleepingLearner):
    """Sleeping composite meta over per-interval static composite ensembles."""

    composite = True

    def _build(self, interval: GCInterval) -> list[Any]:
        return [
            UMSCompCore(
                self.domain, self.G, self.reg, horizon=interval.length, fp_tol=self.fp_tol
            )
        ]

    def _update_experts(self, loss: LossSpec, g: Array, w: Array, t: int) -> None:
        for cohort in self.cohorts.values():
            core = cohort.experts[0]
            core.update(g)
            self.max_fixed_point_residual = max(
                self.max_fixed_point_residual, core.max_residual
            )
            self.max_identity_gap = max(self.max_identity_gap, core.max_identity_gap)

    def _created_bound(self, s: int) -> int:
        return _surrogate_created_bound(s)


# ---------------------------------------------------------------------------
# Baselines


class BaselineLearner(_LearnerBase):
    """Single non-restarted expert over the whole horizon."""

    def __init__(self, cfg: LearnerConfig):
        super().__init__(cfg)
        if cfg.algorithm == "baseline-ogd":
            self.expert: Any = OGDDiminishing(cfg.domain, cfg.G)
        elif cfg.algorithm == "baseline-ons":
            alpha = cfg.alpha if cfg.alpha is not None else math.inf
            self.expert = ONSCore(cfg.domain, exp_concave_beta(cfg.G, self.D, alpha))
        else:
            self.expert = FOBOSExpert(cfg.domain, cfg.regularizer, cfg.G, step="diminishing")

    def run_round(self, loss: LossSpec) -> RoundRecord:
        self.t += 1
        w = self.expert.point()
        g = self._grad(loss, w)
        if isinstance(self.expert, ONSCore):
            self.expert.update(g)
        else:
            self.expert.update(g, self.t)
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
