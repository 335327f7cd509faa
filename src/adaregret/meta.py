"""Second-order multiplicative-weights meta-algorithms over sleeping experts.

A slot is the meta-state attached to one expert for one lifetime. Potentials
are kept in log domain; learning rates are min(cap, sqrt(gamma / (1 + V)))
where V accumulates squared (deviation) losses. The plain variant uses cap
1/2 and normalized losses in [0, 1]; the optimistic variant uses cap 1/4,
hint-shifted weights, and squared deviations (loss - hint).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Array, ConvergenceError, InputError, InvariantViolation

PLAIN_CAP = 0.5
OPTIMISTIC_CAP = 0.25


def gamma_for_end(s: int) -> float:
    """Slot constant gamma = ln(4 s^2) for a lifetime ending at round s."""
    if s < 1:
        raise InputError("lifetime end must be >= 1")
    return math.log(4.0) + 2.0 * math.log(float(s))


@dataclass
class MetaSlot:
    """Meta-state for one expert over one lifetime."""

    gamma: float
    end: int
    born: int
    tag: str = ""
    log_x: float = 0.0
    sq_dev: float = 0.0  # V: running sum of squared (deviation) losses
    cum_r: float = 0.0  # running sum of instantaneous meta-regret ell_t - ell_i

    def delta(self, cap: float) -> float:
        return min(cap, math.sqrt(self.gamma / (1.0 + self.sq_dev)))


def _simplex_from_logs(log_terms: Array) -> Array:
    shifted = log_terms - np.max(log_terms)
    w = np.exp(shifted)
    total = float(w.sum())
    if not np.isfinite(total) or total <= 0.0:
        raise InvariantViolation("weight-simplex", "degenerate weight normalization")
    return w / total


def amlp_weights(slots: list[MetaSlot]) -> Array:
    """Plain sleeping weights: p_i proportional to delta_i * x_i."""
    if not slots:
        raise InputError("no active slots")
    logs = np.array([math.log(s.delta(PLAIN_CAP)) + s.log_x for s in slots])
    return _simplex_from_logs(logs)


def amlp_update(slots: list[MetaSlot], ell_meta: float, ells: Array) -> None:
    """Plain potential update after observing normalized losses.

    x_i <- (x_i * (1 + delta_i (ell_meta - ell_i)))^(delta_i' / delta_i),
    applied in log domain with delta_i' recomputed from the new V.
    """
    ells = np.asarray(ells, dtype=float)
    if ells.shape[0] != len(slots):
        raise InputError("loss vector length mismatch")
    for slot, ell_i in zip(slots, ells):
        r = ell_meta - float(ell_i)
        if abs(r) > 1.0 + 1e-9:
            raise InvariantViolation("meta-loss-range", f"|ell_t - ell_i| = {abs(r):.6g} > 1")
        d_old = slot.delta(PLAIN_CAP)
        slot.sq_dev += r * r
        d_new = slot.delta(PLAIN_CAP)
        slot.log_x = (d_new / d_old) * (slot.log_x + math.log1p(d_old * r))
        slot.cum_r += r


def oamlp_weights(slots: list[MetaSlot], hints: Array) -> Array:
    """Optimistic sleeping weights: p_i proportional to delta_i * x_i * exp(delta_i m_i)."""
    if not slots:
        raise InputError("no active slots")
    hints = np.asarray(hints, dtype=float)
    logs = np.array(
        [
            math.log(s.delta(OPTIMISTIC_CAP)) + s.log_x + s.delta(OPTIMISTIC_CAP) * float(m)
            for s, m in zip(slots, hints)
        ]
    )
    return _simplex_from_logs(logs)


def oamlp_update(slots: list[MetaSlot], ell_meta: float, ells: Array, hints: Array) -> None:
    """Optimistic potential update.

    ln x_i <- (delta_i'/delta_i) * (ln x_i + delta_i (ell_meta - ell_i)
              - delta_i^2 (ell_meta - ell_i - m_i)^2),
    with V accumulating (ell_meta - ell_i - m_i)^2.
    """
    ells = np.asarray(ells, dtype=float)
    hints = np.asarray(hints, dtype=float)
    if ells.shape[0] != len(slots) or hints.shape[0] != len(slots):
        raise InputError("loss/hint vector length mismatch")
    for slot, ell_i, m_i in zip(slots, ells, hints):
        r = ell_meta - float(ell_i)
        dev = r - float(m_i)
        if abs(dev) > 2.0 + 1e-9:
            raise InvariantViolation(
                "composite-deviation-range", f"|ell_t - ell_i - m_i| = {abs(dev):.6g} > 2"
            )
        d_old = slot.delta(OPTIMISTIC_CAP)
        slot.sq_dev += dev * dev
        d_new = slot.delta(OPTIMISTIC_CAP)
        slot.log_x = (d_new / d_old) * (slot.log_x + d_old * r - d_old * d_old * dev * dev)
        slot.cum_r += r


# ---------------------------------------------------------------------------
# Normalized losses


def normalized_loss(g: Array, w_meta: Array, w_i: Array, G: float, D: float) -> float:
    """Plain meta loss (<g, w_i - w_meta> + GD) / (2GD), clamped only for roundoff."""
    scale = G * D
    v = (float(np.dot(g, w_i - w_meta)) + scale) / (2.0 * scale)
    if v < -1e-6 or v > 1.0 + 1e-6:
        raise InvariantViolation("normalized-loss-range", f"value {v:.8g} outside [0, 1]")
    return min(1.0, max(0.0, v))


# ---------------------------------------------------------------------------
# Optimism fixed point


def optimism_fixed_point(
    slots: list[MetaSlot],
    r_values: Array,
    GD: float,
    C: float,
    tol: float,
) -> tuple[Array, float, float, int]:
    """Solve gamma = sum_i p_i(gamma) r_i with hints m_i = (gamma - r_i)/GD.

    Returns (hints, gamma_star, residual, bisection_steps). Bisection keeps a
    sign bracket for h(gamma) = sum_i p_i(gamma) r_i - gamma, which satisfies
    h(0) >= 0 >= h(C), and stops once |h| <= tol.
    """
    r_values = np.asarray(r_values, dtype=float)
    if np.any(r_values < -1e-12):
        raise InputError("regularizer values must be non-negative")
    if tol <= 0:
        raise InputError("fixed-point tolerance must be positive")

    spread = float(r_values.max() - r_values.min()) if r_values.size else 0.0
    if C == 0.0 or spread == 0.0:
        gamma_star = float(r_values[0]) if r_values.size else 0.0
        hints = np.zeros_like(r_values)
        return hints, gamma_star, 0.0, 0

    def h(gamma: float) -> float:
        hints = (gamma - r_values) / GD
        p = oamlp_weights(slots, hints)
        return float(np.dot(p, r_values)) - gamma

    lo, hi = 0.0, max(C, float(r_values.max()))
    val = h(lo)
    if abs(val) <= tol:
        gamma_star, residual, steps = lo, abs(val), 0
    else:
        cap = math.ceil(math.log2(max(hi, tol) / tol)) + 60
        gamma_star, residual = lo, abs(val)
        steps = 0
        while steps < cap:
            mid = 0.5 * (lo + hi)
            val = h(mid)
            steps += 1
            if abs(val) <= tol:
                gamma_star, residual = mid, abs(val)
                break
            if val > 0.0:
                lo = mid
            else:
                hi = mid
        else:
            raise ConvergenceError(
                f"optimism fixed point did not reach tolerance {tol}", residual=abs(val)
            )
    hints = (gamma_star - r_values) / GD
    return hints, gamma_star, residual, steps


# ---------------------------------------------------------------------------
# Meta-regret lemma (runtime-checkable form)


def meta_lemma_gamma_bar(gamma: float, n_created: int, s_eff: int) -> float:
    """Gamma = 2*gamma + ln N_s + ln ln(9 + 36 s)."""
    if n_created < 1 or s_eff < 1:
        raise InputError("need n_created >= 1 and s_eff >= 1")
    return 2.0 * gamma + math.log(float(n_created)) + math.log(math.log(9.0 + 36.0 * s_eff))

def meta_lemma_rhs(gamma: float, n_created: int, s_eff: int, sq_dev: float) -> float:
    """(Gamma / sqrt(gamma)) * sqrt(1 + V) + 2 * Gamma."""
    gbar = meta_lemma_gamma_bar(gamma, n_created, s_eff)
    return (gbar / math.sqrt(gamma)) * math.sqrt(1.0 + sq_dev) + 2.0 * gbar
