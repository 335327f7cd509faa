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
from typing import Iterable

import numpy as np

from .core import Array, ConvergenceError, InputError, InvariantViolation, row_dots

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
    tag: str = ""
    log_x: float = 0.0
    sq_dev: float = 0.0  # V: running sum of squared (deviation) losses
    cum_r: float = 0.0  # running sum of instantaneous meta-regret ell_t - ell_i

    def delta(self, cap: float) -> float:
        return min(cap, math.sqrt(self.gamma / (1.0 + self.sq_dev)))


class MetaSlots:
    """The meta-state of every live slot, one array entry per slot, in slot
    order: `gamma`, `log_x`, `sq_dev` and `cum_r`, plus the slots' `tags`.

    Slots join as a block at the end (`extend`) and leave as a contiguous
    block (`take`), so a cohort's slots stay together and in birth order.
    """

    def __init__(self, slots: Iterable[MetaSlot] = ()):
        self.gamma = self.log_x = self.sq_dev = self.cum_r = np.empty(0)
        self.tags: list[str] = []
        self.extend(slots)

    def __len__(self) -> int:
        return len(self.tags)

    def extend(self, slots: Iterable[MetaSlot]) -> None:
        slots = list(slots)
        for name in ("gamma", "log_x", "sq_dev", "cum_r"):
            block = np.array([getattr(s, name) for s in slots], dtype=float)
            setattr(self, name, np.concatenate((getattr(self, name), block)))
        self.tags.extend(s.tag for s in slots)

    def take(self, start: int, stop: int) -> "MetaSlots":
        """Remove slots start..stop-1 and return them as their own MetaSlots."""
        block = MetaSlots()
        for name in ("gamma", "log_x", "sq_dev", "cum_r"):
            values = getattr(self, name)
            setattr(block, name, values[start:stop])
            setattr(self, name, np.concatenate((values[:start], values[stop:])))
        block.tags = self.tags[start:stop]
        del self.tags[start:stop]
        return block

    def deltas(self, cap: float) -> Array:
        """Learning rates min(cap, sqrt(gamma / (1 + V))), one per slot."""
        return np.minimum(cap, np.sqrt(self.gamma / (1.0 + self.sq_dev)))


def _logs(values: Array) -> Array:
    # math.log rounds differently from np.log in the last bit on some inputs
    return np.fromiter(map(math.log, values.tolist()), float, values.shape[0])


def _simplex_from_logs(log_terms: Array) -> Array:
    shifted = log_terms - np.max(log_terms)
    w = np.exp(shifted)
    total = float(w.sum())
    if not np.isfinite(total) or total <= 0.0:
        raise InvariantViolation("weight-simplex", "degenerate weight normalization")
    return w / total


def amlp_weights(slots: MetaSlots) -> Array:
    """Plain sleeping weights: p_i proportional to delta_i * x_i."""
    if not len(slots):
        raise InputError("no active slots")
    return _simplex_from_logs(_logs(slots.deltas(PLAIN_CAP)) + slots.log_x)


def amlp_update(slots: MetaSlots, ell_meta: float, ells: Array) -> None:
    """Plain potential update after observing normalized losses.

    x_i <- (x_i * (1 + delta_i (ell_meta - ell_i)))^(delta_i' / delta_i),
    applied in log domain with delta_i' recomputed from the new V.
    """
    ells = np.asarray(ells, dtype=float)
    if ells.shape[0] != len(slots):
        raise InputError("loss vector length mismatch")
    r = ell_meta - ells
    out = np.abs(r) > 1.0 + 1e-9
    if out.any():
        bad = abs(float(r[np.argmax(out)]))
        raise InvariantViolation("meta-loss-range", f"|ell_t - ell_i| = {bad:.6g} > 1")
    d_old = slots.deltas(PLAIN_CAP)
    slots.sq_dev = slots.sq_dev + r * r
    d_new = slots.deltas(PLAIN_CAP)
    steps = np.fromiter(map(math.log1p, (d_old * r).tolist()), float, r.shape[0])
    slots.log_x = (d_new / d_old) * (slots.log_x + steps)
    slots.cum_r = slots.cum_r + r


def _optimistic_base(slots: MetaSlots) -> tuple[Array, Array]:
    """(ln delta_i + ln x_i, delta_i) of the optimistic weights."""
    deltas = slots.deltas(OPTIMISTIC_CAP)
    return _logs(deltas) + slots.log_x, deltas


def oamlp_weights(slots: MetaSlots, hints: Array) -> Array:
    """Optimistic sleeping weights: p_i proportional to delta_i * x_i * exp(delta_i m_i)."""
    if not len(slots):
        raise InputError("no active slots")
    base, deltas = _optimistic_base(slots)
    return _simplex_from_logs(base + deltas * np.asarray(hints, dtype=float))


def oamlp_update(slots: MetaSlots, ell_meta: float, ells: Array, hints: Array) -> None:
    """Optimistic potential update.

    ln x_i <- (delta_i'/delta_i) * (ln x_i + delta_i (ell_meta - ell_i)
              - delta_i^2 (ell_meta - ell_i - m_i)^2),
    with V accumulating (ell_meta - ell_i - m_i)^2.
    """
    ells = np.asarray(ells, dtype=float)
    hints = np.asarray(hints, dtype=float)
    if ells.shape[0] != len(slots) or hints.shape[0] != len(slots):
        raise InputError("loss/hint vector length mismatch")
    r = ell_meta - ells
    dev = r - hints
    out = np.abs(dev) > 2.0 + 1e-9
    if out.any():
        bad = abs(float(dev[np.argmax(out)]))
        raise InvariantViolation(
            "composite-deviation-range", f"|ell_t - ell_i - m_i| = {bad:.6g} > 2"
        )
    d_old = slots.deltas(OPTIMISTIC_CAP)
    slots.sq_dev = slots.sq_dev + dev * dev
    d_new = slots.deltas(OPTIMISTIC_CAP)
    slots.log_x = (d_new / d_old) * (slots.log_x + d_old * r - d_old * d_old * dev * dev)
    slots.cum_r = slots.cum_r + r


# ---------------------------------------------------------------------------
# Normalized losses


def normalized_loss(g: Array, w_meta: Array, w_i: Array, G: float, D: float) -> float | Array:
    """Plain meta loss (<g, w_i - w_meta> + GD) / (2GD), clamped only for roundoff.

    `w_i` is one point (a float is returned) or an n x d stack of points (an
    n-vector of losses is returned).
    """
    diff = np.asarray(w_i, dtype=float) - w_meta
    scale = G * D
    v = (row_dots(np.atleast_2d(diff), np.asarray(g, dtype=float)) + scale) / (2.0 * scale)
    out = (v < -1e-6) | (v > 1.0 + 1e-6)
    if out.any():
        raise InvariantViolation(
            "normalized-loss-range", f"value {float(v[np.argmax(out)]):.8g} outside [0, 1]"
        )
    v = np.minimum(1.0, np.maximum(0.0, v))
    return v if diff.ndim == 2 else float(v[0])


# ---------------------------------------------------------------------------
# Optimism fixed point


def optimism_fixed_point(
    slots: MetaSlots,
    r_values: Array,
    GD: float,
    C: float,
    tol: float,
) -> tuple[Array, float, float, int]:
    """Solve gamma = sum_i p_i(gamma) r_i with hints m_i = (gamma - r_i)/GD.

    Returns (hints, gamma_star, residual, bisection_steps). Bisection keeps a
    sign bracket for h(gamma) = sum_i p_i(gamma) r_i - gamma, which satisfies
    h(0) >= 0 >= h(C), and stops once |h| <= tol. The weights' gamma-free part
    ln delta_i + ln x_i is computed once.
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

    base, deltas = _optimistic_base(slots)

    def h(gamma: float) -> float:
        p = _simplex_from_logs(base + deltas * ((gamma - r_values) / GD))
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
