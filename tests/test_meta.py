"""Second-order sleeping meta-algorithms vs direct product-form oracles."""
import math

import numpy as np
import pytest

import adaregret as ar
from adaregret.core import InputError
from adaregret.meta import OPTIMISTIC_CAP, PLAIN_CAP, MetaSlot


def _fresh_slots(n, end=1000):
    return ar.MetaSlots(
        ar.MetaSlot(gamma=ar.gamma_for_end(end), end=end, born=1, tag=f"e{i}")
        for i in range(n)
    )


class _PlainOracle:
    """[DERIVED] direct product-form recursion, plain floats, no log domain."""

    def __init__(self, n, gamma):
        self.gamma = gamma
        self.x = np.ones(n)
        self.v = np.zeros(n)

    def deltas(self):
        return np.minimum(0.5, np.sqrt(self.gamma / (1.0 + self.v)))

    def weights(self):
        w = self.deltas() * self.x
        return w / w.sum()

    def update(self, ell_meta, ells):
        d_old = self.deltas()
        r = ell_meta - ells
        self.v = self.v + r * r
        d_new = self.deltas()
        self.x = (self.x * (1.0 + d_old * r)) ** (d_new / d_old)


class _OptimisticOracle:
    """[DERIVED] direct product-form recursion for the optimistic variant."""

    def __init__(self, n, gamma):
        self.gamma = gamma
        self.x = np.ones(n)
        self.v = np.zeros(n)

    def deltas(self):
        return np.minimum(0.25, np.sqrt(self.gamma / (1.0 + self.v)))

    def weights(self, hints):
        w = self.deltas() * self.x * np.exp(self.deltas() * hints)
        return w / w.sum()

    def update(self, ell_meta, ells, hints):
        d_old = self.deltas()
        r = ell_meta - ells
        dev = r - hints
        self.v = self.v + dev * dev
        d_new = self.deltas()
        self.x = (self.x * np.exp(d_old * r - d_old * d_old * dev * dev)) ** (
            d_new / d_old
        )


def test_plain_meta_matches_oracle_1000_rounds():
    rng = np.random.default_rng(42)
    n = 6
    slots = _fresh_slots(n)
    oracle = _PlainOracle(n, slots.gamma[0])
    for _ in range(1000):
        p = ar.amlp_weights(slots)
        p_oracle = oracle.weights()
        assert np.allclose(p, p_oracle, rtol=1e-10, atol=1e-13)
        ells = rng.uniform(0.0, 1.0, size=n)
        ell_meta = float(p @ ells)
        ar.amlp_update(slots, ell_meta, ells)
        oracle.update(ell_meta, ells)


def test_optimistic_meta_matches_oracle_1000_rounds():
    rng = np.random.default_rng(43)
    n = 5
    slots = _fresh_slots(n)
    oracle = _OptimisticOracle(n, slots.gamma[0])
    for _ in range(1000):
        hints = rng.uniform(0.0, 1.0, size=n)
        p = ar.oamlp_weights(slots, hints)
        p_oracle = oracle.weights(hints)
        assert np.allclose(p, p_oracle, rtol=1e-10, atol=1e-13)
        ells = rng.uniform(0.0, 1.0, size=n)
        ell_meta = float(p @ ells)
        ar.oamlp_update(slots, ell_meta, ells, hints)
        oracle.update(ell_meta, ells, hints)


def test_weights_simplex_under_births_and_deaths():
    rng = np.random.default_rng(7)
    slots = _fresh_slots(3)
    counter = 3
    for t in range(10_000):
        if rng.random() < 0.08:  # birth
            counter += 1
            slots.extend(
                [
                    MetaSlot(
                        gamma=ar.gamma_for_end(int(rng.integers(1, 10_000))),
                        end=0,
                        born=t,
                        tag=f"b{counter}",
                    )
                ]
            )
        if len(slots) > 2 and rng.random() < 0.05:  # death
            k = int(rng.integers(0, len(slots)))
            slots.take(k, k + 1)
        p = ar.amlp_weights(slots)
        assert abs(float(p.sum()) - 1.0) <= 1e-12
        assert np.all(p >= 0.0)
        ells = rng.uniform(0.0, 1.0, size=len(slots))
        ar.amlp_update(slots, float(p @ ells), ells)


def test_gamma_for_end_values():
    # [TRIVIAL] ln(4 s^2)
    assert ar.gamma_for_end(1) == pytest.approx(math.log(4.0))
    assert ar.gamma_for_end(10) == pytest.approx(math.log(400.0))
    with pytest.raises(InputError):
        ar.gamma_for_end(0)


def test_delta_capped():
    slot = MetaSlot(gamma=2.0, end=5, born=1)
    assert slot.delta(PLAIN_CAP) == 0.5  # sqrt(2) > cap
    assert slot.delta(OPTIMISTIC_CAP) == 0.25
    slot.sq_dev = 1e6
    assert slot.delta(PLAIN_CAP) == pytest.approx(math.sqrt(2.0 / (1 + 1e6)))


def test_normalized_loss_range_and_center(rng):
    G, D = 2.0, 1.0
    for _ in range(200):
        g = rng.uniform(-1, 1, size=2)
        g = g / max(1.0, float(np.linalg.norm(g)) / G)
        pts = rng.uniform(-0.5, 0.5, size=(4, 2))
        p = np.full(4, 0.25)
        w = p @ pts
        ells = np.array([ar.normalized_loss(g, w, row, G, D) for row in pts])
        assert np.all(ells >= 0.0) and np.all(ells <= 1.0)
        # the weighted normalized loss sits exactly at 1/2
        assert float(p @ ells) == pytest.approx(0.5, abs=1e-12)


def test_normalized_loss_rejects_out_of_range():
    with pytest.raises(ar.InvariantViolation):
        ar.normalized_loss(np.array([5.0]), np.array([0.0]), np.array([1.0]), 1.0, 1.0)


# ---------------------------------------------------------------------------
# Optimism fixed point


def _scan_fixed_point(slots, r_values, GD, C):
    # [DERIVED] dense scan of h(gamma) = sum p(gamma) r - gamma: coarse pass
    # over [0, C'], then a 1e-6-resolution pass around the coarse minimum.
    def resid(g):
        p = ar.oamlp_weights(slots, (g - r_values) / GD)
        return abs(float(p @ r_values) - g)

    hi = max(C, float(np.max(r_values)), 1e-3)
    coarse = np.arange(0.0, hi + 1e-3, 1e-3)
    g0 = float(coarse[int(np.argmin([resid(g) for g in coarse]))])
    fine = np.arange(max(0.0, g0 - 2e-3), min(hi, g0 + 2e-3) + 1e-6, 1e-6)
    return float(fine[int(np.argmin([resid(g) for g in fine]))])


def test_fixed_point_matches_dense_scan():
    rng = np.random.default_rng(11)
    for trial in range(5):
        n = 4
        slots = _fresh_slots(n)
        for i in range(n):  # desynchronize states
            slots.log_x[i] = float(rng.uniform(-0.5, 0.5))
            slots.sq_dev[i] = float(rng.uniform(0.0, 5.0))
        r_values = rng.uniform(0.0, 0.4, size=n)
        GD, C = 1.5, 0.5
        hints, gamma_star, residual, _ = ar.optimism_fixed_point(
            slots, r_values, GD, C, tol=1e-9
        )
        assert residual <= 1e-9
        scan = _scan_fixed_point(slots, r_values, GD, C)
        assert gamma_star == pytest.approx(scan, abs=5e-6)
        assert np.allclose(hints, (gamma_star - r_values) / GD)


def test_fixed_point_trivial_cases():
    slots = _fresh_slots(3)
    # zero regularizer bound
    hints, g, res, steps = ar.optimism_fixed_point(
        slots, np.zeros(3), 1.0, 0.0, tol=1e-6
    )
    assert g == 0.0 and res == 0.0 and steps == 0
    assert np.allclose(hints, 0.0)
    # all r equal: gamma* = r exactly
    r = np.full(3, 0.2)
    hints, g, res, steps = ar.optimism_fixed_point(slots, r, 1.0, 0.3, tol=1e-6)
    assert g == pytest.approx(0.2, abs=1e-15)
    assert np.allclose(hints, 0.0)


def test_fixed_point_residual_below_tol():
    rng = np.random.default_rng(3)
    slots = _fresh_slots(6)
    r_values = rng.uniform(0.0, 1.0, size=6)
    for tol in (1e-3, 1e-6, 1e-10):
        _, gamma_star, residual, _ = ar.optimism_fixed_point(
            slots, r_values, 2.0, 1.0, tol=tol
        )
        assert residual <= tol
        assert 0.0 <= gamma_star <= 1.0 + 1e-12


# ---------------------------------------------------------------------------
# Meta-regret guarantee helpers


def test_lemma_helper_values():
    # [TRIVIAL] direct arithmetic
    gamma = 2.0
    gbar = ar.meta_lemma_gamma_bar(gamma, 10, 100)
    assert gbar == pytest.approx(
        4.0 + math.log(10.0) + math.log(math.log(9.0 + 3600.0))
    )
    rhs = ar.meta_lemma_rhs(gamma, 10, 100, 4.0)
    assert rhs == pytest.approx((gbar / math.sqrt(2.0)) * math.sqrt(5.0) + 2 * gbar)


# ---------------------------------------------------------------------------
# The array-backed slots against the per-slot loops they replaced


def _ref_simplex(log_terms):
    shifted = log_terms - np.max(log_terms)
    w = np.exp(shifted)
    return w / float(w.sum())


def _ref_amlp_weights(slots):
    # [DERIVED] per-slot loop over MetaSlot records
    return _ref_simplex(np.array([math.log(s.delta(PLAIN_CAP)) + s.log_x for s in slots]))


def _ref_amlp_update(slots, ell_meta, ells):
    for slot, ell_i in zip(slots, ells):
        r = ell_meta - float(ell_i)
        d_old = slot.delta(PLAIN_CAP)
        slot.sq_dev += r * r
        d_new = slot.delta(PLAIN_CAP)
        slot.log_x = (d_new / d_old) * (slot.log_x + math.log1p(d_old * r))
        slot.cum_r += r


def _ref_oamlp_weights(slots, hints):
    logs = [
        math.log(s.delta(OPTIMISTIC_CAP)) + s.log_x + s.delta(OPTIMISTIC_CAP) * float(m)
        for s, m in zip(slots, hints)
    ]
    return _ref_simplex(np.array(logs))


def _ref_oamlp_update(slots, ell_meta, ells, hints):
    for slot, ell_i, m_i in zip(slots, ells, hints):
        r = ell_meta - float(ell_i)
        dev = r - float(m_i)
        d_old = slot.delta(OPTIMISTIC_CAP)
        slot.sq_dev += dev * dev
        d_new = slot.delta(OPTIMISTIC_CAP)
        slot.log_x = (d_new / d_old) * (slot.log_x + d_old * r - d_old * d_old * dev * dev)
        slot.cum_r += r


def _ref_fixed_point(slots, r_values, GD, C, tol):
    # the bisection with the weights recomputed from the slots at every step
    if C == 0.0 or float(r_values.max() - r_values.min()) == 0.0:
        return np.zeros_like(r_values), float(r_values[0]), 0.0, 0

    def h(gamma):
        p = _ref_oamlp_weights(slots, (gamma - r_values) / GD)
        return float(np.dot(p, r_values)) - gamma

    lo, hi = 0.0, max(C, float(r_values.max()))
    val = h(lo)
    gamma_star, residual, steps = lo, abs(val), 0
    while abs(val) > tol:
        mid = 0.5 * (lo + hi)
        val = h(mid)
        steps += 1
        if abs(val) <= tol:
            gamma_star, residual = mid, abs(val)
        elif val > 0.0:
            lo = mid
        else:
            hi = mid
    return (gamma_star - r_values) / GD, gamma_star, residual, steps


def _ref_normalized_loss(g, w_meta, w_i, G, D):
    scale = G * D
    v = (float(np.dot(g, w_i - w_meta)) + scale) / (2.0 * scale)
    return min(1.0, max(0.0, v))


def _assert_same_state(slots, records):
    assert slots.tags == [s.tag for s in records]
    for name in ("gamma", "log_x", "sq_dev", "cum_r"):
        assert np.array_equal(getattr(slots, name), [getattr(s, name) for s in records])


@pytest.mark.parametrize("optimistic", [False, True])
@pytest.mark.parametrize("d", [1, 2, 5])
def test_meta_slots_match_per_slot_loops(d, optimistic):
    # blocks of slots are born at the end and die as contiguous blocks, as the
    # cohorts do; weights, losses, fixed points and every slot's state keep
    # the per-slot loops' bits
    rng = np.random.default_rng(31 * d + optimistic)
    G, D = 1.0, 2.0
    records, slots, counter = [], ar.MetaSlots(), 0
    for t in range(1, 301):
        if not records or rng.random() < 0.2:  # a cohort's birth
            end = int(rng.integers(t, 4 * t + 4))
            log_x = -math.log(5.0) if optimistic else 0.0
            block = [
                MetaSlot(ar.gamma_for_end(end), end, t, f"c{counter}-{i}", log_x)
                for i in range(int(rng.integers(1, 8)))
            ]
            counter += 1
            records += [MetaSlot(**vars(s)) for s in block]
            slots.extend(block)
        if len(records) > 8 and rng.random() < 0.2:  # a cohort's death
            start = int(rng.integers(0, len(records) - 1))
            stop = int(rng.integers(start + 1, min(len(records), start + 8) + 1))
            dead = slots.take(start, stop)
            _assert_same_state(dead, records[start:stop])
            del records[start:stop]
        _assert_same_state(slots, records)
        pts = rng.uniform(-1.0, 1.0, size=(len(records), d)) / math.sqrt(d)
        g = rng.uniform(-1.0, 1.0, size=d) / math.sqrt(d)
        if optimistic:
            r_values = rng.uniform(0.0, 0.5, size=len(records))
            got = ar.optimism_fixed_point(slots, r_values, G * D, 0.5, 1e-6)
            want = _ref_fixed_point(records, r_values, G * D, 0.5, 1e-6)
            assert np.array_equal(got[0], want[0]) and got[1:] == want[1:]
            p = ar.oamlp_weights(slots, got[0])
            assert np.array_equal(p, _ref_oamlp_weights(records, want[0]))
            ells = ((pts - p @ pts) @ g + r_values) / (G * D)
            ar.oamlp_update(slots, float(p @ ells), ells, got[0])
            _ref_oamlp_update(records, float(p @ ells), ells, want[0])
        else:
            p = ar.amlp_weights(slots)
            assert np.array_equal(p, _ref_amlp_weights(records))
            w = p @ pts
            ells = ar.normalized_loss(g, w, pts, G, D)
            assert np.array_equal(ells, [_ref_normalized_loss(g, w, x, G, D) for x in pts])
            ar.amlp_update(slots, float(p @ ells), ells)
            _ref_amlp_update(records, float(p @ ells), ells)
    _assert_same_state(slots, records)


def test_meta_weights_match_per_slot_loops_on_random_states():
    # many desynchronized slots, so the per-slot math.log/log1p calls meet the
    # inputs on which numpy's vectorized log rounds differently
    rng = np.random.default_rng(5)
    records = [
        MetaSlot(
            gamma=float(rng.uniform(0.01, 20.0)),
            end=0,
            born=0,
            tag=f"s{i}",
            log_x=float(rng.uniform(-3.0, 3.0)),
            sq_dev=float(10.0 ** rng.uniform(-2, 4)),
        )
        for i in range(20_000)
    ]
    slots = ar.MetaSlots(records)
    hints = rng.uniform(-1.0, 1.0, size=len(records))
    assert np.array_equal(ar.amlp_weights(slots), _ref_amlp_weights(records))
    assert np.array_equal(ar.oamlp_weights(slots, hints), _ref_oamlp_weights(records, hints))
    ells = rng.uniform(0.0, 1.0, size=len(records))
    ar.amlp_update(slots, 0.5, ells)
    _ref_amlp_update(records, 0.5, ells)
    _assert_same_state(slots, records)
