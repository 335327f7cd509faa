"""Geometric covering intervals: membership, partitions, lifetimes."""
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import adaregret as ar
from adaregret.core import InputError, UsageError


def _oracle_intervals_containing(t):
    # [DERIVED] brute-force arithmetic: level-k interval [i 2^k, (i+1)2^k - 1]
    # with i >= 1 contains t iff i = floor(t / 2^k) >= 1.
    out = []
    k = 0
    while (1 << k) <= t:
        i = t >> k
        out.append((i << k, ((i + 1) << k) - 1, k))
        k += 1
    return out


def test_membership_exhaustive_small_horizon():
    for t in range(1, 1025):
        got = [(iv.start, iv.end, iv.level) for iv in ar.intervals_containing(t)]
        assert got == _oracle_intervals_containing(t)
        assert len(got) == int(math.floor(math.log2(t))) + 1
        # unique level-k membership
        assert len({lv for _, _, lv in got}) == len(got)


def test_starting_at_examples():
    # [TRIVIAL]
    assert [(i.start, i.end) for i in ar.intervals_starting_at(1)] == [(1, 1)]
    assert [(i.start, i.end) for i in ar.intervals_starting_at(4)] == [
        (4, 4),
        (4, 5),
        (4, 7),
    ]
    assert [(i.start, i.end) for i in ar.intervals_starting_at(6)] == [(6, 6), (6, 7)]


def test_starting_at_consistent_with_containing():
    for t in range(1, 1025):
        starters = ar.intervals_starting_at(t)
        for iv in starters:
            assert iv.start == t
            assert iv in ar.intervals_containing(t)
        # one interval per level k with 2^k dividing t
        ks = [iv.level for iv in starters]
        assert ks == sorted(ks)
        for k in ks:
            assert t % (1 << k) == 0


def test_iter_gc_intervals_complete():
    horizon = 256
    all_ivs = list(ar.iter_gc_intervals(horizon))
    assert len(all_ivs) == len(set(all_ivs))
    for iv in all_ivs:
        assert 1 <= iv.start <= iv.end <= horizon
        assert iv.length == 1 << iv.level
        assert iv.start % iv.length == 0 or iv.length == 1
    # every interval from the per-round enumeration that fits is present
    expected = {
        iv for t in range(1, horizon + 1) for iv in ar.intervals_starting_at(t)
        if iv.end <= horizon
    }
    assert set(all_ivs) == expected


def test_partition_reference_example():
    # [TRIVIAL] worked example
    pieces = [(p.start, p.end) for p in ar.partition(2, 7).pieces]
    assert pieces == [(2, 3), (4, 7)]


def test_partition_all_small_intervals():
    for p in range(1, 257):
        for q in range(p, 257):
            part = ar.partition(p, q)
            part.validate()  # coverage, GC membership, doubling/halving shape
            n = q - p + 2
            bound = 2 * math.ceil(math.log2(n))
            assert len(part.pieces) <= max(1, bound)
            assert len(part.pieces) <= ar.partition_piece_bound(p, q)
            # sum of sqrt piece lengths <= 7 sqrt(total)
            total = q - p + 1
            s = sum(math.sqrt(piece.length) for piece in part.pieces)
            assert s <= 7.0 * math.sqrt(total) + 1e-12


@given(p=st.integers(1, 1 << 20), length=st.integers(1, 1 << 16))
@settings(max_examples=300, deadline=None)
def test_partition_property_large(p, length):
    q = p + length - 1
    part = ar.partition(p, q)
    part.validate()
    assert len(part.pieces) <= ar.partition_piece_bound(p, q)
    s = sum(math.sqrt(piece.length) for piece in part.pieces)
    assert s <= 7.0 * math.sqrt(length) + 1e-12


def test_partition_input_validation():
    with pytest.raises(InputError):
        ar.partition(0, 5)
    with pytest.raises(InputError):
        ar.partition(6, 5)


def test_scheduler_lifecycle():
    sched = ar.LifetimeScheduler()
    alive = set()
    for t in range(1, 129):
        born, dying = sched.advance(t)
        assert {iv.start for iv in born} <= {t}
        alive |= set(born)
        # alive-during-t count equals floor(log2 t) + 1
        assert len(alive) == int(math.floor(math.log2(t))) + 1
        assert alive == set(ar.intervals_containing(t))
        for iv in dying:
            assert iv.end == t
        alive -= set(dying)


def test_scheduler_rejects_out_of_order():
    sched = ar.LifetimeScheduler()
    sched.advance(1)
    with pytest.raises(UsageError):
        sched.advance(3)
    with pytest.raises(UsageError):
        sched.advance(1)
