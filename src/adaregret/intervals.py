"""Geometric covering (GC) intervals over the 1-based round clock.

Level k >= 0 consists of the intervals [i*2^k, (i+1)*2^k - 1] for i = 1, 2, ...
so level k first appears at round 2^k and partitions {2^k, 2^k + 1, ...}.
Intervals are generated on the fly; no horizon is needed.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, NamedTuple

from .core import InputError, UsageError


class GCInterval(NamedTuple):
    start: int
    end: int
    level: int

    @property
    def length(self) -> int:
        return self.end - self.start + 1


def _check_round(t: int) -> int:
    if not isinstance(t, (int,)) or isinstance(t, bool) or t < 1:
        raise InputError(f"round index must be a positive integer, got {t!r}")
    return t


def intervals_starting_at(t: int) -> list[GCInterval]:
    """All GC intervals whose first round is t, ordered by level (length)."""
    t = _check_round(t)
    out = []
    k = 0
    while t % (1 << k) == 0:
        out.append(GCInterval(t, t + (1 << k) - 1, k))
        k += 1
    return out


def intervals_containing(t: int) -> list[GCInterval]:
    """All GC intervals containing round t; exactly floor(log2 t) + 1 of them."""
    t = _check_round(t)
    out = []
    k = 0
    while (1 << k) <= t:
        i = t >> k
        out.append(GCInterval(i << k, ((i + 1) << k) - 1, k))
        k += 1
    return out


def iter_gc_intervals(horizon: int) -> Iterator[GCInterval]:
    """All GC intervals fully contained in [1, horizon], by start then level."""
    _check_round(horizon)
    for t in range(1, horizon + 1):
        for iv in intervals_starting_at(t):
            if iv.end <= horizon:
                yield iv


@dataclass(frozen=True)
class IntervalPartition:
    """A cover of [start, end] by consecutive disjoint GC intervals.

    Piece lengths at least double up to the pivot piece; after the piece that
    follows the pivot they at least halve.
    """

    start: int
    end: int
    pieces: tuple[GCInterval, ...]
    pivot: int

    def validate(self) -> None:
        if not self.pieces:
            raise InputError("empty partition")
        pos = self.start
        for piece in self.pieces:
            if piece.start != pos:
                raise InputError(f"partition gap at {pos}")
            size = 1 << piece.level
            if piece.start % size != 0 or piece.start < size or piece.end != piece.start + size - 1:
                raise InputError(f"{piece} is not a GC interval")
            pos = piece.end + 1
        if pos != self.end + 1:
            raise InputError("partition does not end at the right endpoint")
        lens = [p.length for p in self.pieces]
        for j in range(1, self.pivot + 1):
            if not 2 * lens[j - 1] <= lens[j]:
                raise InputError(f"left lengths fail to double at piece {j}")
        for j in range(self.pivot + 2, len(lens)):
            if not 2 * lens[j] <= lens[j - 1]:
                raise InputError(f"right lengths fail to halve at piece {j}")


def partition(p: int, q: int) -> IntervalPartition:
    """Greedy GC cover of [p, q]: longest GC interval starting at the cursor."""
    p = _check_round(p)
    q = _check_round(q)
    if q < p:
        raise InputError(f"empty interval [{p}, {q}]")
    pieces: list[GCInterval] = []
    pos = p
    while pos <= q:
        fitting = [iv for iv in intervals_starting_at(pos) if iv.end <= q]
        pieces.append(fitting[-1])
        pos = fitting[-1].end + 1
    lens = [piece.length for piece in pieces]
    pivot = int(max(range(len(lens)), key=lambda j: (lens[j], -j)))
    return IntervalPartition(start=p, end=q, pieces=tuple(pieces), pivot=pivot)


def partition_piece_bound(p: int, q: int) -> int:
    """Upper bound 2*ceil(log2(q - p + 2)) on the number of pieces."""
    n = q - p + 2
    return 2 * max(1, (n - 1).bit_length())


class LifetimeScheduler:
    """Tracks which GC intervals are born and die as rounds advance.

    advance(t) must be called with t = 1, 2, ... in order; it returns the
    intervals starting at t and those (previously born) ending at t.
    """

    def __init__(self):
        self._next = 1
        self._alive: dict[int, list[GCInterval]] = {}

    @property
    def live_intervals(self) -> list[GCInterval]:
        out: list[GCInterval] = []
        for end in sorted(self._alive):
            out.extend(self._alive[end])
        return out

    def advance(self, t: int) -> tuple[list[GCInterval], list[GCInterval]]:
        if t != self._next:
            raise UsageError(f"advance({t}) out of order; expected {self._next}")
        self._next += 1
        born = intervals_starting_at(t)
        for iv in born:
            self._alive.setdefault(iv.end, []).append(iv)
        dying = sorted(self._alive.pop(t, []), key=lambda iv: iv.level)
        return born, dying
