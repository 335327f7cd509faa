"""Correctness checks on one experiment's artifacts.

Every check raises CheckFailure naming what is wrong. The comparator check
recovers each window's comparator value from the artifacts (the window's loss
sum from trajectory.csv minus its empirical_regret from regret.csv) and
compares it with a minimum computed here, by code that shares nothing with
the program's solvers:

  median   d=1 absolute windows: the exact weighted median of y_i/x_i,
           clipped to the feasible interval.
  lsq-l1   squared-prediction windows with an l1 (or no) regularizer on a
           ball: the epigraph form solved by scipy.optimize SLSQP.
  abs-log  d=2 absolute/log-like windows on a disk: the better of the
           epigraph form (absolute terms) solved by SLSQP and a nested grid
           refinement from the best points of a 101x101 grid.
"""
from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.optimize import minimize

ARTIFACTS = ("trajectory.csv", "regret.csv", "meta.csv")

# A comparator value may exceed the independent minimum by at most the value
# change of moving the minimizer by POSITION_TOL: POSITION_TOL times the
# window objective's Lipschitz constant (plus float round-off). The program's
# scalar search locates its minimizer to about sqrt(eps)*|w| = 1.5e-8 (scipy's
# bounded Brent adds that relative term to its xatol), so 1e-7 leaves margin.
POSITION_TOL = 1e-7
ROUNDOFF_TOL = 1e-12

# The generic comparator (fixed-budget subgradient descent) has no stated
# accuracy, so its values above the independent minimum are measured and
# reported as harness.comparator_gap_max; only an excess above this absolute
# level fails the check. Values below the minimum are held to POSITION_TOL.
GENERIC_EXCESS_TOL = 1e-2

# Slack on the meta-regret lemma, the same as the program's runtime check.
META_LEMMA_SLACK = 1e-9


class CheckFailure(Exception):
    """An artifact failed a correctness check."""


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def read_rows(path: Path) -> list[dict[str, str]]:
    with Path(path).open(newline="") as fh:
        return list(csv.DictReader(fh))


def check_manifest(out_dir: Path) -> dict:
    """Each artifact's sha256 matches the manifest, and so does content_hash."""
    out_dir = Path(out_dir)
    manifest = json.loads((out_dir / "manifest.json").read_text())
    artifacts = manifest["artifacts"]
    if sorted(artifacts) != sorted(ARTIFACTS):
        raise CheckFailure(f"manifest lists {sorted(artifacts)}, expected {sorted(ARTIFACTS)}")
    for name, digest in artifacts.items():
        actual = _sha256(out_dir / name)
        if actual != digest:
            raise CheckFailure(f"{name}: sha256 {actual[:12]} != manifest {digest[:12]}")
    content = hashlib.sha256("".join(artifacts[k] for k in sorted(artifacts)).encode()).hexdigest()
    if content != manifest["content_hash"]:
        raise CheckFailure("content_hash does not match the artifact hashes")
    return manifest


def check_trajectory(rows: list[dict[str, str]], one_gradient: bool) -> np.ndarray:
    """Rounds run 1..T, cum_loss is the running sum of loss, and grad_evals
    equals t for one-gradient algorithms (and grows by at least 1 per round
    otherwise). Returns the per-round losses."""
    if not rows:
        raise CheckFailure("trajectory.csv has no rounds")
    losses = np.array([float(r["loss"]) for r in rows])
    running = 0.0
    prev_grads = 0
    for t, (row, loss) in enumerate(zip(rows, losses), start=1):
        if int(row["t"]) != t:
            raise CheckFailure(f"trajectory row {t} has t={row['t']}")
        running += loss
        cum = float(row["cum_loss"])
        if abs(cum - running) > 1e-12 * (1.0 + abs(running)):
            raise CheckFailure(f"t={t}: cum_loss {cum!r} != running sum {running!r}")
        grads = int(row["grad_evals"])
        if one_gradient and grads != t:
            raise CheckFailure(f"t={t}: grad_evals {grads} != t for a one-gradient algorithm")
        if grads < prev_grads + 1:
            raise CheckFailure(f"t={t}: grad_evals {grads} did not grow from {prev_grads}")
        prev_grads = grads
    return losses


def check_bounds(regret_rows: list[dict[str, str]]) -> int:
    """ratio <= 1 wherever a bound is given; returns the number of bounded rows."""
    bounded = 0
    for row in regret_rows:
        bound = float(row["bound_rhs"])
        if math.isnan(bound):
            continue
        bounded += 1
        ratio = float(row["ratio"])
        if not ratio <= 1.0:
            raise CheckFailure(
                f"[{row['p']},{row['q']}]: regret {row['empirical_regret']} exceeds bound "
                f"{row['bound_rhs']} (ratio {row['ratio']})"
            )
    return bounded


def check_meta(meta_rows: list[dict[str, str]]) -> None:
    """lhs <= rhs (the meta-regret lemma) on every meta.csv row."""
    if not meta_rows:
        raise CheckFailure("meta.csv has no rows")
    for row in meta_rows:
        lhs, rhs = float(row["lhs"]), float(row["rhs"])
        if not lhs <= rhs + META_LEMMA_SLACK:
            raise CheckFailure(
                f"slot {row['tag']} on [{row['start']},{row['end']}]: lhs {lhs!r} > rhs {rhs!r}"
            )


# ---------------------------------------------------------------------------
# Evaluated windows


def expected_windows(cfg: dict) -> list[tuple[int, int]]:
    """The (p, q) windows regret.csv must hold, in order, for a validated config."""
    T = cfg["horizon"]
    ev = cfg["evaluation"]
    mode = ev["mode"]
    if mode == "auto":
        mode = "exhaustive" if T <= 4096 else "anchored"
    out: list[tuple[int, int]] = []
    for tau in ev["tau"]:
        if mode == "exhaustive":
            starts = list(range(1, T - tau + 2))
        else:
            m = -(-tau // 4)
            starts = sorted({1} | {j * m for j in range(1, T // m + 1) if j * m + tau - 1 <= T})
        out.extend((p, p + tau - 1) for p in starts)
    if ev["gc_intervals"]:
        for p in range(1, T + 1):
            k = 0
            while p % (1 << k) == 0 and p + (1 << k) - 1 <= T:
                out.append((p, p + (1 << k) - 1))
                k += 1
    return out


def check_windows(cfg: dict, regret_rows: list[dict[str, str]]) -> None:
    got = [(int(r["p"]), int(r["q"])) for r in regret_rows]
    want = expected_windows(cfg)
    if got != want:
        raise CheckFailure(f"regret.csv holds {len(got)} windows, expected {len(want)}")


# ---------------------------------------------------------------------------
# Independent window minima


@dataclass
class StreamInputs:
    """The stream's raw inputs as arrays: features X (T x d), labels y, families."""

    X: np.ndarray
    y: np.ndarray
    family: np.ndarray
    domain: dict
    reg_kind: str
    reg_weight: float

    @classmethod
    def from_config(cls, cfg: dict) -> "StreamInputs":
        """Regenerate the stream through the library's public generator."""
        from adaregret import Domain, Regularizer, SegmentSpec, StreamConfig, generate_stream

        dom = cfg["domain"]
        if dom["kind"] == "ball":
            domain = Domain.ball(np.asarray(dom["center"], float), float(dom["radius"]))
        else:
            domain = Domain.box(np.asarray(dom["lower"], float), np.asarray(dom["upper"], float))
        keys = ("target", "scale", "noise", "b_scale", "direction")
        segments = [
            SegmentSpec(
                length=s["length"],
                family=s["family"],
                declared_type=s["declared_type"],
                modulus=s["modulus"],
                params={k: s[k] for k in keys if k in s},
            )
            for s in cfg["segments"]
        ]
        reg = cfg["regularizer"]
        events = generate_stream(
            StreamConfig(
                horizon=cfg["horizon"],
                dimension=cfg["dimension"],
                domain=domain,
                gradient_bound=cfg["gradient_bound"],
                segments=segments,
                regularizer=Regularizer(reg["kind"], reg["weight"]),
                seed=cfg["seed"],
            )
        )
        if any("x" not in ev.params for ev in events):
            raise CheckFailure("only x/y loss families have an independent minimum here")
        return cls(
            X=np.stack([np.asarray(ev.params["x"], float) for ev in events]),
            y=np.array([float(ev.params["y"]) for ev in events]),
            family=np.array([ev.family for ev in events]),
            domain=dom,
            reg_kind=reg["kind"] if reg["weight"] > 0 else "none",
            reg_weight=float(reg["weight"]),
        )

    @property
    def dim(self) -> int:
        return self.X.shape[1]

    def method(self, p: int, q: int) -> str:
        fams = set(self.family[p - 1 : q])
        if self.dim == 1 and fams == {"absolute"} and self.reg_kind == "none":
            return "median"
        if fams == {"squared-prediction"} and self.reg_kind in ("none", "l1") and self.domain["kind"] == "ball":
            return "lsq-l1"
        if self.dim == 2 and fams <= {"absolute", "log-like"} and self.reg_kind == "none" and self.domain["kind"] == "ball":
            return "abs-log"
        raise CheckFailure(f"no independent solver for families {sorted(fams)} at d={self.dim}")

    def lipschitz(self, p: int, q: int) -> float:
        """A Lipschitz constant of the window's sum objective on the domain."""
        X, y, fam = self.X[p - 1 : q], self.y[p - 1 : q], self.family[p - 1 : q]
        norms = np.linalg.norm(X, axis=1)
        dom = self.domain
        if dom["kind"] == "ball":
            reach = float(np.linalg.norm(dom["center"])) + float(dom["radius"])
        else:
            reach = float(np.linalg.norm(np.maximum(np.abs(dom["lower"]), np.abs(dom["upper"]))))
        squared = fam == "squared-prediction"
        per_round = np.where(squared, 2.0 * norms * (norms * reach + np.abs(y)), norms)
        reg = len(y) * self.reg_weight * math.sqrt(self.dim) if self.reg_kind == "l1" else 0.0
        return float(np.sum(per_round)) + reg

    def minimum(self, p: int, q: int) -> tuple[str, float]:
        method = self.method(p, q)
        X, y = self.X[p - 1 : q], self.y[p - 1 : q]
        if method == "median":
            return method, self._median(X[:, 0], y)
        if method == "lsq-l1":
            return method, self._lsq_l1(X, y)
        fam = self.family[p - 1 : q]
        return method, min(self._abs_log_epigraph(X, y, fam), self._grid(X, y, fam))

    # d=1 absolute: sum |x_i| |w - y_i/x_i| is minimized at a weighted median
    def _interval(self) -> tuple[float, float]:
        dom = self.domain
        if dom["kind"] == "ball":
            c, r = float(dom["center"][0]), float(dom["radius"])
            return c - r, c + r
        return float(dom["lower"][0]), float(dom["upper"][0])

    def _median(self, x: np.ndarray, y: np.ndarray) -> float:
        lo, hi = self._interval()
        z = y / x
        order = np.argsort(z, kind="stable")
        cum = np.cumsum(np.abs(x)[order])
        k = int(np.searchsorted(cum, 0.5 * cum[-1]))
        w = min(hi, max(lo, float(z[order][k])))
        return float(np.sum(np.abs(x * w - y)))

    def _to_ball(self, P: np.ndarray) -> np.ndarray:
        """Radial projection of the rows of P onto the (ball) domain."""
        center = np.asarray(self.domain["center"], float)
        radius = float(self.domain["radius"])
        off = P - center
        norms = np.linalg.norm(off, axis=-1, keepdims=True)
        return np.where(norms > radius, center + off * (radius / np.maximum(norms, radius)), P)

    def _epigraph(self, smooth, smooth_grad, A: np.ndarray, b: np.ndarray, weights: np.ndarray) -> float:
        """min over the ball of smooth(w) + sum_j weights_j |(A w - b)_j|, as
        min smooth(w) + <weights, s> subject to -s <= A w - b <= s, by SLSQP.
        Returns the objective at the solution pulled back onto the ball."""
        k, d = A.shape
        center = np.asarray(self.domain["center"], float)
        r2 = float(self.domain["radius"]) ** 2
        eye = np.eye(k)
        constraints = [
            {"type": "ineq", "fun": lambda v: v[d:] - (A @ v[:d] - b), "jac": lambda v: np.hstack([-A, eye])},
            {"type": "ineq", "fun": lambda v: v[d:] + (A @ v[:d] - b), "jac": lambda v: np.hstack([A, eye])},
            {
                "type": "ineq",
                "fun": lambda v: np.array([r2 - float((v[:d] - center) @ (v[:d] - center))]),
                "jac": lambda v: np.concatenate([-2.0 * (v[:d] - center), np.zeros(k)])[None, :],
            },
        ]
        res = minimize(
            lambda v: smooth(v[:d]) + weights @ v[d:],
            np.concatenate([center, np.abs(A @ center - b) + 1e-3]),
            jac=lambda v: np.concatenate([smooth_grad(v[:d]), weights]),
            constraints=constraints,
            method="SLSQP",
            options={"ftol": 1e-15, "maxiter": 1000},
        )
        w = self._to_ball(res.x[:d])
        return float(smooth(w) + weights @ np.abs(A @ w - b))

    # squared prediction + n * weight * ||w||_1 on a ball: s >= |w|
    def _lsq_l1(self, X: np.ndarray, y: np.ndarray) -> float:
        n, d = X.shape
        Q, q, c = 2.0 * X.T @ X, -2.0 * X.T @ y, float(y @ y)
        mu = n * self.reg_weight if self.reg_kind == "l1" else 0.0
        return self._epigraph(
            lambda w: 0.5 * w @ Q @ w + q @ w + c, lambda w: Q @ w + q, np.eye(d), np.zeros(d), np.full(d, mu)
        )

    # absolute and log-like on a ball: s_i >= |<x_i, w> - y_i| for the absolute terms
    def _abs_log_epigraph(self, X: np.ndarray, y: np.ndarray, fam: np.ndarray) -> float:
        absolute = fam == "absolute"
        Xl, yl = X[~absolute], y[~absolute]

        def log_loss_grad(w):
            sig = 0.5 * (1.0 + np.tanh(-0.5 * yl * (Xl @ w)))  # logistic(-margin)
            return Xl.T @ (-yl * sig)

        return self._epigraph(
            lambda w: np.sum(np.logaddexp(0.0, -yl * (Xl @ w))),
            log_loss_grad,
            X[absolute],
            y[absolute],
            np.ones(int(absolute.sum())),
        )

    # d=2 absolute / log-like on a disk: nested grid refinement
    def _grid(self, X: np.ndarray, y: np.ndarray, fam: np.ndarray) -> float:
        center = np.asarray(self.domain["center"], float)
        radius = float(self.domain["radius"])
        absolute = fam == "absolute"

        def values(P: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            P = self._to_ball(P)
            M = P @ X.T
            vals = np.sum(np.abs(M[:, absolute] - y[absolute]), axis=1)
            vals += np.sum(np.logaddexp(0.0, -y[~absolute] * M[:, ~absolute]), axis=1)
            return P, vals

        axis = np.linspace(-radius, radius, 101)
        P, vals = values(center + np.stack(np.meshgrid(axis, axis), -1).reshape(-1, 2))
        best = math.inf
        local = np.linspace(-2.0, 2.0, 21)
        offsets = np.stack(np.meshgrid(local, local), -1).reshape(-1, 2)
        edge = np.max(np.abs(offsets), axis=1) == 2.0
        for k in np.argsort(vals)[:5]:
            pt, val = P[k], float(vals[k])
            h = axis[1] - axis[0]
            for _ in range(10_000):
                if h <= 1e-13:
                    break
                Pn, vn = values(pt + h * offsets)
                j = int(np.argmin(vn))
                moved = vn[j] < val
                if moved:
                    pt, val = Pn[j], float(vn[j])
                # a best point on the local grid's edge may lie along a valley
                # that leaves the box: follow it at the same scale
                if not (moved and edge[j]):
                    h /= 5.0
            else:
                raise CheckFailure("grid refinement did not converge")
            best = min(best, val)
        return best


def comparator_values(losses: np.ndarray, regret_rows: list[dict[str, str]]) -> list[tuple[int, int, float]]:
    """(p, q, comparator value) per window: loss sum minus empirical regret."""
    prefix = np.concatenate([[0.0], np.cumsum(losses)])
    out = []
    for row in regret_rows:
        p, q = int(row["p"]), int(row["q"])
        out.append((p, q, float(prefix[q] - prefix[p - 1]) - float(row["empirical_regret"])))
    return out


def check_comparators(inputs: StreamInputs, comps: list[tuple[int, int, float]]) -> dict:
    """Compare every window's comparator with its independent minimum.

    Returns the per-method window counts and the largest excess
    (comparator - minimum) seen, keyed "gap_max".
    """
    cache: dict[tuple[int, int], tuple[str, float, float]] = {}
    counts: dict[str, int] = {}
    gap_max = -math.inf
    for p, q, comp in comps:
        if (p, q) not in cache:
            method, ref = inputs.minimum(p, q)
            tol = POSITION_TOL * inputs.lipschitz(p, q) + ROUNDOFF_TOL * (1.0 + abs(ref))
            cache[(p, q)] = method, ref, tol
        method, ref, tol = cache[(p, q)]
        counts[method] = counts.get(method, 0) + 1
        gap = comp - ref
        gap_max = max(gap_max, gap)
        above = GENERIC_EXCESS_TOL if method == "abs-log" else tol
        if gap < -tol or gap > above:
            raise CheckFailure(
                f"[{p},{q}] ({method}): comparator {comp!r} vs independent minimum {ref!r} "
                f"(gap {gap:.3g}, tolerance {tol:.3g})"
            )
    return {"counts": counts, "gap_max": gap_max}


def check_experiment(cfg: dict, out_dir: Path) -> dict:
    """All checks on one experiment's artifacts; returns a summary."""
    out_dir = Path(out_dir)
    manifest = check_manifest(out_dir)
    traj = read_rows(out_dir / "trajectory.csv")
    regret = read_rows(out_dir / "regret.csv")
    losses = check_trajectory(traj, manifest["one_gradient_per_round"])
    if int(traj[-1]["grad_evals"]) != manifest["grad_evals"]:
        raise CheckFailure("manifest grad_evals differs from the last trajectory row")
    check_windows(cfg, regret)
    bounded = check_bounds(regret)
    check_meta(read_rows(out_dir / "meta.csv"))
    summary = check_comparators(StreamInputs.from_config(cfg), comparator_values(losses, regret))
    summary.update(windows=len(regret), bounded=bounded, content_hash=manifest["content_hash"])
    return summary
