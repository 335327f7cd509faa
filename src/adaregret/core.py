"""Shared primitives: feasible domains, regularizers, loss families, checks.

Everything downstream (experts, meta-algorithms, harness) works with plain
numpy arrays and the small value types defined here.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Callable

import numpy as np

Array = np.ndarray


class InputError(ValueError):
    """Malformed argument or configuration value."""


class UsageError(RuntimeError):
    """API called out of protocol (wrong order, wrong state)."""


class ConvergenceError(RuntimeError):
    """An iterative solver hit its cap before reaching tolerance."""

    def __init__(self, message: str, residual: float | None = None):
        super().__init__(message)
        self.residual = residual


class InvariantViolation(AssertionError):
    """A runtime invariant check failed; `name` identifies the invariant."""

    def __init__(self, name: str, message: str):
        super().__init__(f"{name}: {message}")
        self.name = name


def as_vector(x: Any, dim: int | None = None) -> Array:
    v = np.asarray(x, dtype=float)
    if v.ndim == 0:
        v = v.reshape(1)
    if v.ndim != 1:
        raise InputError(f"expected a vector, got shape {v.shape}")
    if dim is not None and v.shape[0] != dim:
        raise InputError(f"expected dimension {dim}, got {v.shape[0]}")
    return v


def row_dots(X: Array, Y: Array) -> Array:
    """<x_i, y> for every row x_i of X, with Y one vector y or the rows y_i of
    an array shaped like X. Each is summed as np.dot sums one pair of vectors
    (X @ y and einsum may sum in another order)."""
    return (X[:, None, :] @ (Y[:, None] if Y.ndim == 1 else Y[:, :, None]))[:, 0, 0]


def row_norms(X: Array) -> Array:
    """||x_i|| for every row x_i of X, with np.linalg.norm's bits (the square
    root of np.dot(x, x))."""
    return np.sqrt(row_dots(X, X))


# ---------------------------------------------------------------------------
# Domains


@dataclass(frozen=True)
class Domain:
    """Closed convex feasible set with an exact Euclidean projection.

    Two kinds: `ball` (center, radius) and `box` (lower, upper bounds).
    Domains compare and hash by kind and array contents.
    """

    kind: str
    center_: Array | None = None
    radius: float | None = None
    lower: Array | None = None
    upper: Array | None = None

    @staticmethod
    def ball(center: Any, radius: float) -> "Domain":
        c = as_vector(center)
        r = float(radius)
        if r <= 0:
            raise InputError("ball radius must be positive")
        return Domain(kind="ball", center_=c, radius=r)

    @staticmethod
    def box(lower: Any, upper: Any) -> "Domain":
        lo = as_vector(lower)
        hi = as_vector(upper, dim=lo.shape[0])
        if np.any(hi < lo):
            raise InputError("box upper bound below lower bound")
        return Domain(kind="box", lower=lo, upper=hi)

    def _key(self) -> tuple:
        arrays = (self.center_, self.lower, self.upper)
        contents = tuple(None if a is None else tuple(a.tolist()) for a in arrays)
        return (self.kind, self.radius) + contents

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Domain):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    @property
    def dim(self) -> int:
        if self.kind == "ball":
            return int(self.center_.shape[0])
        return int(self.lower.shape[0])

    @property
    def diameter(self) -> float:
        if self.kind == "ball":
            return 2.0 * self.radius
        return float(np.linalg.norm(self.upper - self.lower))

    @property
    def center(self) -> Array:
        if self.kind == "ball":
            return self.center_.copy()
        return 0.5 * (self.lower + self.upper)

    @cached_property
    def at_origin(self) -> bool:
        """A ball centred at the origin (cached: the prox steps ask every round)."""
        return self.kind == "ball" and not np.any(self.center_)

    def project(self, x: Any) -> Array:
        v = as_vector(x, dim=self.dim)
        if self.kind == "ball":
            delta = v - self.center_
            norm = float(np.linalg.norm(delta))
            if norm <= self.radius:
                return v.copy()
            return self.center_ + delta * (self.radius / norm)
        return np.clip(v, self.lower, self.upper)

    def project_rows(self, X: Array) -> Array:
        """`project` applied to every row of the n x d array X."""
        if self.kind == "box":
            return np.clip(X, self.lower, self.upper)
        delta = X - self.center_
        norm = row_norms(delta)
        out = X.copy()
        far = norm > self.radius
        out[far] = self.center_ + delta[far] * (self.radius / norm[far])[:, None]
        return out

    def contains(self, x: Any, tol: float = 1e-9) -> bool:
        v = as_vector(x, dim=self.dim)
        if self.kind == "ball":
            return float(np.linalg.norm(v - self.center_)) <= self.radius + tol
        return bool(np.all(v >= self.lower - tol) and np.all(v <= self.upper + tol))

    def contains_rows(self, X: Array, tol: float = 1e-9) -> Array:
        """`contains` for every row of the n x d array X, as a boolean n-vector."""
        if self.kind == "ball":
            return row_norms(X - self.center_) <= self.radius + tol
        return ((X >= self.lower - tol) & (X <= self.upper + tol)).all(axis=1)

    def max_norm(self) -> float:
        """sup of ||w||_2 over the domain."""
        if self.kind == "ball":
            return float(np.linalg.norm(self.center_)) + self.radius
        corner = np.maximum(np.abs(self.lower), np.abs(self.upper))
        return float(np.linalg.norm(corner))

    def sample(self, rng: np.random.Generator) -> Array:
        if self.kind == "ball":
            g = rng.standard_normal(self.dim)
            norm = float(np.linalg.norm(g))
            if norm == 0.0:
                return self.center
            u = rng.uniform() ** (1.0 / self.dim)
            return self.center_ + g * (self.radius * u / norm)
        return rng.uniform(self.lower, self.upper)


# ---------------------------------------------------------------------------
# Regularizers


@dataclass(frozen=True)
class Regularizer:
    """Non-negative convex regularizer with a closed-form proximal map.

    Kinds: `none`, `l1` (weight * ||w||_1), `squared-l2` (weight * ||w||^2).
    """

    kind: str = "none"
    weight: float = 0.0

    def __post_init__(self):
        if self.kind not in ("none", "l1", "squared-l2"):
            raise InputError(f"unknown regularizer kind {self.kind!r}")
        if self.kind != "none" and self.weight < 0:
            raise InputError("regularizer weight must be non-negative")

    @property
    def is_zero(self) -> bool:
        return self.kind == "none" or self.weight == 0.0

    def value(self, w: Any) -> float:
        v = as_vector(w)
        if self.is_zero:
            return 0.0
        if self.kind == "l1":
            return float(self.weight * np.sum(np.abs(v)))
        return float(self.weight * np.dot(v, v))

    def value_rows(self, X: Array) -> Array:
        """`value` of every row of the n x d array X."""
        if self.is_zero:
            return np.zeros(X.shape[0])
        if self.kind == "l1":
            return self.weight * np.sum(np.abs(X), axis=1)
        return self.weight * row_dots(X, X)

    def prox(self, x: Any, scale: float) -> Array:
        """argmin_z 0.5||z - x||^2 + scale * r(z)."""
        v = as_vector(x)
        if scale < 0:
            raise InputError("prox scale must be non-negative")
        if self.is_zero or scale == 0.0:
            return v.copy()
        if self.kind == "l1":
            thr = scale * self.weight
            return np.sign(v) * np.maximum(np.abs(v) - thr, 0.0)
        return v / (1.0 + 2.0 * scale * self.weight)

    def prox_rows(self, X: Array, scale: Array) -> Array:
        """`prox` applied to every row x_i of X with its own positive scale_i."""
        if self.is_zero:
            return X.copy()
        if self.kind == "l1":
            thr = (scale * self.weight)[:, None]
            return np.sign(X) * np.maximum(np.abs(X) - thr, 0.0)
        return X / (1.0 + 2.0 * scale * self.weight)[:, None]

    def bound_on(self, domain: Domain) -> float:
        """An upper bound C on r over the domain (0 for the zero regularizer)."""
        if self.is_zero:
            return 0.0
        if self.kind == "l1":
            if domain.kind == "ball":
                c = domain.center_
                one_norm = float(np.sum(np.abs(c))) + domain.radius * np.sqrt(domain.dim)
            else:
                one_norm = float(np.sum(np.maximum(np.abs(domain.lower), np.abs(domain.upper))))
            return self.weight * one_norm
        return self.weight * domain.max_norm() ** 2


# ---------------------------------------------------------------------------
# Loss families

DECLARED_TYPES = ("convex", "exp-concave", "strongly-convex")
LOSS_FAMILIES = ("linear", "absolute", "quadratic", "squared-prediction", "log-like")


@dataclass
class LossSpec:
    """One round's loss function with its declared curvature class.

    params by family:
      linear:             g               f(w) = <g, w>
      absolute:           x, y            f(w) = |<x, w> - y|
      quadratic:          u, lam, b       f(w) = 0.5*lam*||w - u||^2 + <b, w>
      squared-prediction: x, y            f(w) = (<x, w> - y)^2
      log-like:           x, y (+-1)      f(w) = log(1 + exp(-y <x, w>))
    """

    family: str
    params: dict[str, Any]
    declared_type: str = "convex"
    modulus: float | None = None
    gradient_bound: float | None = None

    def __post_init__(self):
        if self.family not in LOSS_FAMILIES:
            raise InputError(f"unknown loss family {self.family!r}")
        if self.declared_type not in DECLARED_TYPES:
            raise InputError(f"unknown declared type {self.declared_type!r}")
        if self.declared_type != "convex" and (self.modulus is None or self.modulus <= 0):
            raise InputError("declared exp-concave/strongly-convex losses need a positive modulus")

    def value(self, w: Any) -> float:
        v = as_vector(w)
        p = self.params
        if self.family == "linear":
            return float(np.dot(p["g"], v))
        if self.family == "absolute":
            return float(abs(np.dot(p["x"], v) - p["y"]))
        if self.family == "quadratic":
            d = v - p["u"]
            return float(0.5 * p["lam"] * np.dot(d, d) + np.dot(p["b"], v))
        if self.family == "squared-prediction":
            return float((np.dot(p["x"], v) - p["y"]) ** 2)
        margin = -p["y"] * float(np.dot(p["x"], v))
        return float(np.logaddexp(0.0, margin))

    def grad(self, w: Any) -> Array:
        return self.grad_rows(as_vector(w)[None])[0]

    def grad_rows(self, W: Array) -> Array:
        """The gradient at every row w_i of the n x d array W; each row has
        the bits of a one-vector evaluation (`row_dots` sums as np.dot)."""
        p = self.params
        if self.family == "linear":
            return np.tile(np.asarray(p["g"], dtype=float), (W.shape[0], 1))
        if self.family == "quadratic":
            return p["lam"] * (W - p["u"]) + p["b"]
        x = np.asarray(p["x"], dtype=float)
        if self.family == "absolute":
            scale = np.sign(row_dots(W, x) - p["y"])
        elif self.family == "squared-prediction":
            scale = 2.0 * (row_dots(W, x) - p["y"])
        else:
            margin = -p["y"] * row_dots(W, x)
            scale = -p["y"] * (1.0 / (1.0 + np.exp(-margin)))
        return scale[:, None] * x


def exp_concave_beta(G: float, D: float, alpha: float) -> float:
    """Curvature constant 0.5 * min{1/(4GD), alpha} for alpha-exp-concave losses."""
    if G <= 0 or D <= 0 or alpha <= 0:
        raise InputError("exp_concave_beta needs positive G, D, alpha")
    return 0.5 * min(1.0 / (4.0 * G * D), alpha)


# ---------------------------------------------------------------------------
# Finite-difference utilities (used by checks and tests)


def fd_gradient(f: Callable[[Array], float], w: Array, h: float = 1e-6) -> Array:
    w = as_vector(w)
    g = np.zeros_like(w)
    for i in range(w.shape[0]):
        e = np.zeros_like(w)
        e[i] = h
        g[i] = (f(w + e) - f(w - e)) / (2.0 * h)
    return g


def fd_hessian(f: Callable[[Array], float], w: Array, h: float = 1e-4) -> Array:
    w = as_vector(w)
    d = w.shape[0]
    H = np.zeros((d, d))
    f0 = f(w)
    for i in range(d):
        ei = np.zeros(d)
        ei[i] = h
        for j in range(i, d):
            ej = np.zeros(d)
            ej[j] = h
            if i == j:
                H[i, i] = (f(w + ei) - 2.0 * f0 + f(w - ei)) / h**2
            else:
                H[i, j] = (
                    f(w + ei + ej) - f(w + ei - ej) - f(w - ei + ej) + f(w - ei - ej)
                ) / (4.0 * h**2)
                H[j, i] = H[i, j]
    return H


def check_loss_on_domain(
    loss: LossSpec,
    domain: Domain,
    rng: np.random.Generator,
    samples: int = 100,
    grad_tol: float = 1e-6,
    curvature_tol: float = 1e-4,
) -> None:
    """Validate the declared gradient bound and curvature class on samples.

    Raises InvariantViolation naming the failed property.
    """
    G = loss.gradient_bound
    for _ in range(samples):
        w = domain.sample(rng)
        g = loss.grad(w)
        if G is not None and float(np.linalg.norm(g)) > G * (1.0 + 1e-9) + grad_tol:
            raise InvariantViolation(
                "gradient-bound", f"||grad|| = {np.linalg.norm(g):.6g} exceeds G = {G}"
            )
        if loss.declared_type == "convex" or loss.family == "absolute":
            continue
        H = fd_hessian(loss.value, w)
        if loss.declared_type == "strongly-convex":
            lo = float(np.linalg.eigvalsh(H).min())
            if lo < loss.modulus - curvature_tol:
                raise InvariantViolation(
                    "strong-convexity", f"Hessian eigenvalue {lo:.6g} < lambda = {loss.modulus}"
                )
        else:  # exp-concave: H >= alpha * g g^T
            M = H - loss.modulus * np.outer(g, g)
            lo = float(np.linalg.eigvalsh(M).min())
            if lo < -curvature_tol:
                raise InvariantViolation(
                    "exp-concavity", f"H - alpha*gg^T eigenvalue {lo:.6g} < 0"
                )
