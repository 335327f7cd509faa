"""Per-interval expert algorithms and the surrogate-loss toolkit.

Experts expose `point()` (the iterate to aggregate) and one update,
`update(g, anchor, t_local)`, driven by the current round's gradient
information. Surrogate experts never evaluate the original loss themselves:
they consume the shared gradient g_t evaluated at the aggregated point w_t and
the anchor w_t itself.
"""
from __future__ import annotations

import math

import numpy as np

from .core import (
    Array,
    ConvergenceError,
    Domain,
    InputError,
    Regularizer,
    exp_concave_beta,
)

# Gradient bound of the exp-concave surrogate when eta <= 1/(5DG), and the
# induced ONS curvature constant 0.5 * min{1/(4 * (2/(5D)) * D), 1} = 5/16.
SURROGATE_GAMMA = exp_concave_beta(G=2.0 / 5.0, D=1.0, alpha=1.0)  # = 5/16


def eta_grid(length: int, D: float, G: float) -> Array:
    """Learning-rate grid {2^-i / (5DG) : i = 0..ceil(0.5*log2(length))}."""
    if length < 1:
        raise InputError("interval length must be >= 1")
    top = math.ceil(0.5 * math.log2(length)) if length > 1 else 0
    base = 1.0 / (5.0 * D * G)
    return np.array([base * 2.0**-i for i in range(top + 1)])


def surrogate_exp_eval(eta: float, g: Array, anchor: Array, w: Array) -> tuple[float, Array]:
    """Exp-concave surrogate -eta*z + eta^2*z^2 with z = <g, anchor - w>."""
    z = float(np.dot(g, anchor - w))
    value = -eta * z + eta * eta * z * z
    grad = eta * (1.0 - 2.0 * eta * z) * g
    return value, grad


def surrogate_sc_eval(
    eta: float, G: float, g: Array, anchor: Array, w: Array
) -> tuple[float, Array]:
    """Strongly convex surrogate -eta*z + eta^2 G^2 ||anchor - w||^2."""
    z = float(np.dot(g, anchor - w))
    diff = w - anchor
    value = -eta * z + eta * eta * G * G * float(np.dot(diff, diff))
    grad = eta * g + 2.0 * eta * eta * G * G * diff
    return value, grad


# ---------------------------------------------------------------------------
# Quadratic solvers shared by ONS-style experts


def power_iteration(A: Array, iters: int = 20) -> float:
    """Largest-eigenvalue estimate of a symmetric PSD matrix."""
    d = A.shape[0]
    v = np.ones(d) / math.sqrt(d)
    lam = float(v @ A @ v)
    for _ in range(iters):
        av = A @ v
        norm = float(np.linalg.norm(av))
        if norm == 0.0:
            return 0.0
        v = av / norm
        lam = float(v @ A @ v)
    return lam


def a_norm_project(
    domain: Domain, A: Array, target: Array, tol: float = 1e-9, cap: int = 10_000
) -> Array:
    """Projection of `target` onto the domain in the norm induced by A.

    Exact (identity) when the target is feasible; otherwise projected gradient
    on the quadratic 0.5*(z-target)^T A (z-target) with step 1/lambda_max(A).
    """
    if domain.contains(target):
        return np.array(target, dtype=float)
    lam_max = float(np.linalg.eigvalsh(A)[-1])
    step = 1.0 / lam_max
    z = domain.project(target)
    for _ in range(cap):
        z_new = domain.project(z - step * (A @ (z - target)))
        move = float(np.linalg.norm(z_new - z))
        z = z_new
        if move <= tol:
            return z
    raise ConvergenceError("A-norm projection did not converge", residual=move)


def prox_quadratic_argmin(
    domain: Domain,
    A: Array,
    curvature: float,
    w_ref: Array,
    lin: Array,
    reg: Regularizer,
    reg_scale: float,
    tol: float = 1e-9,
    cap: int = 10_000,
) -> Array:
    """argmin_z <lin, z> + (curvature/2)*||z - w_ref||_A^2 + reg_scale * r(z) over the domain.

    Proximal gradient with step 1/lambda_max(A) (power iteration); for d == 1
    the first step is already the exact minimizer.
    """
    if A.shape[0] == 1:
        a = float(A[0, 0])
        z0 = w_ref - lin / (curvature * a)
        z = reg.prox(z0, reg_scale / (curvature * a))
        return domain.project(z)
    lam_max = power_iteration(A)
    step = 1.0 / lam_max
    z = np.array(w_ref, dtype=float)
    for _ in range(cap):
        grad_s = lin + curvature * (A @ (z - w_ref))
        z_new = domain.project(reg.prox(z - step * grad_s, step * reg_scale))
        move = float(np.linalg.norm(z_new - z))
        z = z_new
        if move <= tol:
            return z
    raise ConvergenceError("proximal quadratic solve did not converge", residual=move)


# ---------------------------------------------------------------------------
# Expert state machines


class BaseExpert:
    """Every expert exposes `point()` and `update(g, anchor, t_local)`: the
    round's gradient, the point it was evaluated at (the surrogate experts
    linearize around it) and the round index within the expert's lifetime.
    Each expert reads only the arguments its recursion uses."""

    tag: str = ""
    reg: Regularizer | None = None

    def __init__(self, domain: Domain):
        self.domain = domain
        self.w: Array = domain.project(domain.center)

    def point(self) -> Array:
        return self.w

    def _prox_project(self, z: Array, scale: float) -> None:
        """w <- project(prox(reg, z, scale)); the prox, an identity copy for a
        zero regularizer, is skipped then."""
        if self.reg is not None and not self.reg.is_zero:
            z = self.reg.prox(z, scale)
        self.w = self.domain.project(z)


class ProxGradExpert(BaseExpert):
    """Projected (proximal) gradient w <- project(prox(reg, w - eta_t g, eta_t)).

    `step` is a fixed eta_t, or None for the diminishing eta_t = D/(G sqrt t);
    without a regularizer this is plain projected gradient descent (OGD).
    """

    def __init__(
        self,
        domain: Domain,
        G: float,
        step: float | None = None,
        reg: Regularizer | None = None,
        tag: str = "ogd",
    ):
        super().__init__(domain)
        self.base = domain.diameter / G
        self.step = step
        self.reg = reg
        self.tag = tag

    def update(self, g: Array, anchor: Array, t_local: int) -> None:
        eta_t = self.base / math.sqrt(t_local) if self.step is None else self.step
        self._prox_project(self.w - eta_t * g, eta_t)


class OGDStronglyConvex(BaseExpert):
    """Gradient descent with steps 1/(modulus * t) for strongly convex losses."""

    def __init__(self, domain: Domain, modulus: float, tag: str = ""):
        super().__init__(domain)
        if modulus <= 0:
            raise InputError("strong-convexity modulus must be positive")
        self.modulus = modulus
        self.tag = tag or f"ogd-sc[{modulus!r}]"

    def update(self, g: Array, anchor: Array, t_local: int) -> None:
        self.w = self.domain.project(self.w - g / (self.modulus * t_local))


class ONSCore(BaseExpert):
    """Online Newton step: A accumulates gg^T, iterates projected in the A-norm."""

    def __init__(self, domain: Domain, curvature: float, tag: str = ""):
        super().__init__(domain)
        if curvature <= 0:
            raise InputError("ONS curvature must be positive")
        self.curvature = curvature
        eps = 1.0 / (curvature**2 * domain.diameter**2)
        self.A = eps * np.eye(domain.dim)
        self.tag = tag or f"ons[{curvature!r}]"

    def update(self, g: Array, anchor: Array, t_local: int) -> None:
        self.A += np.outer(g, g)
        target = self.w - np.linalg.solve(self.A, g) / self.curvature
        self.w = a_norm_project(self.domain, self.A, target)


class SurrogateExpExpert(ONSCore):
    """ONS on the exp-concave surrogate for one learning rate eta."""

    def __init__(self, domain: Domain, eta: float):
        super().__init__(domain, SURROGATE_GAMMA, tag=f"sur-exp[{eta!r}]")
        self.eta = eta

    def update(self, g: Array, anchor: Array, t_local: int) -> None:
        _, gs = surrogate_exp_eval(self.eta, g, anchor, self.w)
        super().update(gs, anchor, t_local)


class ProxONSExpert(ONSCore):
    """ONS on the exp-concave surrogate plus eta * r, via a proximal Newton step."""

    def __init__(self, domain: Domain, reg: Regularizer, eta: float):
        super().__init__(domain, SURROGATE_GAMMA, tag=f"prox-ons[{eta!r}]")
        self.reg = reg
        self.eta = eta

    def update(self, g: Array, anchor: Array, t_local: int) -> None:
        _, gs = surrogate_exp_eval(self.eta, g, anchor, self.w)
        self.A += np.outer(gs, gs)
        self.w = prox_quadratic_argmin(
            self.domain, self.A, self.curvature, self.w, gs, self.reg, self.eta
        )


class SurrogateScExpert(BaseExpert):
    """OGD with steps 1/(2 eta^2 G^2 t) on the strongly convex surrogate; given
    a regularizer, FOBOS on the surrogate plus eta * r (tag `comp-sc`)."""

    def __init__(self, domain: Domain, eta: float, G: float, reg: Regularizer | None = None):
        super().__init__(domain)
        self.eta = eta
        self.G = G
        self.reg = reg
        self.tag = f"{'sur' if reg is None else 'comp'}-sc[{eta!r}]"

    def update(self, g: Array, anchor: Array, t_local: int) -> None:
        _, gs = surrogate_sc_eval(self.eta, self.G, g, anchor, self.w)
        step = 1.0 / (2.0 * self.eta**2 * self.G**2 * t_local)
        self._prox_project(self.w - step * gs, step * self.eta)
