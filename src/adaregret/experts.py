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


def _prox_onto_ball(domain: Domain, reg: Regularizer, x: Array, scale: float) -> Array:
    """argmin_z 0.5*||z - x||^2 + scale * r(z) over a ball with centre c.

    The minimizer is z(mu) = prox((x + mu c) / (1 + mu), scale / (1 + mu)),
    the prox with the multiplier term (mu/2)*||z - c||^2 folded in, at the
    smallest mu >= 0 with ||z(mu) - c|| <= radius; that distance falls as mu
    grows, so mu is bisected.
    """
    c, radius = domain.center_, domain.radius

    def at(mu: float) -> Array:
        return reg.prox((x + mu * c) / (1.0 + mu), scale / (1.0 + mu))

    def outside(mu: float) -> bool:
        return float(np.linalg.norm(at(mu) - c)) > radius

    if not outside(0.0):
        return at(0.0)
    lo, hi = 0.0, 1.0
    while outside(hi):
        lo, hi = hi, 2.0 * hi
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if outside(mid):
            lo = mid
        else:
            hi = mid
    return at(hi)


def prox_onto(domain: Domain, reg: Regularizer | None, x: Array, scale: float) -> Array:
    """argmin_z 0.5*||z - x||^2 + scale * r(z) over the domain.

    project(prox(x)) is exact with no (or a zero) regularizer, on a box (both
    maps act coordinate-wise, and d == 1 is an interval) and on a ball centred
    at the origin (the minimizer is the prox point scaled onto the sphere);
    on any other ball the constraint's multiplier is bisected.
    """
    if reg is None or reg.is_zero:
        return domain.project(x)
    if domain.kind == "box" or domain.dim == 1 or domain.at_origin:
        return domain.project(reg.prox(x, scale))
    return _prox_onto_ball(domain, reg, x, scale)


def proximal_gradient(
    domain: Domain,
    A: Array,
    curvature: float,
    w_ref: Array,
    lin: Array | None,
    reg: Regularizer | None,
    scale: float,
    start: Array,
    tol: float,
    cap: int,
) -> Array:
    """argmin_z <lin, z> + (curvature/2)*||z - w_ref||_A^2 + scale * r(z) over the domain.

    Proximal gradient from `start` with the step 1/L, where L = curvature *
    lambda_max(A) is the Lipschitz constant of the smooth part's gradient
    (Beck & Teboulle 2009); A must be symmetric PSD and nonzero. Stops when a
    step moves the iterate by at most `tol` (a gradient-mapping norm of at
    most L * tol); raises ConvergenceError after `cap` steps. `lin` None means
    no linear term; a zero (or absent) regularizer skips the prox.
    """
    H = curvature * A  # the smooth part's Hessian; exactly A when curvature == 1
    step = 1.0 / (curvature * float(np.linalg.eigvalsh(A)[-1]))
    prox_scale = step * scale
    z = start
    for _ in range(cap):
        grad = H @ (z - w_ref)
        if lin is not None:
            grad = lin + grad
        z_new = prox_onto(domain, reg, z - step * grad, prox_scale)
        move = float(np.linalg.norm(z_new - z))
        z = z_new
        if move <= tol:
            return z
    raise ConvergenceError(f"proximal gradient did not converge in {cap} steps", residual=move)


def a_norm_project(
    domain: Domain, A: Array, target: Array, tol: float = 1e-9, cap: int = 10_000
) -> Array:
    """Projection of `target` onto the domain in the norm induced by A.

    Exact (identity) when the target is feasible; otherwise projected gradient
    on 0.5*(z-target)^T A (z-target) from the Euclidean projection, with the
    step 1/lambda_max(A).
    """
    if domain.contains(target):
        return np.array(target, dtype=float)
    return proximal_gradient(
        domain, A, 1.0, target, None, None, 0.0, domain.project(target), tol, cap
    )


def prox_quadratic_argmin(
    domain: Domain,
    A: Array,
    curvature: float,
    w_ref: Array,
    lin: Array,
    reg: Regularizer | None,
    reg_scale: float,
    tol: float = 1e-9,
    cap: int = 10_000,
) -> Array:
    """argmin_z <lin, z> + (curvature/2)*||z - w_ref||_A^2 + reg_scale * r(z) over the domain.

    With no (or a zero) regularizer, the A-norm projection of the Newton
    target w_ref - A^{-1} lin / curvature, which is the exact minimizer. For
    d == 1 the closed form: one prox step of length 1/(curvature*a) from
    w_ref is the exact minimizer. For d >= 2, proximal gradient from w_ref
    with the step 1/(curvature * lambda_max(A)).
    """
    if reg is None or reg.is_zero:
        return a_norm_project(domain, A, w_ref - np.linalg.solve(A, lin) / curvature)
    if A.shape[0] == 1:
        a = float(A[0, 0])
        z0 = w_ref - lin / (curvature * a)
        z = reg.prox(z0, reg_scale / (curvature * a))
        return domain.project(z)
    return proximal_gradient(
        domain, A, curvature, w_ref, lin, reg, reg_scale, w_ref, tol, cap
    )


# ---------------------------------------------------------------------------
# Expert state machines


class BaseExpert:
    """Every expert exposes `point()` and `update(g, anchor, t_local)`: the
    round's gradient, the point it was evaluated at (the surrogate experts
    linearize around it) and the round index within the expert's lifetime.
    Each expert reads only the arguments its recursion uses."""

    tag: str = ""

    def __init__(self, domain: Domain):
        self.domain = domain
        self.w: Array = domain.project(domain.center)

    def point(self) -> Array:
        return self.w


class ProxGradExpert(BaseExpert):
    """Projected (proximal) gradient w <- prox_onto(domain, reg, w - eta_t g, eta_t).

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
        self.w = prox_onto(self.domain, self.reg, self.w - eta_t * g, eta_t)


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


class ONSExpert(BaseExpert):
    """Online Newton step: A accumulates gg^T and w <- the proximal Newton
    step prox_quadratic_argmin(A, curvature, w, g, reg, eta).

    With `eta` the gradient is the exp-concave surrogate's (tag `sur-exp[eta]`,
    or `prox-ons[eta]` given a regularizer, which enters as eta * r); without
    it the raw gradient (`ons[curvature]`). With no (or a zero) regularizer the
    step is the A-norm projection of the Newton target.
    """

    def __init__(
        self,
        domain: Domain,
        curvature: float,
        eta: float | None = None,
        reg: Regularizer | None = None,
        tag: str = "",
    ):
        super().__init__(domain)
        if curvature <= 0:
            raise InputError("ONS curvature must be positive")
        self.curvature = curvature
        self.eta = eta
        self.reg = reg
        eps = 1.0 / (curvature**2 * domain.diameter**2)
        self.A = eps * np.eye(domain.dim)
        kind = "ons" if eta is None else "sur-exp" if reg is None else "prox-ons"
        self.tag = tag or f"{kind}[{curvature if eta is None else eta!r}]"

    def update(self, g: Array, anchor: Array, t_local: int) -> None:
        if self.eta is not None:
            _, g = surrogate_exp_eval(self.eta, g, anchor, self.w)
        self.A += np.outer(g, g)
        self.w = prox_quadratic_argmin(
            self.domain, self.A, self.curvature, self.w, g, self.reg, self.eta or 0.0
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
        self.w = prox_onto(self.domain, self.reg, self.w - step * gs, step * self.eta)
