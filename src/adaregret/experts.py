"""Per-interval expert algorithms and the surrogate-loss toolkit.

Experts expose their iterates as a stack, `points()` (one row per expert;
one-row experts also `point()`), their meta.csv `tags`, and one update,
`update(g, anchor, t_local)`, driven by the current round's gradient
information. Surrogate experts never evaluate the original loss themselves:
they consume the shared gradient g_t evaluated at the aggregated point w_t and
the anchor w_t itself; one `SurrogateStack` holds every surrogate expert of a
learning-rate grid. `ONSExpert` and `OGDStronglyConvex` hold one row per
curvature or modulus, and take one gradient per row or one shared by all.
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
    row_dots,
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


def _prox_is_projected(domain: Domain, reg: Regularizer) -> bool:
    """project(prox(x)) is the prox onto the domain: on a box (both maps act
    coordinate-wise, and d == 1 is an interval), on a ball centred at the
    origin (the minimizer is the prox point scaled onto the sphere), and for
    squared-l2 on any ball (the prox scales x toward the origin, and the
    constrained minimizer lies on the ray from the centre through it)."""
    return (
        domain.kind == "box" or domain.dim == 1 or domain.at_origin or reg.kind == "squared-l2"
    )


def prox_onto(domain: Domain, reg: Regularizer | None, x: Array, scale: float) -> Array:
    """argmin_z 0.5*||z - x||^2 + scale * r(z) over the domain.

    project(prox(x)) where that is exact (no or a zero regularizer, and the
    cases of `_prox_is_projected`); on any other ball the constraint's
    multiplier is bisected.
    """
    if reg is None or reg.is_zero:
        return domain.project(x)
    if _prox_is_projected(domain, reg):
        return domain.project(reg.prox(x, scale))
    return _prox_onto_ball(domain, reg, x, scale)


def prox_onto_rows(domain: Domain, reg: Regularizer | None, X: Array, scale: Array) -> Array:
    """`prox_onto` applied to every row x_i of X with its own scale_i."""
    if reg is None or reg.is_zero:
        return domain.project_rows(X)
    if _prox_is_projected(domain, reg):
        return domain.project_rows(reg.prox_rows(X, scale))
    return np.stack([_prox_onto_ball(domain, reg, x, s) for x, s in zip(X, scale.tolist())])


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
    target w_ref - A^{-1} lin / curvature, which is the exact minimizer
    (`newton_step_rows` on one row). Otherwise, for d == 1 the closed form:
    one prox step of length 1/(curvature*a) from w_ref is the exact
    minimizer; for d >= 2, proximal gradient from w_ref with the step
    1/(curvature * lambda_max(A)).
    """
    if reg is None or reg.is_zero:
        return newton_step_rows(domain, A[None], w_ref[None], lin[None], np.array([curvature]))[0]
    if A.shape[0] == 1:
        a = float(A[0, 0])
        z0 = w_ref - lin / (curvature * a)
        z = reg.prox(z0, reg_scale / (curvature * a))
        return domain.project(z)
    return proximal_gradient(
        domain, A, curvature, w_ref, lin, reg, reg_scale, w_ref, tol, cap
    )


def newton_step_rows(domain: Domain, A: Array, W: Array, gs: Array, beta: Array) -> Array:
    """The online Newton step of every row (Hazan, Agarwal & Kale 2007): the
    A_i-norm projection of the Newton target w_i - A_i^{-1} gs_i / beta_i, that
    is the minimizer of the quadratic model with no regularizer.

    One batched solve gives every target; only infeasible ones are projected,
    by `a_norm_project` at d >= 2 and in closed form at d == 1.
    """
    if domain.dim > 1:
        target = W - np.linalg.solve(A, gs[:, :, None])[:, :, 0] / beta[:, None]
        for i in np.flatnonzero(~domain.contains_rows(target)):
            target[i] = a_norm_project(domain, A[i], target[i])
        return target
    # d = 1: a 1 x 1 solve is g / a, and the A-norm projection of an
    # infeasible target is proximal_gradient's first step from the Euclidean
    # projection, after which it stops (the step ends outside the interval,
    # on the target's side, so it projects back within round-off of where it
    # started)
    a = A[:, 0]
    target = W - gs / a / beta[:, None]
    feasible = domain.contains_rows(target)
    if feasible.all():
        return target
    z = domain.project_rows(target)
    z = domain.project_rows(z - (1.0 / a) * (a * (z - target)))
    return np.where(feasible[:, None], target, z)


# ---------------------------------------------------------------------------
# Expert state machines


class BaseExpert:
    """k expert rows over one domain: `points()` is the k x d stack of
    iterates, all starting at the domain's centre, `tags` has one meta.csv tag
    per row, and `point()` is a one-row expert's iterate. `update(g, anchor,
    t_local)` takes the round's gradient, the point it was evaluated at (the
    surrogate experts linearize around it) and the round index within the
    expert's lifetime; each expert reads only the arguments its recursion
    uses. An update replaces W, so a row read before it keeps its values."""

    def __init__(self, domain: Domain, tags: list[str]):
        self.domain = domain
        self.tags = tags
        self.W = np.empty((len(tags), domain.dim))
        self.W[:] = domain.project(domain.center)

    def point(self) -> Array:
        return self.W[0]

    def points(self) -> Array:
        return self.W


def _positive(values, what: str) -> list[float]:
    out = np.atleast_1d(np.asarray(values, dtype=float)).tolist()
    if min(out) <= 0:
        raise InputError(f"{what} must be positive")
    return out


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
        super().__init__(domain, [tag])
        self.base = domain.diameter / G
        self.step = step
        self.reg = reg

    def update(self, g: Array, anchor: Array, t_local: int) -> None:
        eta_t = self.base / math.sqrt(t_local) if self.step is None else self.step
        self.W = prox_onto(self.domain, self.reg, self.W[0] - eta_t * g, eta_t)[None]


class OGDStronglyConvex(BaseExpert):
    """Gradient descent with steps 1/(lambda_i t) for strongly convex losses,
    one row per modulus lambda_i (tags `ogd-sc[lambda]`); `g` is one gradient
    per row or one shared by all. A scalar modulus is a one-row expert."""

    def __init__(self, domain: Domain, moduli, tags: list[str] | None = None):
        moduli = _positive(moduli, "strong-convexity modulus")
        super().__init__(domain, tags or [f"ogd-sc[{lam!r}]" for lam in moduli])
        self.moduli = np.array(moduli)

    def update(self, g: Array, anchor: Array, t_local: int) -> None:
        self.W = self.domain.project_rows(self.W - g / (self.moduli * t_local)[:, None])


class ONSExpert(BaseExpert):
    """Online Newton steps on the raw gradient, one row per curvature beta_i
    (tags `ons[beta]`): A_i accumulates g_i g_i^T and w_i becomes the A_i-norm
    projection of the Newton target w_i - A_i^{-1} g_i / beta_i
    (`newton_step_rows`). `g` is one gradient per row or one shared by all;
    a scalar curvature is a one-row expert."""

    def __init__(self, domain: Domain, curvatures, tags: list[str] | None = None):
        curvatures = _positive(curvatures, "ONS curvature")
        super().__init__(domain, tags or [f"ons[{beta!r}]" for beta in curvatures])
        self.beta = np.array(curvatures)
        eps = [1.0 / (beta**2 * domain.diameter**2) for beta in curvatures]
        self.A = np.array(eps)[:, None, None] * np.eye(domain.dim)

    def update(self, g: Array, anchor: Array, t_local: int) -> None:
        g = np.broadcast_to(g, self.W.shape)
        self.A += g[:, :, None] * g[:, None, :]
        self.W = newton_step_rows(self.domain, self.A, self.W, g, self.beta)


class SurrogateStack(BaseExpert):
    """Every surrogate expert of one learning-rate grid, as arrays.

    Per eta_i in `etas`, row 2i of `points()` is online Newton steps on the
    exp-concave surrogate (curvature SURROGATE_GAMMA; tag `sur-exp[eta]`),
    and row 2i+1 gradient steps 1/(2 eta^2 G^2 t) on the strongly convex
    surrogate (`sur-sc[eta]`). Given a regularizer both add eta * r: the
    Newton step becomes the proximal Newton step (`prox-ons[eta]`) and the
    gradient step a FOBOS step (`comp-sc[eta]`). The iterates are a 2k x d
    array and the Newton matrices a k x d x d one, so a round is a few array
    operations; the steps with no closed form (the A-norm projection of an
    infeasible Newton target, the proximal Newton step with a non-zero r at
    d >= 2, the prox onto an off-centre ball with l1) are solved row by row.
    """

    def __init__(self, domain: Domain, G: float, etas, reg: Regularizer | None = None):
        etas = [float(eta) for eta in etas]
        ons, sc = ("sur-exp", "sur-sc") if reg is None else ("prox-ons", "comp-sc")
        super().__init__(
            domain, [tag for eta in etas for tag in (f"{ons}[{eta!r}]", f"{sc}[{eta!r}]")]
        )
        self.reg = reg
        self.eta = np.array(etas)
        eps = 1.0 / (SURROGATE_GAMMA**2 * domain.diameter**2)
        self.A = np.empty((len(etas), domain.dim, domain.dim))
        self.A[:] = eps * np.eye(domain.dim)
        self._beta = np.full(len(etas), SURROGATE_GAMMA)
        self._sc_curvature = 2.0 * self.eta * self.eta * G * G
        self._sc_rate = np.array([2.0 * eta**2 * G**2 for eta in etas])

    def update(self, g: Array, anchor: Array, t_local: int) -> None:
        eta, ons, sc = self.eta, self.W[0::2], self.W[1::2]
        W = np.empty_like(self.W)
        # exp-concave surrogate gradient eta (1 - 2 eta z) g with z = <g, anchor - w>
        gs = (eta * (1.0 - 2.0 * eta * row_dots(anchor - ons, g)))[:, None] * g
        self.A += gs[:, :, None] * gs[:, None, :]
        W[0::2] = self._newton_step(ons, gs)
        # strongly convex surrogate gradient eta g + 2 eta^2 G^2 (w - anchor)
        gs = eta[:, None] * g + self._sc_curvature[:, None] * (sc - anchor)
        step = 1.0 / (self._sc_rate * t_local)
        W[1::2] = prox_onto_rows(self.domain, self.reg, sc - step[:, None] * gs, step * eta)
        self.W = W

    def _newton_step(self, w: Array, gs: Array) -> Array:
        """prox_quadratic_argmin(domain, A_i, SURROGATE_GAMMA, w_i, gs_i, reg, eta_i) per row."""
        dom, reg, A, beta = self.domain, self.reg, self.A, SURROGATE_GAMMA
        if reg is None or reg.is_zero:
            return newton_step_rows(dom, A, w, gs, self._beta)
        if dom.dim == 1:
            a = A[:, 0, 0]
            z = reg.prox_rows(w - gs / (beta * a)[:, None], self.eta / (beta * a))
            return dom.project_rows(z)
        return np.stack(
            [
                prox_quadratic_argmin(dom, A[i], beta, w[i], gs[i], reg, eta)
                for i, eta in enumerate(self.eta.tolist())
            ]
        )
