"""Star bodies via radial functions, and scalar fields on the sphere.

A star body K (with 0 interior) is represented by its radial function
rho on S^{n-1}.  The scalar field driving the section machinery is

    f = rho^{n-1} / (n-1),

so that integrals of f over latitude spheres are section measures of K.
Fields may carry the Euclidean gradient of any smooth extension.  One
routine, `equator_derivative`, takes the meridian derivative d/dpsi at
the equator: with a gradient it is the gradient's component along the
pole, the meridian tangent there, so the extension's radial component
never enters; without one it is a central difference along the
meridian (step 1e-4, one Richardson level).  Derived fields (section
densities, odd and even parts, dilations, rotations, linear
combinations) are built from two helpers, a linear combination of
pulled-back fields and a pointwise composition, which carry the
gradient along.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Callable, Optional

import numpy as np

from .sphere_geom import (
    _latitude_points,
    check_dim,
    geodesic_distance,
    probe_directions,
    random_directions,
)

FD_STEP = 1e-4  # meridian fallback step
_PROBE_COUNT = 2048
# relative slack of the declared-bounds check: a probe along an axis can
# round rho an ulp past an exact bound such as an ellipsoid's semiaxis
_BOUND_SLACK = 4 * np.finfo(float).eps


def equator_derivative(evaluate, gradient, pole, lifted):
    """Meridian derivative d/dpsi at psi = 0 toward `pole`, per equator point.

    `lifted` holds (..., n) unit vectors orthogonal to the pole, which is
    one (n,) unit vector or one per point.  With a gradient the meridian
    tangent at the equator is the pole itself, and the products of the
    gradient's columns with the pole's are added in column order onto
    +0.0, the order of np.sum over the last axis, so the values equal
    that sum bit for bit.  Without one, central differences at latitudes
    +-FD_STEP and +-FD_STEP/2 are combined by one Richardson level; each
    +-h pair of points is cos(h) lifted +- sin(h) pole from one product
    of each, the same points `_latitude_points` gives.
    """
    return _meridian_terms(evaluate, gradient, pole, lifted)[0]


def _meridian_terms(evaluate, gradient, pole, lifted):
    # equator_derivative and the gradient it used, or f at latitude +FD_STEP
    pole, lifted = np.asarray(pole), np.asarray(lifted)
    if gradient is not None:
        g = gradient(lifted)
        d = 0.0 + g[..., 0] * pole[..., 0]
        for j in range(1, g.shape[-1]):
            d += g[..., j] * pole[..., j]
        return d, g

    def central(h):
        level = math.cos(h) * lifted
        rise = math.sin(h) * pole
        up = evaluate(level + rise)
        return (up - evaluate(level - rise)) / (2.0 * h), up

    d1, up = central(FD_STEP)
    return (4.0 * central(FD_STEP / 2.0)[0] - d1) / 3.0, up


def _validate_gradient(evaluate, gradient, lipschitz, u, v):
    # meridian derivative at each point u toward the unit tangent of v at
    # u: psi = 0 on those poles reaches every (point, tangent) pair
    tol = max(1e-6, 1e-4 * (lipschitz if lipschitz else 1.0))
    t = v - np.sum(u * v, axis=1, keepdims=True) * u
    t /= np.linalg.norm(t, axis=1, keepdims=True)
    ana = equator_derivative(evaluate, gradient, t, u)
    num = equator_derivative(evaluate, None, t, u)
    err = float(np.max(np.abs(ana - num)))
    if err > tol:
        raise ValueError(f"gradient inconsistent with finite differences ({err:.3e} > {tol:.3e})")


def _validate_lipschitz(evaluate, bound, u, v):
    gap = np.abs(evaluate(u) - evaluate(v))
    dist = geodesic_distance(u, v)
    slack = bound * dist * (1.0 + 1e-9) + 1e-12
    if np.any(gap > slack):
        worst = float(np.max(gap - slack))
        raise ValueError(f"sampled pair violates declared Lipschitz bound by {worst:.3e}")


@dataclass(frozen=True, eq=False)
class ScalarField:
    """Scalar function on S^{dim-1} with optional analytic derivative data.

    Attributes
    ----------
    dim : ambient dimension
    evaluate : callable, (..., dim) unit vectors -> (...) values
    gradient : callable or None
        Euclidean gradient of a smooth extension; only its tangential
        part is ever used.
    lipschitz_bound : certified upper bound for the geodesic Lipschitz
        constant, or None
    sup_bound : certified upper bound for sup |f|, or None
    label : short description for reports
    """

    dim: int
    evaluate: Callable
    gradient: Optional[Callable] = None
    lipschitz_bound: Optional[float] = None
    sup_bound: Optional[float] = None
    label: str = ""

    def __post_init__(self):
        check_dim(self.dim)
        if self.lipschitz_bound is not None and self.lipschitz_bound < 0:
            raise ValueError("lipschitz_bound must be nonnegative")


@dataclass(frozen=True, eq=False)
class RadialField:
    """Radial function of a star body: rho on S^{dim-1}, rho > 0.

    Construction probes a quasi-uniform grid: positivity is a hard
    error.  One seeded batch of 256 random point pairs (u, v) serves
    both remaining checks: a declared `lipschitz_bound` must hold on
    every pair, and a supplied `gradient` must match meridian finite
    differences at each u toward the unit tangent of v there.  No frame
    is completed.  `radius_bound` / `radius_floor` are upper/lower bounds
    for rho used by bracketing and Monte Carlo callers; when certified
    bounds are not supplied they fall back to inflated probe extrema.

    sections_star_shaped declares that hyperplane sections through the
    relevant foot points are star-shaped, which the hyperplane section
    operation requires.
    """

    dim: int
    evaluate: Callable
    gradient: Optional[Callable] = None
    lipschitz_bound: Optional[float] = None
    radius_bound: Optional[float] = None
    radius_floor: Optional[float] = None
    label: str = ""
    sections_star_shaped: bool = True

    def __post_init__(self):
        check_dim(self.dim)
        grid = probe_directions(self.dim, _PROBE_COUNT)
        values = np.asarray(self.evaluate(grid), dtype=float)
        if values.shape != (grid.shape[0],):
            raise ValueError("evaluate must map (N, dim) points to (N,) values")
        if not np.all(np.isfinite(values)) or np.any(values <= 0):
            raise ValueError("radial function must be positive and finite")
        pmin = float(values.min())
        pmax = float(values.max())
        if self.radius_bound is None:
            object.__setattr__(self, "radius_bound", pmax * 1.05)
        if self.radius_floor is None:
            object.__setattr__(self, "radius_floor", pmin * 0.95)
        if (pmax > self.radius_bound * (1.0 + _BOUND_SLACK)
                or pmin < self.radius_floor * (1.0 - _BOUND_SLACK)):
            raise ValueError("declared radius bounds contradict probed values")
        if self.lipschitz_bound is not None and self.lipschitz_bound < 0:
            raise ValueError("lipschitz_bound must be nonnegative")
        rng = np.random.default_rng(1234 + 7 * self.dim)
        u = random_directions(self.dim, 256, seed=rng)
        v = random_directions(self.dim, 256, seed=rng)
        if self.lipschitz_bound is not None:
            _validate_lipschitz(self.evaluate, self.lipschitz_bound, u, v)
        if self.gradient is not None:
            _validate_gradient(self.evaluate, self.gradient, self.lipschitz_bound, u, v)


# ---------------------------------------------------------------------------
# library bodies


def body_ball(dim, radius=1.0):
    """Centered ball: rho is constant."""
    check_dim(dim)
    radius = float(radius)
    if radius <= 0:
        raise ValueError("radius must be positive")

    def evaluate(u):
        u = np.asarray(u, dtype=float)
        return np.full(u.shape[:-1], radius)

    def gradient(u):
        u = np.asarray(u, dtype=float)
        return np.zeros(u.shape)

    return RadialField(dim=dim, evaluate=evaluate, gradient=gradient,
                       lipschitz_bound=0.0, radius_bound=radius,
                       radius_floor=radius, label=f"ball(r={radius:g})")


def body_shifted_ball(dim, radius=1.0, center=None):
    """Ball of given radius centered at `center`, with |center| < radius.

    rho(u) = <u, c> + sqrt(r^2 - |c|^2 + <u, c>^2); boundary points
    rho(u) u lie at distance exactly `radius` from the center.
    """
    check_dim(dim)
    radius = float(radius)
    if radius <= 0:
        raise ValueError("radius must be positive")
    if center is None:
        raise ValueError("center is required")
    c = np.asarray(center, dtype=float)
    if c.shape != (dim,):
        raise ValueError(f"center must have shape ({dim},)")
    cnorm = float(np.linalg.norm(c))
    if cnorm >= radius:
        raise ValueError("center must lie strictly inside the ball")
    gap = radius * radius - cnorm * cnorm

    def evaluate(u):
        s = np.asarray(u, dtype=float) @ c
        return s + np.sqrt(gap + s * s)

    def gradient(u):
        s = np.asarray(u, dtype=float) @ c
        q = np.sqrt(gap + s * s)
        return (1.0 + s / q)[..., None] * c

    lip = cnorm * (1.0 + cnorm / radius)
    return RadialField(dim=dim, evaluate=evaluate, gradient=gradient,
                       lipschitz_bound=lip, radius_bound=radius + cnorm,
                       radius_floor=radius - cnorm,
                       label=f"shifted_ball(r={radius:g}, |c|={cnorm:g})")


def body_ellipsoid(dim, semiaxes):
    """Axis-aligned ellipsoid: rho(u) = (sum u_i^2 / a_i^2)^(-1/2)."""
    check_dim(dim)
    a = np.asarray(semiaxes, dtype=float)
    if a.shape != (dim,):
        raise ValueError(f"semiaxes must have shape ({dim},)")
    if np.any(a <= 0):
        raise ValueError("semiaxes must be positive")
    inv2 = 1.0 / (a * a)

    def evaluate(u):
        q = np.asarray(u, dtype=float) ** 2 @ inv2
        return 1.0 / np.sqrt(q)

    def gradient(u):
        u = np.asarray(u, dtype=float)
        q = u ** 2 @ inv2
        return -(q ** -1.5)[..., None] * (u * inv2)

    amax = float(a.max())
    amin = float(a.min())
    lip = amax ** 3 / amin ** 2  # sup Q^{-3/2} |A u| over the sphere, coarsely
    axes = ",".join(f"{x:g}" for x in a)
    return RadialField(dim=dim, evaluate=evaluate, gradient=gradient,
                       lipschitz_bound=lip, radius_bound=amax,
                       radius_floor=amin, label=f"ellipsoid({axes})")


def body_harmonic_perturbed_ball(epsilon, degree, order):
    """Unit ball with a single real-harmonic bump: rho = 1 + eps * Y (n=3).

    Requires |eps| * sup|Y| < 1 so that rho stays positive; the sup
    bound is the harmonic field's certified bound.
    """
    from .harmonics import real_harmonic  # deferred: harmonics uses ScalarField

    y = real_harmonic(degree, order)
    epsilon = float(epsilon)
    if abs(epsilon) * y.sup_bound >= 1.0:
        raise ValueError("perturbation too large: |eps| * sup|Y| must stay below 1")

    def evaluate(u):
        return 1.0 + epsilon * y.evaluate(u)

    def gradient(u):
        return epsilon * y.gradient(u)

    lip = abs(epsilon) * y.lipschitz_bound
    return RadialField(dim=3, evaluate=evaluate, gradient=gradient,
                       lipschitz_bound=lip,
                       radius_bound=1.0 + abs(epsilon) * y.sup_bound,
                       radius_floor=1.0 - abs(epsilon) * y.sup_bound,
                       label=f"harmonic_ball(eps={epsilon:g}, l={degree}, m={order})")


# ---------------------------------------------------------------------------
# derived fields


def _linear(terms):
    # sum_i c_i f_i(u @ M_i) over (c_i, f_i, M_i) terms, M_i orthogonal
    # or None for the identity; the gradient pulls back through M_i^T
    parts = [(c, f.evaluate, f.gradient, m) for c, f, m in terms]

    def evaluate(u):
        u = np.asarray(u, dtype=float)
        return sum(c * ev(u if m is None else u @ m) for c, ev, _, m in parts)

    if any(gr is None for _, _, gr, _ in parts):
        return evaluate, None

    def gradient(u):
        u = np.asarray(u, dtype=float)
        return sum(c * (gr(u) if m is None else gr(u @ m) @ m.T) for c, _, gr, m in parts)

    return evaluate, gradient


def _compose(phi, dphi, f):
    # phi(f) with the chain-rule gradient dphi(f) grad f
    ev, gr = f.evaluate, f.gradient

    def evaluate(u):
        return phi(ev(u))

    if gr is None:
        return evaluate, None

    def gradient(u):
        return dphi(ev(u))[..., None] * gr(u)

    return evaluate, gradient


def _power(p):
    # t^p / p and its derivative t^(p-1)
    return (lambda t: t ** p / p), (lambda t: t ** (p - 1))


@lru_cache(maxsize=256)
def to_scalar_field(body):
    """Section density of a star body: f = rho^{n-1} / (n-1).

    Integrating f over a latitude sphere gives the conical section
    measure of the body at that latitude; n = 2 reduces to f = rho.
    """
    n = body.dim
    p = n - 1
    evaluate, gradient = _compose(*_power(p), body)
    lip = None
    if body.lipschitz_bound is not None:
        lip = body.radius_bound ** (p - 1) * body.lipschitz_bound
    return ScalarField(dim=n, evaluate=evaluate, gradient=gradient,
                       lipschitz_bound=lip,
                       sup_bound=body.radius_bound ** p / p,
                       label=f"section_density[{body.label}]")


@lru_cache(maxsize=256)
def hyperplane_profile_field(body):
    """Field whose equator transform is the z=0 slope of hyperplane sections.

    The flat section through z has polar profile r = rho cos(psi*) with
    rho(eta, psi*) sin(psi*) = z, and d/dz of r^{n-1}/(n-1) at z = 0 is
    rho^{n-3} drho/dpsi per meridian.  That is the meridian derivative of
    rho^{n-2}/(n-2) for n >= 3 and of log(rho) for n = 2.
    """
    n = body.dim
    lip = body.lipschitz_bound
    if n == 2:
        phi, dphi = np.log, np.reciprocal
        if lip is not None:
            lip = lip / body.radius_floor
        sup = max(abs(math.log(body.radius_bound)), abs(math.log(body.radius_floor)))
    else:
        p = n - 2
        phi, dphi = _power(p)
        if lip is not None:
            lip = body.radius_bound ** (p - 1) * lip
        sup = body.radius_bound ** p / p
    evaluate, gradient = _compose(phi, dphi, body)
    return ScalarField(dim=n, evaluate=evaluate, gradient=gradient,
                       lipschitz_bound=lip, sup_bound=sup,
                       label=f"section_slope_density[{body.label}]")


def _parity_part(field, sign, tag):
    # (f(x) + sign f(-x)) / 2
    evaluate, gradient = _linear([(0.5, field, None),
                                  (0.5 * sign, field, -np.eye(field.dim))])
    return ScalarField(dim=field.dim, evaluate=evaluate, gradient=gradient,
                       lipschitz_bound=field.lipschitz_bound,
                       sup_bound=field.sup_bound,
                       label=f"{tag}[{field.label}]")


def odd_part(field):
    """Odd component of a scalar field: (f(x) - f(-x)) / 2."""
    return _parity_part(field, -1.0, "odd")


def even_part(field):
    """Even component of a scalar field: (f(x) + f(-x)) / 2."""
    return _parity_part(field, 1.0, "even")


def scale_body(body, factor):
    """Dilate a star body: rho -> factor * rho."""
    factor = float(factor)
    if factor <= 0:
        raise ValueError("scale factor must be positive")
    evaluate, gradient = _linear([(factor, body, None)])
    lip = None if body.lipschitz_bound is None else factor * body.lipschitz_bound
    return RadialField(dim=body.dim, evaluate=evaluate, gradient=gradient,
                       lipschitz_bound=lip,
                       radius_bound=factor * body.radius_bound,
                       radius_floor=factor * body.radius_floor,
                       label=f"scaled({factor:g})[{body.label}]",
                       sections_star_shaped=body.sections_star_shaped)


def rotate_body(body, rotation):
    """Rotate a star body: rho_R(u) = rho(R^T u)."""
    r = np.asarray(rotation, dtype=float)
    n = body.dim
    if r.shape != (n, n) or not np.allclose(r @ r.T, np.eye(n), atol=1e-10):
        raise ValueError("rotation must be an orthogonal matrix of matching size")
    evaluate, gradient = _linear([(1.0, body, r)])
    return RadialField(dim=n, evaluate=evaluate, gradient=gradient,
                       lipschitz_bound=body.lipschitz_bound,
                       radius_bound=body.radius_bound,
                       radius_floor=body.radius_floor,
                       label=f"rotated[{body.label}]",
                       sections_star_shaped=body.sections_star_shaped)


def linear_field(dim, direction):
    """The restriction of x -> <x, e> to the sphere."""
    check_dim(dim)
    e = np.asarray(direction, dtype=float)
    if e.shape != (dim,):
        raise ValueError(f"direction must have shape ({dim},)")
    norm = float(np.linalg.norm(e))

    def evaluate(u):
        return np.asarray(u, dtype=float) @ e

    def gradient(u):
        u = np.asarray(u, dtype=float)
        return np.broadcast_to(e, u.shape).copy()

    return ScalarField(dim=dim, evaluate=evaluate, gradient=gradient,
                       lipschitz_bound=norm, sup_bound=norm,
                       label="linear")


def strip_gradient(field_or_body):
    """Copy of a field or body with the analytic gradient removed.

    Forces the finite-difference meridian fallback; used to exercise
    that code path.
    """
    return replace(field_or_body, gradient=None)
