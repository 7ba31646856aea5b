"""Star bodies via radial functions, and scalar fields on the sphere.

A star body K (with 0 interior) is represented by its radial function
rho on S^{n-1}.  The scalar field driving the section machinery is

    f = rho^{n-1} / (n-1),

so that integrals of f over latitude spheres are section measures of K.
Fields may carry the Euclidean gradient of any smooth extension; the
meridian derivative d/dpsi then never needs the extension's radial
component because meridian tangents are orthogonal to the position.
Fields without a gradient fall back to central differences along the
meridian (step 1e-4, one Richardson level).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Callable, Optional

import numpy as np

from .sphere_geom import (
    EquatorFrame,
    check_dim,
    geodesic_distance,
    make_frame,
    probe_directions,
    unit_vector,
)

FD_STEP = 1e-4  # meridian fallback step
_PROBE_COUNT = 2048
# relative slack of the declared-bounds check: a probe along an axis can
# round rho an ulp past an exact bound such as an ellipsoid's semiaxis
_BOUND_SLACK = 4 * np.finfo(float).eps


def _fd_meridian(evaluate, frame, eta, psi, step):
    # central differences with one Richardson level; needs room inside
    # the latitude interval
    psi_arr = np.asarray(psi, dtype=float)
    if np.any(np.abs(psi_arr) > math.pi / 2 - 3 * step):
        raise ValueError("finite-difference meridian derivative too close to a pole")

    def central(h):
        return (evaluate(frame.embed(eta, psi_arr + h))
                - evaluate(frame.embed(eta, psi_arr - h))) / (2.0 * h)

    d1 = central(step)
    d2 = central(step / 2.0)
    return (4.0 * d2 - d1) / 3.0


def _meridian_derivative(evaluate, gradient, frame, eta, psi, fd_step):
    if gradient is None:
        return _fd_meridian(evaluate, frame, eta, psi, fd_step)
    x = frame.embed(eta, psi)
    t = frame.meridian_tangent(eta, psi)
    return np.sum(gradient(x) * t, axis=-1)


def _validate_gradient(evaluate, gradient, dim, lipschitz, rng):
    # derivative consistency on a few random (frame, eta, psi) probes
    tol = max(1e-6, 1e-4 * (lipschitz if lipschitz else 1.0))
    for k in range(4):
        frame = make_frame(rng.standard_normal(dim), seed=int(rng.integers(2 ** 31)))
        eta = rng.standard_normal((16, dim - 1))
        eta /= np.linalg.norm(eta, axis=1, keepdims=True)
        psi = rng.uniform(-1.4, 1.4, size=16)
        ana = _meridian_derivative(evaluate, gradient, frame, eta, psi, FD_STEP)
        num = _fd_meridian(evaluate, frame, eta, psi, FD_STEP)
        err = float(np.max(np.abs(ana - num)))
        if err > tol:
            raise ValueError(f"gradient inconsistent with finite differences ({err:.3e} > {tol:.3e})")


def _validate_lipschitz(evaluate, dim, bound, rng):
    u = rng.standard_normal((256, dim))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    v = rng.standard_normal((256, dim))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
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

    def meridian_derivative(self, frame, eta, psi, fd_step=FD_STEP):
        """d/dpsi of the field along meridians toward frame.pole."""
        return _meridian_derivative(self.evaluate, self.gradient,
                                    frame, eta, psi, fd_step)


@dataclass(frozen=True, eq=False)
class RadialField:
    """Radial function of a star body: rho on S^{dim-1}, rho > 0.

    Construction probes a quasi-uniform grid: positivity is a hard
    error, a declared `lipschitz_bound` is spot-checked on sampled
    pairs, and a supplied `gradient` is checked against meridian finite
    differences.  `radius_bound` / `radius_floor` are upper/lower bounds
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
    probe_min: float = 0.0
    probe_max: float = 0.0

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
        object.__setattr__(self, "probe_min", pmin)
        object.__setattr__(self, "probe_max", pmax)
        if self.radius_bound is None:
            object.__setattr__(self, "radius_bound", pmax * 1.05)
        if self.radius_floor is None:
            object.__setattr__(self, "radius_floor", pmin * 0.95)
        if (pmax > self.radius_bound * (1.0 + _BOUND_SLACK)
                or pmin < self.radius_floor * (1.0 - _BOUND_SLACK)):
            raise ValueError("declared radius bounds contradict probed values")
        rng = np.random.default_rng(1234 + 7 * self.dim)
        if self.lipschitz_bound is not None:
            if self.lipschitz_bound < 0:
                raise ValueError("lipschitz_bound must be nonnegative")
            _validate_lipschitz(self.evaluate, self.dim, self.lipschitz_bound, rng)
        if self.gradient is not None:
            _validate_gradient(self.evaluate, self.gradient, self.dim,
                               self.lipschitz_bound, rng)

    def meridian_derivative(self, frame, eta, psi, fd_step=FD_STEP):
        return _meridian_derivative(self.evaluate, self.gradient,
                                    frame, eta, psi, fd_step)


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


@lru_cache(maxsize=256)
def to_scalar_field(body):
    """Section density of a star body: f = rho^{n-1} / (n-1).

    Integrating f over a latitude sphere gives the conical section
    measure of the body at that latitude; n = 2 reduces to f = rho.
    """
    n = body.dim
    p = n - 1
    rho = body.evaluate
    grad = body.gradient

    def evaluate(u):
        return rho(u) ** p / p

    gradient = None
    if grad is not None:
        def gradient(u):
            return (rho(u) ** (p - 1))[..., None] * grad(u)

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
    rho = body.evaluate
    grad = body.gradient
    if n == 2:
        def evaluate(u):
            return np.log(rho(u))

        gradient = None
        if grad is not None:
            def gradient(u):
                return grad(u) / rho(u)[..., None]

        lip = None
        if body.lipschitz_bound is not None:
            lip = body.lipschitz_bound / body.radius_floor
        sup = max(abs(math.log(body.radius_bound)), abs(math.log(body.radius_floor)))
        return ScalarField(dim=2, evaluate=evaluate, gradient=gradient,
                           lipschitz_bound=lip, sup_bound=sup,
                           label=f"section_slope_density[{body.label}]")
    p = n - 2

    def evaluate(u):
        return rho(u) ** p / p

    gradient = None
    if grad is not None:
        def gradient(u):
            return (rho(u) ** (p - 1))[..., None] * grad(u)

    lip = None
    if body.lipschitz_bound is not None:
        ref = body.radius_bound if p >= 1 else body.radius_floor
        lip = ref ** (p - 1) * body.lipschitz_bound
    return ScalarField(dim=n, evaluate=evaluate, gradient=gradient,
                       lipschitz_bound=lip,
                       sup_bound=body.radius_bound ** p / p,
                       label=f"section_slope_density[{body.label}]")


def odd_part(field):
    """Odd component of a scalar field: (f(x) - f(-x)) / 2."""
    ev = field.evaluate
    gr = field.gradient

    def evaluate(u):
        u = np.asarray(u, dtype=float)
        return 0.5 * (ev(u) - ev(-u))

    gradient = None
    if gr is not None:
        def gradient(u):
            u = np.asarray(u, dtype=float)
            return 0.5 * (gr(u) + gr(-u))

    return ScalarField(dim=field.dim, evaluate=evaluate, gradient=gradient,
                       lipschitz_bound=field.lipschitz_bound,
                       sup_bound=field.sup_bound,
                       label=f"odd[{field.label}]")


def even_part(field):
    """Even component of a scalar field: (f(x) + f(-x)) / 2."""
    ev = field.evaluate
    gr = field.gradient

    def evaluate(u):
        u = np.asarray(u, dtype=float)
        return 0.5 * (ev(u) + ev(-u))

    gradient = None
    if gr is not None:
        def gradient(u):
            u = np.asarray(u, dtype=float)
            return 0.5 * (gr(u) - gr(-u))

    return ScalarField(dim=field.dim, evaluate=evaluate, gradient=gradient,
                       lipschitz_bound=field.lipschitz_bound,
                       sup_bound=field.sup_bound,
                       label=f"even[{field.label}]")


def scale_body(body, factor):
    """Dilate a star body: rho -> factor * rho."""
    factor = float(factor)
    if factor <= 0:
        raise ValueError("scale factor must be positive")
    rho = body.evaluate
    grad = body.gradient

    def evaluate(u):
        return factor * rho(u)

    gradient = None
    if grad is not None:
        def gradient(u):
            return factor * grad(u)

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
    rho = body.evaluate
    grad = body.gradient

    def evaluate(u):
        return rho(np.asarray(u, dtype=float) @ r)

    gradient = None
    if grad is not None:
        def gradient(u):
            return grad(np.asarray(u, dtype=float) @ r) @ r.T

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

    Forces the finite-difference meridian fallback; used to exercise and
    calibrate that code path.
    """
    return replace(field_or_body, gradient=None)
