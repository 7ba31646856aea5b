"""Real spherical harmonics, zonal harmonics and transform multipliers.

The n=3 harmonics come from the zonal recurrence.  The |m|-th derivative
of the Legendre polynomial P_l is (l+|m|)! / (2^|m| |m|! (l-|m|)!) times
P_{l-|m|, 2|m|+3}, the Legendre polynomial of dimension 2|m|+3 (the
Gegenbauer polynomial C^{|m|+1/2} normalised to P(1) = 1; Atkinson & Han,
Spherical Harmonics and Approximations on the Unit Sphere, 2012), so
Y_{l,m} = k_{l,m} P_{l-|m|, 2|m|+3}(z) Re or Im (x + i y)^|m|, with
values and tangential gradients exact to roundoff and free of pole
singularities.  Normalization is L2: integral of Y^2 over S^2 equals 1,
and Y(l=1, m=0) = sqrt(3/(4 pi)) x3.

The equatorial transform is rotation-equivariant and acts diagonally on
the harmonics of every dimension n = 2..6, so one zonal harmonic per
degree fixes its multiplier: `multiplier_table` fits it by least squares
against the transform, and `funk_hecke_multiplier` gives the closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .sphere_geom import (
    check_dim,
    fibonacci_sphere,
    make_frame,
    random_directions,
    equator_rule,
    unit_vector,
    vol_sphere,
)
from .star_body import ScalarField, _linear
from .slice_transforms import transform_sweep

LMAX = 10

# Covering radius of the 8192-point Fibonacci probe grid; verified by test.
_PROBE_N = 8192
_PROBE_COVER = 0.045


@lru_cache(maxsize=None)
def _probe_grid():
    # the Fibonacci grid behind every harmonic's sup bound, shared and read-only
    grid = fibonacci_sphere(_PROBE_N)
    grid.setflags(write=False)
    return grid


def _azimuthal(order, x, y):
    # Re and Im of (x + i y)^k for k = order - 1 and k = order, by the
    # two-term recurrence of multiplying by x + i y
    re, im = np.ones_like(x), np.zeros_like(x)
    prev = re, im
    for _ in range(order):
        prev = re, im
        re, im = re * x - im * y, re * y + im * x
    return prev, (re, im)


@lru_cache(maxsize=256)
def real_harmonic(degree, order):
    """Real spherical harmonic Y_{l,m} on S^2 as a ScalarField.

    Parameters
    ----------
    degree : l, 0 <= l <= 10
    order : m, -l <= m <= l; positive orders are cosine-type, negative
        sine-type, in azimuth.

    Returns
    -------
    ScalarField on unit vectors whose gradient is that of the solid
    harmonic r^l Y: the exact tangential gradient plus the radial part
    l Y u.  The declared sup bound is the probe-grid maximum inflated by
    the covering correction 1 / (1 - l * r_cov), using the great-circle
    derivative bound |dY/ds| <= l sup|Y|; the Lipschitz bound is l times
    the sup bound.
    """
    l, m = int(degree), int(order)
    am = abs(m)
    if not (0 <= am <= l <= LMAX):
        raise ValueError(f"need 0 <= |order| <= degree <= {LMAX}")
    # L2 normalisation N_{l,m} times the |m|-th derivative of P_l at 1,
    # (l+|m|)! / (2^|m| |m|! (l-|m|)!), which turns P_{l-|m|, 2|m|+3}
    # into that derivative
    scale = math.sqrt((2 if m else 1) * (2 * l + 1) / (4.0 * math.pi)
                      * math.factorial(l + am) / math.factorial(l - am))
    scale /= 2 ** am * math.factorial(am)
    part = 1 if m < 0 else 0  # Im of (x + i y)^|m| for sine type, else Re
    dim = 2 * am + 3

    def evaluate(u):
        x, y, z = np.moveaxis(np.asarray(u, dtype=float), -1, 0)
        return scale * _zonal(dim, l - am, z, derivative=False) * _azimuthal(am, x, y)[1][part]

    def gradient(u):
        u = np.asarray(u, dtype=float)
        x, y, z = np.moveaxis(u, -1, 0)
        zf, dzf = _zonal(dim, l - am, z)
        (re0, im0), top = _azimuthal(am, x, y)
        az = top[part]
        # d/dx (x + i y)^k = k (x + i y)^(k-1), d/dy = i k (x + i y)^(k-1)
        ax, ay = (am * re0, -am * im0) if part == 0 else (am * im0, am * re0)
        # r^l Y = r^(l-|m|) zf(z / r) az(x, y) with az homogeneous of
        # degree |m|; its gradient at |u| = 1 adds this multiple of u
        radial = ((l - am) * zf - z * dzf) * az
        return scale * (radial[..., None] * u + np.stack([zf * ax, zf * ay, dzf * az], axis=-1))

    probe_max = float(np.max(np.abs(evaluate(_probe_grid()))))
    if l == 0:
        sup = probe_max
    else:
        sup = probe_max / (1.0 - l * _PROBE_COVER)
    return ScalarField(dim=3, evaluate=evaluate, gradient=gradient,
                       lipschitz_bound=l * sup, sup_bound=sup,
                       label=f"Y({l},{m})")


def harmonic_field(coefficients):
    """Linear combination of real harmonics: {(l, m): coefficient}."""
    items = sorted((int(l), int(m), float(c))
                   for (l, m), c in dict(coefficients).items() if c != 0.0)
    if not items:
        raise ValueError("need at least one nonzero coefficient")
    parts = [(real_harmonic(l, m), c) for l, m, c in items]
    evaluate, gradient = _linear([(c, y, None) for y, c in parts])
    sup = sum(abs(c) * y.sup_bound for y, c in parts)
    lip = sum(abs(c) * y.lipschitz_bound for y, c in parts)
    label = "+".join(f"{c:g}*{y.label}" for y, c in parts)
    return ScalarField(dim=3, evaluate=evaluate, gradient=gradient,
                       lipschitz_bound=lip, sup_bound=sup, label=label)


def _zonal(dim, degree, t, derivative=True):
    # P_{l,n}(t) and P'_{l,n}(t), normalised to P(1) = 1, from the
    # three-term recurrence and its derivative: Chebyshev T_l at n = 2,
    # Legendre at n = 3.  Without `derivative` the derivative recurrence
    # is skipped and P alone is returned, the same bits as the pair's P
    t = np.asarray(t, dtype=float)
    p_prev, dp_prev = np.ones_like(t), np.zeros_like(t)
    p, dp = t, np.ones_like(t)
    for k in range(1, degree):
        a, b = 2 * k + dim - 2, k + dim - 2
        if derivative:
            dp_prev, dp = dp, (a * (p + t * dp) - k * dp_prev) / b
        p_prev, p = p, (a * t * p - k * p_prev) / b
    pair = (p, dp) if degree else (p_prev, dp_prev)
    return pair if derivative else pair[0]


def zonal_field(dim, degree, axis):
    """Zonal harmonic P_{l,n}(<u, e>) about the unit axis e as a ScalarField.

    P_{l,n} is the degree-l Legendre polynomial of dimension n (the
    Gegenbauer polynomial C_l^{(n-2)/2} normalised to P(1) = 1); its
    gradient P'(<u, e>) e is exact.  No bounds are declared.
    """
    dim, degree = check_dim(dim), int(degree)
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    e = unit_vector(axis, dim)

    def evaluate(u):
        return _zonal(dim, degree, np.asarray(u, dtype=float) @ e, derivative=False)

    def gradient(u):
        return _zonal(dim, degree, np.asarray(u, dtype=float) @ e)[1][..., None] * e

    return ScalarField(dim=dim, evaluate=evaluate, gradient=gradient,
                       label=f"zonal(n={dim},l={degree})")


def funk_hecke_multiplier(dim, degree):
    """Closed-form multiplier |S^{n-2}| P'_{l,n}(0) of the transform on degree l.

    By Funk-Hecke the transform multiplies every degree-l harmonic on
    S^{n-1} by this constant: 2 l sin(l pi / 2) at n = 2, 2 pi P_l'(0)
    at n = 3, and zero for every even degree.
    """
    dim, degree = check_dim(dim), int(degree)
    if degree % 2 == 0:
        return 0.0
    return vol_sphere(dim - 2) * float(_zonal(dim, degree, 0.0)[1])


@dataclass(frozen=True, eq=False)
class MultiplierTable:
    """Measured diagonal action of the equatorial transform per degree.

    `multipliers[i]` is the least-squares slope lambda of T f against f
    for the zonal harmonic f of degree `degrees[i]` over the poles, and
    `residuals[i]` the worst absolute deviation |T f - lambda f|.
    """

    degrees: tuple
    multipliers: tuple
    residuals: tuple
    resolution: int


def _zonal_table(dim, degrees, num_xi, resolution, seed):
    # one frame per pole for every degree; each degree sweeps the zonal
    # harmonic about a generic axis, so no coordinate column of the
    # gradient drops out of the transform
    if num_xi < 1:
        raise ValueError("num_xi must be at least 1")
    xis = random_directions(dim, num_xi, seed=seed)
    frames = [make_frame(xi) for xi in xis]
    rule = equator_rule(dim, resolution)
    lams, residuals = [], []
    for degree in degrees:
        f = zonal_field(dim, degree, np.arange(1.0, dim + 1.0))
        t = transform_sweep(f, frames, rule)
        v = f.evaluate(xis)
        if float(v @ v) < 1e-12:
            raise ValueError("degenerate pole sample: harmonic vanishes on all poles")
        lams.append(float(t @ v) / float(v @ v))
        residuals.append(float(np.max(np.abs(t - lams[-1] * v))))
    return MultiplierTable(degrees=tuple(degrees), multipliers=tuple(lams),
                           residuals=tuple(residuals), resolution=rule.resolution)


def estimate_multiplier(degree, *, dim=3, num_xi=50, resolution=None, seed=11):
    """Least-squares multiplier of the transform on degree-l harmonics.

    Returns (lambda, residual): the slope of T f against f over random
    poles for the zonal harmonic f of that degree, and the worst
    absolute deviation from that diagonal action.
    """
    table = _zonal_table(dim, (int(degree),), num_xi, resolution, seed)
    return table.multipliers[0], table.residuals[0]


def multiplier_table(lmax, *, dim=3, num_xi=50, resolution=None, seed=11):
    """Estimate the multipliers of every degree 0..lmax in dimension `dim`.

    The transform of a degree-l harmonic integrates a degree l - 1
    polynomial over the equator, so the fits are exact to roundoff only
    while lmax <= equator_rule(dim, resolution).degree + 1; beyond that
    the table is computed all the same, and its residuals show the
    quadrature error.
    """
    lmax = int(lmax)
    if not (0 <= lmax <= LMAX):
        raise ValueError(f"lmax must lie in [0, {LMAX}]")
    return _zonal_table(dim, range(lmax + 1), num_xi, resolution, seed)


# ---------------------------------------------------------------------------
# n = 2: Fourier fields from zonal harmonics, and the exact two-point transform


def _fourier_coeffs(cos_coeffs, sin_coeffs):
    # cosine and sine coefficients zero-padded to a common length, and
    # their frequencies 1..kmax
    a = np.asarray(cos_coeffs, dtype=float)
    b = np.asarray(sin_coeffs, dtype=float)
    kmax = max(len(a), len(b))
    aa = np.zeros(kmax)
    bb = np.zeros(kmax)
    aa[:len(a)] = a
    bb[:len(b)] = b
    return aa, bb, np.arange(1, kmax + 1)


def fourier_field(a0, cos_coeffs=(), sin_coeffs=()):
    """Band-limited field on the circle from Fourier coefficients.

    f(theta) = a0 + sum_k cos_coeffs[k-1] cos(k theta)
                  + sum_k sin_coeffs[k-1] sin(k theta)
    as zonal harmonics: cos(k theta) = T_k(<u, e_0>) and sin(k theta) =
    T_k(<u, e_{pi/2k}>), e_phi = (cos phi, sin phi), so even (odd)
    frequencies alone give a bitwise even (odd) field.
    """
    aa, bb, ks = _fourier_coeffs(cos_coeffs, sin_coeffs)
    a0 = float(a0)
    terms = [(a0, zonal_field(2, 0, (1.0, 0.0)), None)]
    for k, a, b in zip(ks, aa, bb):
        phi = math.pi / (2 * k)
        terms += [(a, zonal_field(2, k, (1.0, 0.0)), None),
                  (b, zonal_field(2, k, (math.cos(phi), math.sin(phi))), None)]
    evaluate, gradient = _linear(terms)
    sup = abs(a0) + float(np.sum(np.abs(aa)) + np.sum(np.abs(bb)))
    lip = float(ks @ np.abs(aa) + ks @ np.abs(bb))
    return ScalarField(dim=2, evaluate=evaluate, gradient=gradient,
                       lipschitz_bound=lip, sup_bound=sup,
                       label=f"fourier(kmax={len(ks)})")


def fourier_check_n2(a0, cos_coeffs, sin_coeffs, theta0):
    """Closed form of the n=2 transform: f'(theta0 - pi/2) - f'(theta0 + pi/2).

    Independent of the quadrature path: differentiates the Fourier
    series coefficient-wise and evaluates at the two equator angles.
    """
    aa, bb, ks = _fourier_coeffs(cos_coeffs, sin_coeffs)

    def deriv(theta):
        return float(-np.sin(ks * theta) @ (ks * aa) + np.cos(ks * theta) @ (ks * bb))

    del a0  # constant part never contributes
    return deriv(theta0 - math.pi / 2) - deriv(theta0 + math.pi / 2)
