"""Real spherical harmonics, transform multipliers, and kernel probes.

The n=3 harmonics are built as explicit homogeneous polynomials in
(x, y, z): degree-l coefficient tables are assembled from Legendre
derivative coefficients, so values and Euclidean gradients are exact to
roundoff and free of pole singularities.  Normalization is L2:
integral of Y^2 over S^2 equals 1, and Y(l=1, m=0) = sqrt(3/(4 pi)) x3.

The equatorial derivative transform acts diagonally on this basis with
a degree-dependent multiplier that vanishes for even degrees.  The
multipliers reported here are estimated numerically by least squares
against the transform, not hard-coded.  Harmonics evaluated together
on one point set (the lifted equator nodes of a pole, the poles, a
projection rule, a probe grid) read one monomial power table built once
for that set, and get bit for bit the values of their own `evaluate`
and `gradient`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .sphere_geom import (
    fibonacci_sphere,
    make_frame,
    probe_directions,
    random_directions,
    sphere_rule,
    equator_rule,
)
from .star_body import ScalarField, _linear, equator_derivative
from .slice_transforms import transform_sweep

LMAX = 10

# Covering radius of the 8192-point Fibonacci probe grid; verified by test.
_PROBE_N = 8192
_PROBE_COVER = 0.045


@lru_cache(maxsize=None)
def _legendre_coeffs(degree):
    # ascending monomial coefficients of the Legendre polynomial; cached
    # for every order of the degree, so read-only
    basis = np.polynomial.legendre.Legendre.basis(degree)
    coef = basis.convert(kind=np.polynomial.Polynomial).coef
    coef.setflags(write=False)
    return coef


@lru_cache(maxsize=None)
def _probe_grid():
    # the Fibonacci grid behind every harmonic's sup bound, shared and read-only
    grid = fibonacci_sphere(_PROBE_N)
    grid.setflags(write=False)
    return grid


@lru_cache(maxsize=None)
def _solid_harmonic_terms(degree, order):
    """Monomial tables (exps, coefs) of the real solid harmonic r^l Y_{l,m}.

    Returns the value terms followed by the terms of d/dx, d/dy and d/dz.
    A derivative table keeps every value term, with coefficient zero
    where the axis exponent is zero, so its dot products run over the
    same terms as the value's.  Cached per (l, m), so read-only.
    """
    l, m = int(degree), int(order)
    am = abs(m)
    if not (0 <= am <= l <= LMAX):
        raise ValueError(f"need 0 <= |order| <= degree <= {LMAX}")
    # associated part: m-th derivative of the Legendre polynomial
    der = np.polynomial.polynomial.polyder(_legendre_coeffs(l), am) if am else _legendre_coeffs(l)
    # azimuthal part: Re or Im of (x + i y)^|m|
    trig = {}  # (a, b) -> coefficient of x^a y^b
    if m == 0:
        trig[(0, 0)] = 1.0
    elif m > 0:
        for j in range(0, am + 1, 2):
            trig[(am - j, j)] = math.comb(am, j) * (-1.0) ** (j // 2)
    else:
        for j in range(1, am + 1, 2):
            trig[(am - j, j)] = math.comb(am, j) * (-1.0) ** ((j - 1) // 2)
    norm = math.sqrt((2 * l + 1) / (4.0 * math.pi)
                     * math.factorial(l - am) / math.factorial(l + am))
    if m != 0:
        norm *= math.sqrt(2.0)
    terms = {}
    for k, ck in enumerate(der):
        if ck == 0.0:
            continue
        q2 = l - am - k  # power budget for r^2 factors; parity makes it even
        if q2 < 0 or q2 % 2:
            continue
        q = q2 // 2
        # (x^2 + y^2 + z^2)^q multinomial expansion
        for i in range(q + 1):
            for j in range(q - i + 1):
                kk = q - i - j
                mult = math.factorial(q) // (
                    math.factorial(i) * math.factorial(j) * math.factorial(kk))
                for (a, b), ct in trig.items():
                    key = (a + 2 * i, b + 2 * j, k + 2 * kk)
                    terms[key] = terms.get(key, 0.0) + norm * ck * ct * mult
    keys = sorted(k for k, v in terms.items() if v != 0.0)
    exps = np.array(keys, dtype=np.int64).reshape(-1, 3)
    coefs = np.array([terms[k] for k in keys])
    tables = [(exps, coefs)]
    for axis in range(3):
        e = exps.copy()
        c = coefs * e[:, axis]
        e[:, axis] = np.maximum(e[:, axis] - 1, 0)
        tables.append((e, c))
    for table in tables:
        for a in table:
            a.setflags(write=False)
    return tuple(tables)


def _power_tables(flat, max_deg):
    # tab[axis, point, p] = flat[point, axis] ** p for p = 0..max_deg, by
    # repeated products; every harmonic of degree up to max_deg reads it
    tab = np.empty((3, flat.shape[0], max_deg + 1))
    tab[:, :, 0] = 1.0
    for p in range(1, max_deg + 1):
        tab[:, :, p] = tab[:, :, p - 1] * flat.T
    return tab


def _poly_value(terms, tab):
    # one monomial table (exps, coefs) at the points of a power table
    exps, coefs = terms
    monos = tab[0][:, exps[:, 0]] * tab[1][:, exps[:, 1]] * tab[2][:, exps[:, 2]]
    return monos @ coefs


def _poly_gradient(terms, tab):
    # the (points, 3) gradient from the three derivative tables
    out = np.empty((tab.shape[1], 3))
    for axis in range(3):
        out[:, axis] = _poly_value(terms[axis], tab)
    return out


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
    ScalarField with exact polynomial gradient.  The declared sup bound
    is the probe-grid maximum inflated by the covering correction
    1 / (1 - l * r_cov), using the great-circle derivative bound
    |dY/ds| <= l sup|Y|; the Lipschitz bound is l times the sup bound.
    """
    value, *derivatives = _solid_harmonic_terms(degree, order)
    l = int(degree)
    top = int(value[0].max())

    def evaluate(u):
        u = np.asarray(u, dtype=float)
        return _poly_value(value, _power_tables(u.reshape(-1, 3), top)).reshape(u.shape[:-1])

    def gradient(u):
        u = np.asarray(u, dtype=float)
        return _poly_gradient(derivatives, _power_tables(u.reshape(-1, 3), top)).reshape(u.shape)

    probe_max = float(np.max(np.abs(evaluate(_probe_grid()))))
    if l == 0:
        sup = probe_max
    else:
        sup = probe_max / (1.0 - l * _PROBE_COVER)
    return ScalarField(dim=3, evaluate=evaluate, gradient=gradient,
                       lipschitz_bound=l * sup, sup_bound=sup,
                       label=f"Y({l},{int(order)})")


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


@dataclass(frozen=True, eq=False)
class MultiplierTable:
    """Estimated diagonal action of the equatorial transform on harmonics.

    `multipliers[i]` is the least-squares coefficient lambda for
    `degrees[i]` fitted jointly over all orders; `residuals[i]` is the
    worst absolute deviation |T Y - lambda Y| observed in the fit.
    `orders` holds the per-(l, m) fits as (l, m, lambda, residual).
    For dim 2 the degrees are frequencies k, with order k for cos(k theta)
    and -k for sin(k theta).
    """

    dim: int
    degrees: tuple
    multipliers: tuple
    residuals: tuple
    orders: tuple
    num_xi: int
    resolution: int
    seed: int


def _fit(t, v):
    # least-squares slope of T f against f, and the worst deviation from it
    lam = float(t @ v) / float(v @ v)
    return lam, float(np.max(np.abs(t - lam * v)))


def estimate_multiplier(degree, order, num_xi=50, resolution=None, seed=11):
    """Least-squares multiplier of the transform on one harmonic.

    Returns (lambda, residual): the slope of T Y against Y over random
    poles, and the worst absolute deviation from that diagonal action.
    """
    y = real_harmonic(degree, order)
    xis = random_directions(3, num_xi, seed=seed)
    t = transform_sweep(y, xis, equator_rule(3, resolution))
    vals = y.evaluate(xis)
    if float(vals @ vals) < 1e-12:
        raise ValueError("degenerate pole sample: harmonic vanishes on all poles")
    return _fit(t, vals)


def _table(dim, sweeps, num_xi, resolution, seed):
    # sweeps: (degree, order, T f over the poles, f over the poles), grouped
    # by degree; fitted per order and jointly per degree
    orders, by_degree = [], {}
    for l, m, t, v in sweeps:
        orders.append((l, m, *_fit(t, v)))
        by_degree.setdefault(l, []).append((t, v))
    fits = [_fit(np.concatenate([t for t, _ in tv]), np.concatenate([v for _, v in tv]))
            for tv in by_degree.values()]
    return MultiplierTable(dim=dim, degrees=tuple(by_degree),
                           multipliers=tuple(lam for lam, _ in fits),
                           residuals=tuple(res for _, res in fits), orders=tuple(orders),
                           num_xi=int(num_xi), resolution=resolution,
                           seed=int(seed))


def multiplier_table(lmax, num_xi=50, resolution=None, seed=11):
    """Estimate multipliers for all degrees 0..lmax and all orders."""
    lmax = int(lmax)
    if not (0 <= lmax <= LMAX):
        raise ValueError(f"lmax must lie in [0, {LMAX}]")
    xis = random_directions(3, num_xi, seed=seed)
    rule = equator_rule(3, resolution)
    harmonics = [(l, m, _solid_harmonic_terms(l, m))
                 for l in range(lmax + 1) for m in range(-l, l + 1)]
    # pole by pole: one frame and one power table of the lifted nodes for
    # all (lmax + 1)^2 transforms, each summed as equator_transform sums it
    transforms = [np.empty(len(xis)) for _ in harmonics]
    for p, xi in enumerate(xis):
        frame = make_frame(xi)
        lifted = rule.nodes @ frame.basis
        tab = _power_tables(lifted, lmax)
        for t, (_, _, terms) in zip(transforms, harmonics):
            g = _poly_gradient(terms[1:], tab)
            d = equator_derivative(None, lambda _: g, frame.pole, lifted)
            t[p] = float(rule.weights @ d)
    at_poles = _power_tables(xis, lmax)
    sweeps = [(l, m, t, _poly_value(terms[0], at_poles))
              for t, (l, m, terms) in zip(transforms, harmonics)]
    return _table(3, sweeps, num_xi, rule.resolution, seed)


# ---------------------------------------------------------------------------
# n = 2: Fourier fields and the exact two-point transform


def fourier_field(a0, cos_coeffs=(), sin_coeffs=()):
    """Band-limited field on the circle from Fourier coefficients.

    f(theta) = a0 + sum_k cos_coeffs[k-1] cos(k theta)
                  + sum_k sin_coeffs[k-1] sin(k theta).
    """
    a = np.asarray(cos_coeffs, dtype=float)
    b = np.asarray(sin_coeffs, dtype=float)
    kmax = max(len(a), len(b))
    aa = np.zeros(kmax)
    bb = np.zeros(kmax)
    aa[:len(a)] = a
    bb[:len(b)] = b
    ks = np.arange(1, kmax + 1)
    a0 = float(a0)

    def evaluate(u):
        u = np.asarray(u, dtype=float)
        theta = np.arctan2(u[..., 1], u[..., 0])
        kt = theta[..., None] * ks
        return a0 + np.cos(kt) @ aa + np.sin(kt) @ bb

    def angular_derivative(theta):
        kt = np.asarray(theta, dtype=float)[..., None] * ks
        return -np.sin(kt) @ (ks * aa) + np.cos(kt) @ (ks * bb)

    def gradient(u):
        u = np.asarray(u, dtype=float)
        theta = np.arctan2(u[..., 1], u[..., 0])
        fp = angular_derivative(theta)
        perp = np.stack([-u[..., 1], u[..., 0]], axis=-1)
        return fp[..., None] * perp

    sup = abs(a0) + float(np.sum(np.abs(aa)) + np.sum(np.abs(bb)))
    lip = float(ks @ np.abs(aa) + ks @ np.abs(bb))
    return ScalarField(dim=2, evaluate=evaluate, gradient=gradient,
                       lipschitz_bound=lip, sup_bound=sup,
                       label=f"fourier(kmax={kmax})")


def fourier_check_n2(a0, cos_coeffs, sin_coeffs, theta0):
    """Closed form of the n=2 transform: f'(theta0 - pi/2) - f'(theta0 + pi/2).

    Independent of the quadrature path: differentiates the Fourier
    series coefficient-wise and evaluates at the two equator angles.
    """
    a = np.asarray(cos_coeffs, dtype=float)
    b = np.asarray(sin_coeffs, dtype=float)
    kmax = max(len(a), len(b))
    aa = np.zeros(kmax)
    bb = np.zeros(kmax)
    aa[:len(a)] = a
    bb[:len(b)] = b
    ks = np.arange(1, kmax + 1)

    def deriv(theta):
        return float(-np.sin(ks * theta) @ (ks * aa) + np.cos(ks * theta) @ (ks * bb))

    del a0  # constant part never contributes
    return deriv(theta0 - math.pi / 2) - deriv(theta0 + math.pi / 2)


def fourier_multiplier_table(kmax, num_xi=50, resolution=None, seed=11):
    """Estimate the n=2 multipliers of cos(k theta) and sin(k theta), k = 1..kmax.

    Poles sit at `num_xi` seeded uniform angles.  The exact multiplier of
    both is 2 k sin(k pi / 2) (see `fourier_check_n2`).
    """
    kmax = int(kmax)
    if kmax < 1:
        raise ValueError("kmax must be at least 1")
    thetas = np.random.default_rng(seed).uniform(0.0, 2.0 * math.pi, size=num_xi)
    frames = [make_frame((math.cos(t), math.sin(t))) for t in thetas]
    rule = equator_rule(2, resolution)
    sweeps = []
    for k in range(1, kmax + 1):
        coeffs = tuple(1.0 if j == k - 1 else 0.0 for j in range(k))
        for order, f, basis in ((k, fourier_field(0.0, coeffs, ()), np.cos(k * thetas)),
                                (-k, fourier_field(0.0, (), coeffs), np.sin(k * thetas))):
            sweeps.append((k, order, transform_sweep(f, frames, rule), basis))
    return _table(2, sweeps, num_xi, rule.resolution, seed)


# ---------------------------------------------------------------------------
# kernel structure probe


def injectivity_probe(coefficients, num_xi=50, resolution=None,
                      projection_resolution=64, seed=11):
    """Round-trip reconstruction error for an odd band-limited field.

    Expands the transform of g over poles into harmonics, divides by the
    estimated degree multipliers, reconstructs, and returns the sup-norm
    error against the original field on a probe grid.  Raises if any
    needed multiplier is within 1e-6 of zero (a near-kernel degree would
    make the inversion meaningless).
    """
    coeffs = {(int(l), int(m)): float(c) for (l, m), c in dict(coefficients).items()}
    if not coeffs:
        raise ValueError("need at least one coefficient")
    lmax = max(l for l, _ in coeffs)
    for (l, m) in coeffs:
        if l % 2 == 0:
            raise ValueError("injectivity probe expects odd-degree content only")
        if not (abs(m) <= l <= LMAX):
            raise ValueError("invalid (degree, order) pair")
    g = harmonic_field(coeffs)
    table = multiplier_table(lmax, num_xi=num_xi, resolution=resolution, seed=seed)
    lam = dict(zip(table.degrees, table.multipliers))
    for l in range(1, lmax + 1, 2):
        if abs(lam.get(l, 0.0)) < 1e-6:
            raise ValueError(f"near-kernel degree {l}: estimated multiplier below 1e-6")
    proj = sphere_rule(3, projection_resolution)
    t_vals = transform_sweep(g, proj.nodes, equator_rule(3, resolution))
    at_nodes = _power_tables(proj.nodes, lmax)
    recovered = {}
    for l in range(1, lmax + 1, 2):
        for m in range(-l, l + 1):
            y = _poly_value(_solid_harmonic_terms(l, m)[0], at_nodes)
            coef = float(proj.weights @ (t_vals * y))
            recovered[(l, m)] = coef / lam[l]
    grid = probe_directions(3, 4000)
    at_grid = _power_tables(grid, lmax)
    rec_vals = np.zeros(grid.shape[0])
    for (l, m), c in recovered.items():
        if c != 0.0:
            rec_vals += c * _poly_value(_solid_harmonic_terms(l, m)[0], at_grid)
    return float(np.max(np.abs(g.evaluate(grid) - rec_vals)))
