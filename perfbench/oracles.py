"""Closed-form answers for the benchmark's checks.

Nothing here imports starsym: every value is derived from the geometry
of balls, shifted balls and ellipsoids, from Funk-Hecke multipliers, or
from a one-dimensional integral evaluated with scipy.integrate.quad.

Conventions match starsym's: the section density of a star body with
radial function rho is f = rho^(n-1) / (n-1), the equatorial transform
A(xi) integrates d/dpsi f over the equator of xi at psi = 0, and
harmonic multipliers act on odd real spherical harmonics of S^2.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import quad
from scipy.special import lpmv


def sphere_area(m):
    """Surface measure |S^m| (|S^0| = 2 points)."""
    return 2.0 * math.pi ** ((m + 1) / 2.0) / math.gamma((m + 1) / 2.0)


def ball_volume(m):
    """Volume of the unit ball in R^m."""
    return math.pi ** (m / 2.0) / math.gamma(m / 2.0 + 1.0)


# ---------------------------------------------------------------------------
# equatorial transform A(xi)


def shifted_ball_transform(radius, center, xi):
    """A(xi) for the section density of the ball |x - c| <= r.

    With s = <c, xi>, b = |c - s xi| and q(t) = sqrt(r^2 - |c|^2 + b^2 t^2),
    A(xi) = s |S^(n-3)| int_0^pi (b cos(th) + q)^(n-1) / q sin^(n-3)(th) dth;
    for n = 2 the equator is two points and the integral is the sum at
    cos(th) = +-1.
    """
    c = np.asarray(center, dtype=float)
    xi = np.asarray(xi, dtype=float)
    n = c.shape[0]
    s = float(c @ xi)
    b = float(np.linalg.norm(c - s * xi))
    gap = radius * radius - float(c @ c)

    def integrand(t):
        q = math.sqrt(gap + b * b * t * t)
        return (b * t + q) ** (n - 1) / q

    if n == 2:
        return s * (integrand(1.0) + integrand(-1.0))
    value, _ = quad(lambda th: integrand(math.cos(th)) * math.sin(th) ** (n - 3),
                    0.0, math.pi, epsabs=0.0, epsrel=1e-13, limit=200)
    return s * sphere_area(n - 3) * value


def legendre_slope_at_zero(degree):
    """P_l'(0): zero for even l, l P_(l-1)(0) for odd l."""
    l = int(degree)
    if l % 2 == 0:
        return 0.0
    k = (l - 1) // 2
    return l * (-1) ** k * math.comb(2 * k, k) / 4.0 ** k


def multiplier_s2(degree):
    """Funk-Hecke multiplier of A on degree-l harmonics of S^2: 2 pi P_l'(0)."""
    return 2.0 * math.pi * legendre_slope_at_zero(degree)


def multiplier_circle(k):
    """Multiplier of A on cos(k theta) and sin(k theta) for n = 2."""
    return 2.0 * k * math.sin(k * math.pi / 2.0)


def real_harmonic_sup(degree):
    """Upper bound for |Y_lm| on S^2 (addition theorem, times sqrt 2)."""
    return math.sqrt(2.0 * (2 * degree + 1) / (4.0 * math.pi))


def real_harmonic(degree, order, u):
    """Real spherical harmonic Y_lm at unit vectors u, in starsym's convention.

    Orthonormal, without the Condon-Shortley phase; positive orders are
    cosine-type in azimuth and negative orders sine-type.
    """
    u = np.asarray(u, dtype=float)
    l, m = int(degree), int(order)
    am = abs(m)
    norm = math.sqrt((2 * l + 1) / (4.0 * math.pi)
                     * math.factorial(l - am) / math.factorial(l + am))
    legendre = (-1) ** am * lpmv(am, l, np.clip(u[..., 2], -1.0, 1.0))
    if m == 0:
        return norm * legendre
    phi = np.arctan2(u[..., 1], u[..., 0])
    trig = np.cos(am * phi) if m > 0 else np.sin(am * phi)
    return math.sqrt(2.0) * norm * legendre * trig


# ---------------------------------------------------------------------------
# bodies described by their closed-form parameters


class Body:
    """Closed-form description of a library body, scaled by `scale`.

    kind is 'ball' (radius), 'shifted_ball' (radius, center),
    'ellipsoid' (semiaxes) or 'harmonic_ball' (epsilon, degree, order;
    rho = scale * (1 + epsilon * Y_lm), n = 3 only).
    """

    def __init__(self, kind, dim, **params):
        self.kind = kind
        self.dim = int(dim)
        self.params = params

    @property
    def even(self):
        if self.kind == "harmonic_ball":
            return self.params["degree"] % 2 == 0
        return self.kind != "shifted_ball"

    def radius_max(self):
        p = self.params
        if self.kind == "ball":
            return p["radius"]
        if self.kind == "shifted_ball":
            return p["radius"] + float(np.linalg.norm(p["center"]))
        if self.kind == "ellipsoid":
            return float(np.max(p["semiaxes"]))
        return p["scale"] * (1.0 + abs(p["epsilon"]) * real_harmonic_sup(p["degree"]))

    def density_scale(self):
        """|S^(n-2)| sup f: the natural size of A for this body."""
        n = self.dim
        return sphere_area(n - 2) * self.radius_max() ** (n - 1) / (n - 1)

    def section_scale(self):
        """Volume of the largest possible central section."""
        return ball_volume(self.dim - 1) * self.radius_max() ** (self.dim - 1)

    def slope_scale(self):
        """|S^(n-2)| R^(n-2): the natural size of a hyperplane-section slope."""
        return sphere_area(self.dim - 2) * self.radius_max() ** (self.dim - 2)

    def transform(self, xi):
        """A(xi) for the body's section density."""
        p = self.params
        if self.even:
            return 0.0
        if self.kind == "shifted_ball":
            return shifted_ball_transform(p["radius"], p["center"], xi)
        # f = s^2 (1 + eps Y)^2 / 2; only the odd term eps s^2 Y survives
        y = real_harmonic(p["degree"], p["order"], xi)
        return p["scale"] ** 2 * p["epsilon"] * multiplier_s2(p["degree"]) * float(y)

    def support(self, xi):
        """Interval (lo, hi) of heights z at which the flat cut is nonempty."""
        p = self.params
        xi = np.asarray(xi, dtype=float)
        if self.kind == "ball":
            return -p["radius"], p["radius"]
        if self.kind == "shifted_ball":
            s = float(np.asarray(p["center"]) @ xi)
            return s - p["radius"], s + p["radius"]
        if self.kind == "ellipsoid":
            h = float(np.linalg.norm(np.asarray(p["semiaxes"]) * xi))
            return -h, h
        raise ValueError(f"no closed-form support for {self.kind}")

    def equator_min_radius(self, xi):
        """Smallest radial value over the equator of xi."""
        p = self.params
        xi = np.asarray(xi, dtype=float)
        if self.kind == "ball":
            return p["radius"]
        if self.kind == "shifted_ball":
            c = np.asarray(p["center"], dtype=float)
            b = float(np.linalg.norm(c - (c @ xi) * xi))
            return -b + math.sqrt(p["radius"] ** 2 - float(c @ c) + b * b)
        if self.kind == "ellipsoid":
            # rho(u) = (u^T D u)^(-1/2); minimise over unit u orthogonal to xi
            q, _ = np.linalg.qr(np.column_stack([xi, np.eye(self.dim)]))
            perp = q[:, 1:self.dim]
            d = np.diag(1.0 / np.asarray(p["semiaxes"], dtype=float) ** 2)
            return 1.0 / math.sqrt(float(np.linalg.eigvalsh(perp.T @ d @ perp)[-1]))
        raise ValueError(f"no closed-form equator radius for {self.kind}")

    def hyperplane_section(self, xi, z):
        """(n-1)-volume of { x in body : <x, xi> = z }."""
        p = self.params
        m = self.dim - 1
        xi = np.asarray(xi, dtype=float)
        if self.kind == "ball":
            return ball_volume(m) * max(p["radius"] ** 2 - z * z, 0.0) ** (m / 2.0)
        if self.kind == "shifted_ball":
            s = float(np.asarray(p["center"]) @ xi)
            return ball_volume(m) * max(p["radius"] ** 2 - (z - s) ** 2, 0.0) ** (m / 2.0)
        if self.kind == "ellipsoid":
            a = np.asarray(p["semiaxes"], dtype=float)
            h = float(np.linalg.norm(a * xi))
            return (ball_volume(m) * float(np.prod(a)) / h
                    * max(1.0 - z * z / (h * h), 0.0) ** (m / 2.0))
        raise ValueError(f"no closed-form hyperplane section for {self.kind}")

    def conical_section(self, xi, z):
        """Conical section value at z, or None where no closed form is used.

        Centred balls have one at every height; every body has one at
        z = 0, where the cone is the central hyperplane.
        """
        n = self.dim
        if self.kind == "ball":
            return (sphere_area(n - 2) * self.params["radius"] ** (n - 1) / (n - 1)
                    * (1.0 - z * z) ** ((n - 2) / 2.0))
        if z == 0.0:
            return self.hyperplane_section(xi, 0.0)
        return None

    def hyperplane_slope(self, xi):
        """d/dz of the hyperplane section at z = 0."""
        if self.even:
            return 0.0
        p = self.params
        n = self.dim
        s = float(np.asarray(p["center"]) @ np.asarray(xi, dtype=float))
        return sphere_area(n - 2) * s * (p["radius"] ** 2 - s * s) ** ((n - 3) / 2.0)

    def conical_slope(self, xi):
        """d/dz of the conical section at z = 0, which is A(xi)."""
        return self.transform(xi)
