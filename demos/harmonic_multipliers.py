"""
The transform acts diagonally on spherical harmonics
====================================================

On S^2 the equatorial transform multiplies each spherical harmonic
Y_{l,m} by a constant lambda_l depending only on the degree: zero for
even l, and 2 pi P_l'(0) for odd l, which alternates in sign and grows
in magnitude.  On the circle the same structure reads
lambda_k = 2 k sin(k pi / 2).  This script fits the multipliers
numerically and lines them up against the closed forms.
"""

import math

import numpy as np

from starsym import equator_rule, fourier_field, multiplier_table, transform_sweep


def double_factorial(k):
    out = 1
    while k > 1:
        out *= k
        k -= 2
    return out


def legendre_slope_at_zero(l):
    if l % 2 == 0:
        return 0.0
    k = (l - 1) // 2
    return (-1) ** k * double_factorial(2 * k + 1) / double_factorial(2 * k)


table = multiplier_table(7, num_xi=24, seed=3)
print("n = 3: fitted lambda_l vs 2 pi P_l'(0)")
print(f"{'l':>3} {'fitted':>16} {'closed form':>16} {'fit residual':>14}")
for l, lam, res in zip(table.degrees, table.multipliers, table.residuals):
    want = 2.0 * math.pi * legendre_slope_at_zero(l)
    print(f"{l:3d} {lam:16.10f} {want:16.10f} {res:14.2e}")

# even degrees sit in the kernel; the odd multipliers never vanish, so
# every odd function on the sphere is recoverable from its transform
print("\nn = 2: lambda_k vs 2 k sin(k pi / 2)")
rule = equator_rule(2)
rng = np.random.default_rng(5)
print(f"{'k':>3} {'fitted':>16} {'closed form':>16}")
for k in range(1, 8):
    coeffs = tuple(1.0 if j == k - 1 else 0.0 for j in range(k))
    f = fourier_field(0.0, coeffs, ())
    thetas = rng.uniform(0.0, 2.0 * math.pi, size=12)
    basis = np.cos(k * thetas)
    ts = transform_sweep(f, [(math.cos(t), math.sin(t)) for t in thetas], rule)
    lam = float(ts @ basis) / float(basis @ basis)
    print(f"{k:3d} {lam:16.10f} {2.0 * k * math.sin(k * math.pi / 2.0):16.10f}")
