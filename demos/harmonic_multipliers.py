"""
The transform acts diagonally on spherical harmonics
====================================================

On S^{n-1} the equatorial transform multiplies every spherical harmonic
of degree l by one constant.  By the Funk-Hecke formula it is
lambda_l(n) = |S^{n-2}| P_{l,n}'(0), with P_{l,n} the Legendre
polynomial of dimension n: zero for even l, 2 k sin(k pi / 2) on the
circle, 2 pi P_l'(0) on S^2, and +-4 pi for every odd l on S^3.  This
script fits the multiplier of each degree numerically from one zonal
harmonic and lines it up against the closed form, for n = 2..6.
"""

from starsym import funk_hecke_multiplier, multiplier_table

# even degrees sit in the kernel; the odd multipliers never vanish, so
# every odd function on the sphere is recoverable from its transform
for n in range(2, 7):
    table = multiplier_table(7, dim=n, num_xi=24, seed=3)
    print(f"n = {n}: fitted lambda_l vs |S^{n - 2}| P_l'(0)  (rule resolution {table.resolution})")
    print(f"{'l':>3} {'fitted':>16} {'closed form':>16} {'fit residual':>14}")
    for l, lam, res in zip(table.degrees, table.multipliers, table.residuals):
        print(f"{l:3d} {lam:16.10f} {funk_hecke_multiplier(n, l):16.10f} {res:14.2e}")
    print()
