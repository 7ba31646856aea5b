"""
Section curves and the slope identity at z = 0
==============================================

A star body in R^3 is cut two ways at each height z: along the cone
whose rays make angle arccos(z) with a fixed pole, and along the flat
hyperplane <x, xi> = z.  The two section functions coincide at z = 0,
and the slope of each at 0 is an integral over the equator of the
pole.  This script samples both curves for a shifted ball and checks
the slopes against the equatorial transform.
"""

import os

import numpy as np

from starsym import (
    body_shifted_ball,
    derivative_at_zero,
    equator_rule,
    make_frame,
    section_curve,
)
from starsym.cli import svg_curves

# a unit ball pushed off-center: still star-shaped about the origin,
# no longer centrally symmetric
body = body_shifted_ball(3, 1.0, (0.25, 0.0, 0.1))
pole = np.array([1.0, 0.0, 0.0])
frame = make_frame(pole)
rule = equator_rule(3, 256)

zs = np.linspace(-0.6, 0.6, 13)
conical = section_curve("conical", body, frame, zs, rule)
flat = section_curve("hyperplane", body, frame, zs, rule)

print(f"body: {body.label}, pole xi = {pole}")
print(f"{'z':>6} {'conical':>12} {'hyperplane':>12}")
for z, c, h in zip(zs, conical.values, flat.values):
    print(f"{z:6.2f} {c:12.8f} {h:12.8f}")

# at z = 0 the cone degenerates to the same central cut as the plane
mid = len(zs) // 2
print(f"\nat z = 0 both cuts coincide: "
      f"|difference| = {abs(conical.values[mid] - flat.values[mid]):.2e}")

# each curve's slope at 0 equals the transform of its matching field:
# the section density for the cone, the flat-cut slope density for the
# plane; the shift makes both visibly nonzero along this pole
for kind in ("conical", "hyperplane"):
    d = derivative_at_zero(kind, body, frame, rule)
    print(f"{kind:>10}: finite differences {d.fd_value:+.10f}, "
          f"transform {d.transform_value:+.10f}, "
          f"residual {d.agreement_residual:.2e}")

out = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                   "section_curves.svg")
with open(out, "w", encoding="utf-8") as fh:
    fh.write(svg_curves([("conical", zs, conical.values),
                         ("hyperplane", zs, flat.values)],
                        "sections of a shifted ball"))
print(f"\nwrote {out}")
