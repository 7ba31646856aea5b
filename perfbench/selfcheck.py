"""Check the benchmark's oracles against starsym on a few fixed cases.

Each case compares a closed form from oracles.py with starsym at its
default settings; a disagreement means either the oracle or the library
is wrong, so the run reports correct = false.
"""

from __future__ import annotations

import math

import numpy as np

import oracles
from gen import FRAME_SEED
from workloads import TOLERANCE, build_body


def _unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


def cases(S):
    """Yield (name, normalised error) for every fixed case."""
    for n in (2, 3, 4, 5, 6):
        body = oracles.Body("shifted_ball", n, radius=1.3,
                            center=0.5 * _unit(np.arange(1.0, n + 1)))
        xi = _unit(np.cos(np.arange(n) + 0.4))
        frame = S.make_frame(xi, seed=FRAME_SEED)
        f = S.to_scalar_field(build_body(S, body))
        got = S.equator_transform(f, frame, S.equator_rule(n))
        yield (f"shifted-ball A, n={n}",
               abs(got - body.transform(xi)) / body.density_scale())

    pts = S.fibonacci_sphere(64)
    xi = _unit([0.3, -0.5, 0.8])
    frame = S.make_frame(xi, seed=FRAME_SEED)
    rule = S.equator_rule(3)
    for l in (1, 2, 3, 4, 5):
        for m in (-l, 0, l):
            y = S.real_harmonic(l, m)
            err = float(np.max(np.abs(y.evaluate(pts) - oracles.real_harmonic(l, m, pts))))
            yield f"Y({l},{m}) values", err
            got = S.equator_transform(y, frame, rule)
            want = oracles.multiplier_s2(l) * float(oracles.real_harmonic(l, m, xi))
            yield f"2 pi P_{l}'(0) on Y({l},{m})", abs(got - want) / (2.0 * math.pi * l)

    theta = 0.7
    frame2 = S.make_frame([math.cos(theta), math.sin(theta)], seed=FRAME_SEED)
    for k in (1, 2, 3, 4, 5):
        f = S.fourier_field(0.0, tuple(1.0 if j == k - 1 else 0.0 for j in range(k)))
        got = S.equator_transform(f, frame2, S.equator_rule(2))
        want = oracles.multiplier_circle(k) * math.cos(k * theta)
        yield f"n=2 multiplier k={k}", abs(got - want) / (2.0 * k)

    sections = [
        (oracles.Body("ball", 3, radius=1.1), [0.0, 0.0, 1.0], 0.5),
        (oracles.Body("shifted_ball", 4, radius=1.0, center=[0.1, -0.2, 0.05, 0.15]),
         _unit([1.0, 2.0, -1.0, 0.5]), 0.2),
        (oracles.Body("ellipsoid", 3, semiaxes=[1.2, 1.0, 0.9]), [0.0, 0.0, 1.0], 0.3),
        (oracles.Body("ellipsoid", 5, semiaxes=[1.1, 1.0, 1.2, 0.95, 1.05]),
         _unit([1.0, 1.0, 1.0, 1.0, 1.0]), -0.4),
    ]
    for body, xi, z in sections:
        n = body.dim
        frame = S.make_frame(xi, seed=FRAME_SEED)
        rule = S.equator_rule(n)
        built = build_body(S, body)
        got = S.hyperplane_section(built, frame, z, rule)
        yield (f"{body.kind} n={n} hyperplane z={z}",
               abs(got - body.hyperplane_section(xi, z)) / body.section_scale())
        got = S.conical_section(built, frame, 0.0, rule)
        yield (f"{body.kind} n={n} conical z=0",
               abs(got - body.conical_section(xi, 0.0)) / body.section_scale())
        slope = S.derivative_at_zero("hyperplane", built, frame, rule).transform_value
        yield (f"{body.kind} n={n} hyperplane slope",
               abs(slope - body.hyperplane_slope(xi)) / body.slope_scale())

    body = oracles.Body("ball", 4, radius=0.9)
    frame = S.make_frame(_unit([1.0, 0.0, 2.0, 1.0]), seed=FRAME_SEED)
    got = S.conical_section(build_body(S, body), frame, 0.4, S.equator_rule(4))
    yield "ball n=4 conical z=0.4", abs(got - body.conical_section(None, 0.4)) / body.section_scale()


def run(S):
    """(passed, worst case name, worst error, number of cases)."""
    results = list(cases(S))
    name, worst = max(results, key=lambda r: r[1])
    return worst <= TOLERANCE, name, worst, len(results)
