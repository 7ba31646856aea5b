"""Derived fields keep their values, gradients, bounds and evaluation costs.

Each derived field is compared with its defining formula written out on
the parent body's own callables: values and gradients are bit-identical,
except the n = 2 flat-cut slope density, whose gradient grad(rho) / rho
may round differently from (1 / rho) grad(rho).
"""

import collections
import math
from dataclasses import replace

import numpy as np
import pytest

from starsym import (
    body_ball,
    body_ellipsoid,
    body_shifted_ball,
    harmonic_field,
    hyperplane_profile_field,
    odd_part,
    probe_directions,
    random_rotation,
    real_harmonic,
    rotate_body,
    scale_body,
    strip_gradient,
    to_scalar_field,
    unit_vector,
    zonal_field,
)
from starsym.verify import _lin_comb

_DIMS = (2, 3, 4, 5, 6)
_FACTOR = 1.7


def _bodies(n):
    return [body_ball(n, 1.3),
            body_shifted_ball(n, 1.0, np.linspace(0.25, -0.15, n)),
            body_ellipsoid(n, np.linspace(1.5, 0.7, n))]


def _power(rho, grad, p):
    # f = rho^p / p with gradient rho^(p-1) grad(rho)
    return (lambda u: rho(u) ** p / p,
            lambda u: (rho(u) ** (p - 1))[..., None] * grad(u))


def _cases(n, body):
    # (name, library field, reference evaluate, reference gradient)
    rho, grad = body.evaluate, body.gradient
    rot = random_rotation(n, seed=5)
    f = to_scalar_field(body)
    axis = np.linspace(1.0, -0.5, n)
    e = unit_vector(axis)
    if n == 2:
        profile = (lambda u: np.log(rho(u)), lambda u: grad(u) / rho(u)[..., None])
    else:
        profile = _power(rho, grad, n - 2)

    def scaled(u):
        return _FACTOR * rho(u @ rot)

    def scaled_grad(u):
        return _FACTOR * (grad(u @ rot) @ rot.T)

    return [
        ("section_density", f, *_power(rho, grad, n - 1)),
        ("slope_density", hyperplane_profile_field(body), *profile),
        ("odd", odd_part(f),
         lambda u: 0.5 * (f.evaluate(u) - f.evaluate(-u)),
         lambda u: 0.5 * (f.gradient(u) + f.gradient(-u))),
        ("scaled", scale_body(body, _FACTOR),
         lambda u: _FACTOR * rho(u), lambda u: _FACTOR * grad(u)),
        ("rotated", rotate_body(body, rot),
         lambda u: rho(u @ rot), lambda u: grad(u @ rot) @ rot.T),
        ("combo", _lin_comb(0.7, f, -1.3, zonal_field(n, 1, axis)),
         lambda u: 0.7 * f.evaluate(u) + -1.3 * (u @ e),
         lambda u: 0.7 * f.gradient(u) + -1.3 * np.broadcast_to(e, u.shape)),
        ("composite", to_scalar_field(scale_body(rotate_body(body, rot), _FACTOR)),
         *_power(scaled, scaled_grad, n - 1)),
    ]


@pytest.mark.parametrize("n", _DIMS)
def test_derived_fields_equal_their_formulas(n):
    u = probe_directions(n, 300)
    for body in _bodies(n):
        for name, field, evaluate, gradient in _cases(n, body):
            where = (n, body.label, name)
            assert np.array_equal(field.evaluate(u), evaluate(u)), where
            got, want = field.gradient(u), gradient(u)
            if n == 2 and name == "slope_density":
                scale = np.max(np.abs(want))
                assert np.max(np.abs(got - want)) <= 4e-16 * scale, where
            else:
                assert np.array_equal(got, want), where


def test_harmonic_field_equals_its_formula():
    u = probe_directions(3, 300)
    coefficients = {(3, -2): 0.3, (1, 0): 0.4, (2, 2): -0.25}
    parts = [(real_harmonic(l, m), c) for (l, m), c in sorted(coefficients.items())]
    field = harmonic_field(coefficients)
    assert np.array_equal(field.evaluate(u), sum(c * y.evaluate(u) for y, c in parts))
    assert np.array_equal(field.gradient(u), sum(c * y.gradient(u) for y, c in parts))
    assert field.sup_bound == sum(abs(c) * y.sup_bound for y, c in parts)
    assert field.lipschitz_bound == sum(abs(c) * y.lipschitz_bound for y, c in parts)


@pytest.mark.parametrize("n", (2, 4))
def test_derived_bounds_and_labels(n):
    body = _bodies(n)[2]
    lip, top, low = body.lipschitz_bound, body.radius_bound, body.radius_floor
    f = to_scalar_field(body)
    assert (f.lipschitz_bound, f.sup_bound, f.label) == (
        top ** (n - 2) * lip, top ** (n - 1) / (n - 1),
        f"section_density[{body.label}]")
    g = hyperplane_profile_field(body)
    if n == 2:
        want = (lip / low, max(abs(math.log(top)), abs(math.log(low))))
    else:
        want = (top ** (n - 3) * lip, top ** (n - 2) / (n - 2))
    assert (g.lipschitz_bound, g.sup_bound) == want
    assert g.label == f"section_slope_density[{body.label}]"
    part = odd_part(f)
    assert (part.lipschitz_bound, part.sup_bound, part.label) == (
        f.lipschitz_bound, f.sup_bound, f"odd[{f.label}]")
    big = scale_body(body, _FACTOR)
    assert (big.lipschitz_bound, big.radius_bound, big.radius_floor, big.label) == (
        _FACTOR * lip, _FACTOR * top, _FACTOR * low,
        f"scaled({_FACTOR:g})[{body.label}]")
    turned = rotate_body(body, random_rotation(n, seed=5))
    assert (turned.lipschitz_bound, turned.radius_bound, turned.radius_floor,
            turned.label) == (lip, top, low, f"rotated[{body.label}]")


@pytest.mark.parametrize("n", (2, 3, 5))
def test_derived_fields_without_a_gradient(n):
    body = strip_gradient(_bodies(n)[1])
    f = to_scalar_field(body)
    rot = random_rotation(n, seed=5)
    derived = [f, hyperplane_profile_field(body), odd_part(f),
               scale_body(body, _FACTOR), rotate_body(body, rot),
               _lin_comb(0.7, f, -1.3, zonal_field(n, 1, np.ones(n)))]
    assert all(d.gradient is None for d in derived)


def _counted(obj):
    # a copy of a body or field whose evaluate/gradient calls are counted
    calls = collections.Counter()
    ev, gr = obj.evaluate, obj.gradient

    def evaluate(u):
        calls["evaluate"] += 1
        return ev(u)

    def gradient(u):
        calls["gradient"] += 1
        return gr(u)

    copy = replace(obj, evaluate=evaluate, gradient=gradient)
    calls.clear()
    return copy, calls


@pytest.mark.parametrize("n", (2, 3, 6))
def test_gradient_calls_cost_of_derived_fields(n):
    u = probe_directions(n, 50)
    body, calls = _counted(_bodies(n)[1])
    to_scalar_field(body).gradient(u)
    assert calls == {"evaluate": 1, "gradient": 1}
    for derived in (scale_body(body, _FACTOR), rotate_body(body, random_rotation(n, seed=5))):
        calls.clear()
        derived.gradient(u)
        assert calls["evaluate"] == 0
    field, calls = _counted(to_scalar_field(_bodies(n)[2]))
    part = odd_part(field)
    calls.clear()
    part.gradient(u)
    assert calls["evaluate"] == 0
