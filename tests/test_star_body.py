"""Radial fields, library bodies, and derived scalar fields."""

import sys

import numpy as np
import pytest

from starsym import (
    RadialField,
    body_ball,
    body_ellipsoid,
    body_harmonic_perturbed_ball,
    body_shifted_ball,
    embed,
    equator_derivative,
    even_part,
    equator_rule,
    hyperplane_profile_field,
    linear_field,
    make_frame,
    odd_part,
    probe_directions,
    random_rotation,
    rotate_body,
    scale_body,
    strip_gradient,
    to_scalar_field,
)
from starsym.sphere_geom import _latitude_points
from starsym.star_body import FD_STEP


def _probes(n, count=400):
    return probe_directions(n, count)


def _meridian_probe(frame, eta, psi):
    # the points embed(eta, psi) and their unit meridian tangents; each
    # point lies on the equator of its tangent, so equator_derivative
    # with the tangents as poles gives d/dpsi at the point
    lifted = eta @ frame.basis
    tangents = np.cos(psi)[:, None] * frame.pole - np.sin(psi)[:, None] * lifted
    return tangents, embed(frame, eta, psi)


def test_ball_radial_values():
    ball = body_ball(3, 1.3)
    u = _probes(3)
    assert np.allclose(ball.evaluate(u), 1.3, atol=0)
    assert ball.radius_bound == 1.3
    assert ball.radius_floor == 1.3
    assert ball.lipschitz_bound == 0.0


def test_shifted_ball_boundary_is_a_sphere():
    # oracle: by construction the boundary point rho(u) u must sit at
    # distance exactly R from the center
    c = np.array([0.25, -0.1, 0.15])
    body = body_shifted_ball(3, 1.0, c)
    u = _probes(3)
    x = body.evaluate(u)[:, None] * u
    assert np.max(np.abs(np.linalg.norm(x - c, axis=1) - 1.0)) < 1e-13
    assert body.radius_bound == pytest.approx(1.0 + np.linalg.norm(c))
    assert body.radius_floor == pytest.approx(1.0 - np.linalg.norm(c))


def test_shifted_ball_rejects_center_outside():
    with pytest.raises(ValueError):
        body_shifted_ball(2, 1.0, (1.0, 0.5))
    with pytest.raises(ValueError):
        body_shifted_ball(3, 1.0, None)
    with pytest.raises(ValueError):
        body_shifted_ball(3, 1.0, (0.1, 0.1))


def test_ellipsoid_boundary_equation():
    a = (1.5, 1.0, 0.7, 0.9)
    body = body_ellipsoid(4, a)
    u = _probes(4)
    x = body.evaluate(u)[:, None] * u
    lhs = np.sum((x / np.asarray(a)) ** 2, axis=1)
    assert np.max(np.abs(lhs - 1.0)) < 1e-12
    with pytest.raises(ValueError):
        body_ellipsoid(3, (1.0, -1.0, 1.0))
    with pytest.raises(ValueError):
        body_ellipsoid(3, (1.0, 1.0))


def test_harmonic_ball_construction():
    body = body_harmonic_perturbed_ball(0.1, 3, 1)
    u = _probes(3)
    vals = body.evaluate(u)
    assert np.all(vals > 0)
    # perturbation must stay below the certified sup so rho cannot
    # cross zero; a huge epsilon is refused
    with pytest.raises(ValueError):
        body_harmonic_perturbed_ball(5.0, 3, 1)


def test_radial_field_rejects_nonpositive():
    def evaluate(u):
        u = np.asarray(u, dtype=float)
        return u[..., 0]  # negative on half the sphere

    with pytest.raises(ValueError):
        RadialField(dim=3, evaluate=evaluate)


def test_radial_field_rejects_contradicted_bounds():
    with pytest.raises(ValueError):
        RadialField(dim=3, evaluate=lambda u: np.full(np.asarray(u).shape[:-1], 2.0),
                    radius_bound=1.5)


@pytest.mark.parametrize("n", range(2, 7))
def test_gradient_validation_catches_wrong_gradient(n):
    # a gradient off by 0.1% is refused at every n, also against the
    # looser tolerance that an ellipsoid's declared Lipschitz bound sets
    shifted = body_shifted_ball(n, 1.0, (0.2,) + (0.0,) * (n - 1))
    ellipsoid = body_ellipsoid(n, np.linspace(1.5, 0.7, n))
    for body, lip in ((shifted, None), (ellipsoid, ellipsoid.lipschitz_bound)):
        for scale in (2.0, 1.001):
            with pytest.raises(ValueError, match="^gradient inconsistent with finite "
                                                 "differences"):
                RadialField(dim=n, evaluate=body.evaluate, lipschitz_bound=lip,
                            gradient=lambda u, g=body.gradient: scale * g(u))


@pytest.mark.parametrize("n, worst", [(2, "7.938e-01"), (3, "7.876e-01"),
                                      (4, "7.365e-01"), (5, "7.086e-01"),
                                      (6, "6.239e-01")])
def test_lipschitz_validation_catches_small_bound(n, worst):
    body = body_shifted_ball(n, 1.0, (0.4,) + (0.0,) * (n - 1))
    with pytest.raises(ValueError, match=f"^sampled pair violates declared Lipschitz "
                                         f"bound by {worst}$"):
        RadialField(dim=n, evaluate=body.evaluate, lipschitz_bound=1e-6)


def test_body_construction_completes_no_frame(monkeypatch):
    import starsym

    def refuse(*args, **kwargs):
        raise AssertionError("make_frame called during body construction")

    for module in [starsym] + [m for name, m in sys.modules.items()
                               if name.startswith("starsym.")]:
        if hasattr(module, "make_frame"):
            monkeypatch.setattr(module, "make_frame", refuse)
    for n in range(2, 7):
        bodies = [body_ball(n, 0.7),
                  body_shifted_ball(n, 1.0, (0.3,) + (-0.1,) * (n - 1)),
                  body_ellipsoid(n, np.linspace(1.5, 0.7, n))]
        if n == 3:
            bodies.append(body_harmonic_perturbed_ball(0.08, 3, 1))
        for body in bodies:
            for b in (body, strip_gradient(body)):
                scale_body(b, 2.5)
                rotate_body(b, random_rotation(n, seed=n))


def test_meridian_derivative_gradient_vs_fd():
    bodies = [body_shifted_ball(3, 1.0, (0.2, 0.1, -0.05)),
              body_ellipsoid(3, (1.4, 1.0, 0.8))]
    frame = make_frame([0.3, -0.4, 0.86], seed=2)
    eta = equator_rule(3, 16).nodes
    poles, points = _meridian_probe(frame, eta, np.linspace(-1.1, 1.1, len(eta)))
    for body in bodies:
        stripped = strip_gradient(body)
        assert stripped.gradient is None
        a = equator_derivative(body.evaluate, body.gradient, poles, points)
        b = equator_derivative(stripped.evaluate, stripped.gradient, poles, points)
        assert np.max(np.abs(a - b)) < 1e-8


def _same_bits(a, b):
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


def _signed_extremes(rng, shape):
    # magnitudes over 16 decades, 5% of the entries +-0, and a block of
    # rows made only of signed zeros
    a = rng.choice([-1.0, 1.0], shape) * 10.0 ** rng.uniform(-8.0, 8.0, shape)
    zeros = rng.random(shape) < 0.05
    a[zeros] = rng.choice([-0.0, 0.0], int(zeros.sum()))
    a[: shape[0] // 20] = rng.choice([-0.0, 0.0], (shape[0] // 20,) + shape[1:])
    return a


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_meridian_kernel_is_bit_identical(n):
    # per-node values against the reference forms: np.sum of the
    # gradient times the pole, and the four _latitude_points evaluations
    # combined by one Richardson level
    rng = np.random.default_rng(n)
    frame = make_frame(rng.standard_normal(n))
    lifted = equator_rule(n).nodes @ frame.basis
    tangents, points = _meridian_probe(
        frame, equator_rule(n).nodes, np.linspace(-1.2, 1.2, len(lifted)))
    synthetic = _signed_extremes(rng, lifted.shape)
    fields = [to_scalar_field(body_ball(n, 1.3)),
              to_scalar_field(body_shifted_ball(n, 1.0, 0.3 * np.eye(n)[0] - 0.1 * np.eye(n)[-1])),
              to_scalar_field(body_ellipsoid(n, np.linspace(1.5, 0.5, n)))]
    cases = [(f.evaluate, f.gradient, frame.pole, lifted) for f in fields]
    cases += [(f.evaluate, f.gradient, tangents, points) for f in fields]
    cases += [(None, lambda u: synthetic, frame.pole, lifted),
              (None, lambda u: synthetic, _signed_extremes(rng, lifted.shape), lifted)]
    for evaluate, gradient, pole, at in cases:
        got = equator_derivative(evaluate, gradient, pole, at)
        assert _same_bits(got, np.sum(gradient(at) * pole, axis=-1))
        if evaluate is None:
            continue
        h = FD_STEP
        up, down, up2, down2 = (evaluate(_latitude_points(pole, at, psi))
                                for psi in (h, -h, h / 2.0, -h / 2.0))
        d1 = (up - down) / (2.0 * h)
        d2 = (up2 - down2) / (2.0 * (h / 2.0))
        assert _same_bits(equator_derivative(evaluate, None, pole, at),
                          (4.0 * d2 - d1) / 3.0)


def test_to_scalar_field_values_and_bounds():
    for n in (2, 3, 4):
        body = body_shifted_ball(n, 1.0, (0.2,) + (0.0,) * (n - 1))
        f = to_scalar_field(body)
        u = _probes(n)
        want = body.evaluate(u) ** (n - 1) / (n - 1)
        assert np.max(np.abs(f.evaluate(u) - want)) < 1e-14
        assert f.sup_bound >= float(np.max(np.abs(want)))
        assert f.lipschitz_bound is not None
    # cached: same body object gives the same field object
    body = body_ball(3, 1.0)
    assert to_scalar_field(body) is to_scalar_field(body)


def test_hyperplane_profile_field_by_dimension():
    u2 = _probes(2)
    b2 = body_shifted_ball(2, 1.0, (0.3, 0.1))
    g2 = hyperplane_profile_field(b2)
    assert np.max(np.abs(g2.evaluate(u2) - np.log(b2.evaluate(u2)))) < 1e-14

    u3 = _probes(3)
    b3 = body_ellipsoid(3, (1.2, 1.0, 0.9))
    g3 = hyperplane_profile_field(b3)
    assert np.max(np.abs(g3.evaluate(u3) - b3.evaluate(u3))) < 1e-14

    u4 = _probes(4)
    b4 = body_ellipsoid(4, (1.2, 1.0, 0.9, 1.1))
    g4 = hyperplane_profile_field(b4)
    assert np.max(np.abs(g4.evaluate(u4) - b4.evaluate(u4) ** 2 / 2.0)) < 1e-14


def test_profile_field_gradient_consistency():
    # the log branch has gradient grad(rho)/rho; check along meridians
    body = body_shifted_ball(2, 1.0, (0.3, 0.1))
    g = hyperplane_profile_field(body)
    frame = make_frame([0.8, 0.6], seed=1)
    eta = equator_rule(2).nodes
    poles, points = _meridian_probe(frame, eta, np.array([0.4, -0.7]))
    a = equator_derivative(g.evaluate, g.gradient, poles, points)
    b = equator_derivative(g.evaluate, None, poles, points)
    assert np.max(np.abs(a - b)) < 1e-9


def test_odd_even_split():
    body = body_shifted_ball(3, 1.0, (0.3, -0.2, 0.1))
    f = to_scalar_field(body)
    fo, fe = odd_part(f), even_part(f)
    u = _probes(3)
    assert np.max(np.abs(fo.evaluate(u) + fe.evaluate(u) - f.evaluate(u))) < 1e-13
    assert np.max(np.abs(fo.evaluate(-u) + fo.evaluate(u))) < 1e-13
    assert np.max(np.abs(fe.evaluate(-u) - fe.evaluate(u))) < 1e-13
    # split fields keep usable gradients
    frame = make_frame([0.0, 1.0, 0.0], seed=4)
    eta = equator_rule(3, 8).nodes
    poles, points = _meridian_probe(frame, eta, np.linspace(-0.9, 0.9, len(eta)))
    a = equator_derivative(fo.evaluate, fo.gradient, poles, points)
    b = equator_derivative(fo.evaluate, None, poles, points)
    assert np.max(np.abs(a - b)) < 1e-8


def test_scale_body():
    body = body_ellipsoid(3, (1.2, 0.9, 1.0))
    big = scale_body(body, 2.5)
    u = _probes(3)
    assert np.max(np.abs(big.evaluate(u) - 2.5 * body.evaluate(u))) < 1e-13
    assert big.radius_bound == pytest.approx(2.5 * body.radius_bound)
    with pytest.raises(ValueError):
        scale_body(body, -1.0)


def test_rotate_body_moves_the_body():
    body = body_shifted_ball(3, 1.0, (0.3, 0.0, 0.0))
    rot = random_rotation(3, seed=3)
    rbody = rotate_body(body, rot)
    u = _probes(3)
    # radial function of the rotated body at rotated directions matches
    assert np.max(np.abs(rbody.evaluate(u @ rot.T) - body.evaluate(u))) < 1e-13
    with pytest.raises(ValueError):
        rotate_body(body, np.eye(3) * 2.0)


def test_linear_field():
    # the covector is used as given, not normalized
    f = linear_field(3, (0.0, 0.0, 2.0))
    u = _probes(3)
    assert np.max(np.abs(f.evaluate(u) - 2.0 * u[:, 2])) < 1e-14
    assert f.lipschitz_bound >= 2.0


def test_strip_gradient_on_field():
    f = linear_field(3, (1.0, 0.0, 0.0))
    g = strip_gradient(f)
    assert g.gradient is None
    u = _probes(3)
    assert np.array_equal(f.evaluate(u), g.evaluate(u))


def test_ellipsoid_axis_probe_rounding_past_the_semiaxis_is_accepted():
    # a probe along an axis rounds 1/sqrt(1/a^2) an ulp above a_max
    a = (0.019079902023824848, 0.03081318670646727, 0.015634100081178607,
         0.01212833028991379)
    body = body_ellipsoid(4, a)
    assert body.radius_bound == max(a)
    assert np.max(body.evaluate(probe_directions(4, 2048))) > max(a)
