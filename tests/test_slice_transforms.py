"""Section curves, the equatorial transform, and their slope agreement."""

import math
from dataclasses import replace

import numpy as np
import pytest

from starsym import (
    RadialField,
    ScalarField,
    SectionCurve,
    body_ball,
    body_ellipsoid,
    body_harmonic_perturbed_ball,
    body_shifted_ball,
    conical_section,
    derivative_at_zero,
    equator_rule,
    equator_transform,
    harmonic_field,
    hyperplane_section,
    make_frame,
    richardson_limit,
    scale_body,
    section_curve,
    slice_integral,
    strip_gradient,
    to_scalar_field,
    vol_sphere,
)
from starsym import slice_transforms


def _rule(n):
    return equator_rule(n, 48 if n > 2 else None)


def test_richardson_limit_recovers_even_power_series():
    target = 0.7
    pairs = [(h, target + 3.0 * h ** 2 - 2.0 * h ** 4)
             for h in (0.1, 0.05, 0.025, 0.0125)]
    limit, diag = richardson_limit(pairs)
    assert limit == pytest.approx(target, abs=1e-13)
    assert diag[0] == pairs[0][1]
    assert len(diag) == 4


def test_richardson_limit_rejects_non_halving_steps():
    with pytest.raises(ValueError):
        richardson_limit([(0.1, 1.0), (0.06, 1.0)])


@pytest.mark.parametrize("n", [2, 3, 4])
def test_conical_section_of_ball_closed_form(n):
    # sections of a ball along a cone: cos^{n-2}(psi) vol(S^{n-2}) R^{n-1}/(n-1)
    radius = 1.3
    body = body_ball(n, radius)
    frame = make_frame(np.eye(n)[0])
    for z in (-0.5, 0.0, 0.35, 0.8):
        psi = math.asin(z)
        want = (math.cos(psi) ** (n - 2) * vol_sphere(n - 2)
                * radius ** (n - 1) / (n - 1))
        got = conical_section(body, frame, z, _rule(n))
        assert got == pytest.approx(want, rel=1e-13), (n, z)


def test_conical_section_unit_ball_spot_values():
    body = body_ball(3, 1.0)
    frame = make_frame([0.0, 0.0, 1.0])
    rule = _rule(3)
    assert conical_section(body, frame, 0.6, rule) == pytest.approx(0.8 * math.pi, rel=1e-13)
    assert conical_section(body, frame, 0.5, rule) == pytest.approx(
        math.pi * math.sqrt(3.0) / 2.0, rel=1e-13)


def test_hyperplane_section_of_ball_closed_form():
    frame = make_frame([0.3, -0.9, 0.1])
    body = body_ball(3, 1.0)
    rule = _rule(3)
    for z in (-0.7, -0.2, 0.0, 0.3, 0.8):
        got = hyperplane_section(body, frame, z, rule)
        assert got == pytest.approx(math.pi * (1.0 - z * z), rel=1e-10), z


def test_hyperplane_section_chord_n2():
    body = body_ball(2, 1.0)
    frame = make_frame([1.0, 0.0])
    got = hyperplane_section(body, frame, 0.3, equator_rule(2))
    assert got == pytest.approx(2.0 * math.sqrt(0.91), rel=1e-10)


@pytest.mark.parametrize("n", [2, 3])
def test_hyperplane_section_of_shifted_ball_closed_form(n):
    # flat cut of a shifted ball: ball of radius sqrt(R^2 - d^2) with
    # d the distance from the center to the cutting plane
    radius = 1.0
    center = (0.2, 0.1, -0.15)[:n]
    body = body_shifted_ball(n, radius, center)
    xi = np.eye(n)[n - 1]
    frame = make_frame(xi)
    rule = _rule(n)
    for z in (-0.4, 0.1, 0.45):
        d = float(np.dot(center, xi)) - z
        rr = radius ** 2 - d ** 2
        want = math.pi * rr if n == 3 else 2.0 * math.sqrt(rr)
        got = hyperplane_section(body, frame, z, rule)
        assert got == pytest.approx(want, rel=1e-9), (n, z)


def test_hyperplane_section_of_ellipsoid_closed_form():
    a, b, c = 1.4, 1.1, 0.9
    body = body_ellipsoid(3, (a, b, c))
    frame = make_frame([0.0, 0.0, 1.0])
    rule = equator_rule(3, 96)
    for z in (0.0, 0.4, -0.6):
        want = math.pi * a * b * (1.0 - (z / c) ** 2)
        got = hyperplane_section(body, frame, z, rule)
        assert got == pytest.approx(want, rel=1e-9), z


def _ball_volume(m):
    # omega_m: volume of the unit m-ball
    return vol_sphere(m - 1) / m


def _off_axis_frame(n):
    return make_frame(np.arange(1, n + 1, dtype=float))


_HEIGHTS = (-0.5, -0.1, 0.1, 0.5)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_hyperplane_section_of_shifted_ball_all_dims(n):
    # the last four heights pass the smallest equator radius (0.65 to
    # 0.71 on the rule's nodes) but stay below rho(+-xi) (0.90 to 0.98),
    # so the foot point is inside and the cut reaches past the equator
    radius = 1.0
    center = np.linspace(0.25, -0.15, n)
    body = body_shifted_ball(n, radius, center)
    frame = _off_axis_frame(n)
    rule = equator_rule(n)
    top, bottom = body.evaluate(np.stack([frame.pole, -frame.pole]))
    past = (-0.9, -0.75, 0.75, 0.85)
    assert float(body.evaluate(rule.nodes @ frame.basis).min()) < 0.75
    assert -bottom < min(past) and max(past) < top
    for z in _HEIGHTS + past:
        d = float(center @ frame.pole) - z
        want = _ball_volume(n - 1) * (radius ** 2 - d ** 2) ** ((n - 1) / 2)
        got = hyperplane_section(body, frame, z, rule)
        assert got == pytest.approx(want, rel=1e-9), (n, z)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_hyperplane_section_of_ellipsoid_all_dims(n):
    # the default n = 6 rule stops near 1e-8 on this body; 20 is enough
    a = np.linspace(1.2, 0.9, n)
    body = body_ellipsoid(n, a)
    frame = _off_axis_frame(n)
    rule = equator_rule(n, 20 if n == 6 else None)
    h = float(np.linalg.norm(a * frame.pole))
    for z in _HEIGHTS:
        want = (_ball_volume(n - 1) * float(np.prod(a)) / h
                * (1.0 - (z / h) ** 2) ** ((n - 1) / 2))
        got = hyperplane_section(body, frame, z, rule)
        assert got == pytest.approx(want, rel=1e-9), (n, z)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_shifted_ball_hyperplane_slope_closed_form(n):
    # V(z) = omega_{n-1} (r^2 - (s - z)^2)^{(n-1)/2} with s = <c, xi>
    radius = 1.0
    center = np.linspace(0.25, -0.15, n)
    body = body_shifted_ball(n, radius, center)
    frame = _off_axis_frame(n)
    s = float(center @ frame.pole)
    want = (_ball_volume(n - 1) * (n - 1) * s
            * (radius ** 2 - s ** 2) ** ((n - 3) / 2))
    res = derivative_at_zero("hyperplane", body, frame, equator_rule(n))
    assert res.transform_value == pytest.approx(want, rel=1e-12, abs=1e-14), n
    assert res.fd_value == pytest.approx(want, abs=1e-11), n


def _count_evaluations(body):
    calls = []

    def evaluate(u):
        calls.append(1)
        return body.evaluate(u)

    counted = replace(body, evaluate=evaluate)
    calls.clear()
    return counted, calls


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_hyperplane_section_evaluation_budget(n):
    # the foot point, a 64-point scan and a short refinement; on the
    # second ellipsoid some false-position points round onto a bracket
    # end that already sits on the root
    bodies = (body_ball(n, 1.1),
              body_shifted_ball(n, 1.0, np.linspace(0.25, -0.15, n)),
              body_ellipsoid(n, np.linspace(1.2, 0.9, n)),
              body_ellipsoid(n, np.linspace(0.8, 1.5, n)))
    frame = _off_axis_frame(n)
    rule = equator_rule(n)
    for body in bodies:
        counted, calls = _count_evaluations(body)
        for z in _HEIGHTS:
            calls.clear()
            value = hyperplane_section(counted, frame, z, rule)
            assert value == hyperplane_section(body, frame, z, rule)
            assert len(calls) <= 80, (body.label, z, len(calls))


def _budget_bodies(n):
    return (body_ball(n, 1.1),
            body_shifted_ball(n, 1.0, np.linspace(0.25, -0.15, n)),
            body_ellipsoid(n, np.linspace(1.2, 0.9, n)),
            body_ellipsoid(n, np.linspace(0.8, 1.5, n)))


# mixed signs, z = 0 and a height far below the root solver's 1e-12
# bracket width, unsorted, all inside every budget body
_BATCH = np.array([0.3, -0.5, 0.0, 0.45, -0.05, 0.1, -0.3, 0.5, -0.1, 2e-13])


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_hyperplane_section_batch_matches_scalar_calls(n):
    # heights on one side share a scan sized by their largest |z|, so a
    # batch brackets small heights on a coarser grid than a scalar call;
    # both refine to the same roots, up to rounding
    frame = _off_axis_frame(n)
    rule = equator_rule(n)
    for body in _budget_bodies(n):
        batch = hyperplane_section(body, frame, _BATCH, rule)
        assert isinstance(batch, np.ndarray) and batch.shape == _BATCH.shape
        for z, got in zip(_BATCH, batch):
            single = hyperplane_section(body, frame, z, rule)
            assert type(single) is float
            assert abs(got - single) <= 1e-14 * single, (body.label, z)
        one = hyperplane_section(body, frame, _BATCH[:1], rule)
        assert one.shape == (1,)
        assert one[0] == hyperplane_section(body, frame, float(_BATCH[0]), rule)
        bare = hyperplane_section(strip_gradient(body), frame, _BATCH, rule)
        assert np.array_equal(bare, batch)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_slice_and_conical_batches_equal_scalar_calls(n):
    frame = _off_axis_frame(n)
    rule = equator_rule(n)
    body = body_ellipsoid(n, np.linspace(0.8, 1.5, n))
    f = to_scalar_field(body)
    for fn, obj in ((conical_section, body), (slice_integral, f)):
        batch = fn(obj, frame, _BATCH, rule)
        assert isinstance(batch, np.ndarray) and batch.shape == _BATCH.shape
        single = [fn(obj, frame, z, rule) for z in _BATCH]
        assert all(type(v) is float for v in single)
        assert np.array_equal(batch, single)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_section_curve_and_ladder_evaluation_budget(n):
    # the foot point, one 64-point scan per side of the equator, the
    # equator radii when z = 0 is on the grid, and the refinement of each
    # nonzero height: at most 6 steps on the curve grid and 4 on the
    # ladder's small heights, whose roots the bounds bracket tightly
    grid = -0.8 + 0.1 * np.arange(17)
    frame = _off_axis_frame(n)
    rule = equator_rule(n)
    for body in _budget_bodies(n):
        rho_min = float(body.evaluate(rule.nodes @ frame.basis).min())
        zs = grid[np.abs(grid) < rho_min]
        counted, calls = _count_evaluations(body)
        curve = section_curve("hyperplane", counted, frame, zs, rule)
        assert np.array_equal(curve.values, hyperplane_section(body, frame, zs, rule))
        assert len(calls) <= 2 * 64 + 6 * np.count_nonzero(zs) + 2, (body.label, len(calls))
        calls.clear()
        derivative_at_zero("hyperplane", counted, frame, rule)
        assert len(calls) <= 2 * 64 + 4 * 8 + 1, (body.label, len(calls))


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_hyperplane_section_ignores_gradient(n):
    body = body_ellipsoid(n, np.linspace(1.3, 0.8, n))
    bare = strip_gradient(body)
    frame = _off_axis_frame(n)
    rule = equator_rule(n)
    zs = np.array([-0.6, -0.3, 0.0, 0.2, 0.7])
    with_grad = [hyperplane_section(body, frame, z, rule) for z in zs]
    without = [hyperplane_section(bare, frame, z, rule) for z in zs]
    assert np.array_equal(with_grad, without)


def _run_illinois(g, a, b):
    calls = []

    def counted(psi):
        calls.append(1)
        return g(psi)

    a, b = np.array([a]), np.array([b])
    result = slice_transforms._illinois(counted, a, b, g(a), g(b))
    return (len(calls),) + result


def test_illinois_stops_on_exact_zero():
    calls, a, b, ga, gb = _run_illinois(lambda x: x - 0.5, 0.0, 1.0)
    assert calls == 1
    assert a[0] == b[0] == 0.5 and ga[0] == gb[0] == 0.0


def test_illinois_closes_bracket_when_an_end_sits_on_the_root():
    # every false-position point rounds onto a = 0.25, where g is -1e-18;
    # one step half the target width inside closes the bracket
    calls, a, b, ga, gb = _run_illinois(lambda x: x - 0.25 - 1e-18, 0.25, 0.75)
    assert calls == 1
    assert a[0] == 0.25 and 0.0 < b[0] - a[0] <= 1e-12
    assert ga[0] < 0.0 < gb[0]


def test_illinois_halving_beats_plain_false_position():
    # plain regula falsi keeps the end b = 1 and needs about 25 steps here
    root = 0.5 ** 0.1
    calls, a, b, ga, gb = _run_illinois(lambda x: x ** 10 - 0.5, 0.0, 1.0)
    assert calls <= 16
    assert a[0] <= root <= b[0] and b[0] - a[0] <= 1e-12


def test_hyperplane_section_raises_at_refinement_cap(monkeypatch):
    monkeypatch.setattr(slice_transforms, "_MAX_REFINE", 2)
    body = body_ellipsoid(3, (1.2, 1.0, 0.9))
    with pytest.raises(RuntimeError, match="did not converge"):
        hyperplane_section(body, _off_axis_frame(3), 0.3, _rule(3))


def test_conical_and_hyperplane_coincide_at_zero():
    rule = _rule(3)
    frame = make_frame([0.2, 0.5, -0.8])
    for body in (body_shifted_ball(3, 1.0, (0.15, -0.1, 0.05)),
                 body_ellipsoid(3, (1.3, 0.9, 1.1))):
        cs = conical_section(body, frame, 0.0, rule)
        hs = hyperplane_section(body, frame, 0.0, rule)
        assert abs(cs - hs) <= 1e-14 * abs(cs)
        # below the normal range a height reads as z = 0, where V(z)
        # equals V(0) to double precision
        tiny = hyperplane_section(body, frame, np.array([-5e-324, 1e-320, 0.5]), rule)
        assert tiny[0] == tiny[1] == hs


def test_slice_integral_rejects_out_of_range_heights():
    f = to_scalar_field(body_ball(3, 1.0))
    frame = make_frame([0.0, 1.0, 0.0])
    for z in (1.0, -1.0, 1.7):
        with pytest.raises(ValueError):
            slice_integral(f, frame, z, _rule(3))
    with pytest.raises(ValueError):
        slice_integral(f, frame, np.array([0.2, -0.3, 1.0]), _rule(3))


def test_hyperplane_section_is_zero_at_and_beyond_radius_bound():
    # the body lies in the ball of radius radius_bound = 1, so those cuts
    # are empty
    body = body_ball(3, 1.0)
    frame = make_frame([0.0, 0.0, 1.0])
    for z in (1.0, -1.0, -1.1, 7.0):
        assert hyperplane_section(body, frame, z, _rule(3)) == 0.0
    for z in (np.nan, np.inf, np.array([0.2, -np.inf])):
        with pytest.raises(ValueError, match="heights must be finite"):
            hyperplane_section(body, frame, z, _rule(3))
    # a batch of only such heights costs no evaluation, and in a mixed
    # batch they take no part in the other heights' scans
    counted, calls = _count_evaluations(body)
    assert np.array_equal(hyperplane_section(counted, frame, np.array([-1.5, 1.0]), _rule(3)),
                          [0.0, 0.0])
    assert not calls
    mixed = hyperplane_section(body, frame, np.array([0.2, -0.4, 0.0, 1.05, 0.6]), _rule(3))
    assert mixed[3] == 0.0
    assert np.array_equal(np.delete(mixed, 3), hyperplane_section(
        body, frame, np.array([0.2, -0.4, 0.0, 0.6]), _rule(3)))
    with pytest.raises(ValueError, match="1-d"):
        hyperplane_section(body, frame, np.zeros((2, 2)), _rule(3))


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_hyperplane_section_with_foot_points_outside(n):
    # the ball's centre sits mostly across xi, so the cuts at |z| from
    # 0.7 up lie beyond rho(xi) = 0.65 and rho(-xi) = 0.55 but below the
    # supports 1 + s and 1 - s, s = 0.05: both sides are solved about the
    # ray through their summit, and match omega_{n-1} (1 - (z - s)^2)^{(n-1)/2}
    # as closely as the foot-point cuts of this body do (the default
    # n = 6 rule stops near 5e-8 on its cut at z = 0)
    frame = _off_axis_frame(n)
    body = body_shifted_ball(n, 1.0, 0.8 * frame.basis[0] + 0.05 * frame.pole)
    top, bottom = body.evaluate(np.stack([frame.pole, -frame.pole]))
    zs = np.array([-0.9, -0.7, -0.3, 0.0, 0.3, 0.7, 0.9])
    assert max(top, bottom) < 0.7
    want = _ball_volume(n - 1) * (1.0 - (zs - 0.05) ** 2) ** ((n - 1) / 2)
    got = hyperplane_section(body, frame, zs, equator_rule(n))
    error = np.abs(got - want) / _ball_volume(n - 1)
    outside = np.abs(zs) > 0.6
    assert np.max(error[outside]) <= 1e-13, n
    assert np.max(error) <= (1e-7 if n == 6 else 1e-13), n
    # refining the heights one at a time gives the same bits as in groups
    with pytest.MonkeyPatch.context() as monkey:
        monkey.setattr(slice_transforms, "_GROUP_POINTS", 1)
        assert np.array_equal(hyperplane_section(body, frame, zs, equator_rule(n)), got)
    # a side keeps its foot point while every foot point on it is inside
    calls = []
    summit = slice_transforms._summit
    with pytest.MonkeyPatch.context() as monkey:
        monkey.setattr(slice_transforms, "_summit",
                       lambda *args: calls.append(args[1]) or summit(*args))
        hyperplane_section(body, frame, np.array([-0.3, 0.3]), equator_rule(n))
        assert not calls
        hyperplane_section(body, frame, np.array([-0.3, 0.3, 0.7]), equator_rule(n))
    assert len(calls) == 1 and np.array_equal(calls[0], frame.pole)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_summit_reaches_the_support(n):
    # the highest boundary point along xi is the support h(xi):
    # |diag(a) xi| for an ellipsoid, <c, xi> + r for a shifted ball
    frame = _off_axis_frame(n)
    a = np.linspace(1.3, 0.6, n)
    center = np.linspace(0.3, -0.2, n)
    for body, h in ((body_ellipsoid(n, a), np.linalg.norm(a * frame.pole)),
                    (body_shifted_ball(n, 0.9, center), center @ frame.pole + 0.9)):
        u, height = slice_transforms._summit(body, frame.pole, frame.basis)
        assert abs(np.linalg.norm(u) - 1.0) < 1e-15
        assert height == pytest.approx(h, rel=1e-14), n
        assert height == pytest.approx(float(body.evaluate(u[None])[0]) * (u @ frame.pole),
                                       rel=1e-15)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_foot_point_solve_is_the_summit_solve_with_u_at_the_pole(n):
    # cuts whose foot points lie inside the body, solved about the ray
    # through the summit u, which is far from the pole, and about the
    # foot point (u = e): two centres, one volume.  They differ only by
    # the rule's error on each profile, which the default n = 6 rule
    # leaves near 2e-13 on this ball, so n = 6 takes resolution 20
    body = body_shifted_ball(n, 1.0, np.linspace(0.25, -0.15, n))
    frame = _off_axis_frame(n)
    rule = equator_rule(n, 20 if n == 6 else None)
    lifted = rule.nodes @ frame.basis
    size = np.array([0.1, 0.3, 0.5])
    for e in (frame.pole, -frame.pole):
        assert np.all(size < body.evaluate(e[None])[0])
        u, _ = slice_transforms._summit(body, e, frame.basis)
        assert u @ e < 0.99
        foot, summit = (
            np.array([rule.weights @ r ** (n - 1)
                      for r in slice_transforms._side_radii(body, e, lifted, size, about)])
            for about in (e, u))
        assert np.all(np.abs(summit - foot) <= 1e-13 * foot), n


def test_rule_frame_dimension_mismatch_rejected():
    body = body_ball(3, 1.0)
    with pytest.raises(ValueError):
        conical_section(body, make_frame([0.0, 0.0, 1.0]), 0.2, equator_rule(2))


def _pinched_body():
    # rho(u) = exp(-1.5 u_z): along the meridian toward e_z the height
    # rho sin(psi) peaks near sin(psi) = 2/3 and comes back down, so
    # cuts just under the peak height cross the boundary twice
    def ev(u):
        return np.exp(-1.5 * np.asarray(u, dtype=float)[..., 2])

    def grad(u):
        u = np.asarray(u, dtype=float)
        g = np.zeros_like(u)
        g[..., 2] = -1.5 * np.exp(-1.5 * u[..., 2])
        return g

    return RadialField(dim=3, evaluate=ev, gradient=grad, lipschitz_bound=6.8,
                       radius_bound=4.5, radius_floor=0.22, label="pinched")


def _fold_body():
    # rho(u) = 1 - 2.2 u_z^2 + 1.8 u_z^4, even, with rho(+-e_z) = 0.6:
    # along each meridian toward e_z the height rho sin(psi) rises to
    # 0.283, dips to 0.247 and rises again to 0.6, so the foot point of
    # the cut at |z| = 0.26 is inside the body and the cut crosses some
    # meridians three times
    def ev(u):
        t = np.asarray(u, dtype=float)[..., 2] ** 2
        return 1.0 - 2.2 * t + 1.8 * t * t

    return RadialField(dim=3, evaluate=ev, label="fold")


def test_hyperplane_section_detects_multiple_crossings():
    frame = make_frame([0.0, 0.0, 1.0])
    rule = _rule(3)
    fold = _fold_body()
    for z in (0.26, -0.26):
        with pytest.raises(ValueError, match="multiple boundary crossings"):
            hyperplane_section(fold, frame, z, rule)
    # one folded height fails the whole batch that shares its scan
    with pytest.raises(ValueError, match="multiple boundary crossings"):
        hyperplane_section(fold, frame, np.array([0.05, 0.1, 0.26]), rule)
    # the pinched body's foot point at z = 0.24 lies above rho(e_z) =
    # exp(-1.5) = 0.223, below the summit height 2 / (3 e) = 0.245: the
    # cut is a ring around the pole, and rays from the point under the
    # summit cross it twice
    body = _pinched_body()
    for z in (0.24, np.array([0.05, 0.1, 0.24])):
        with pytest.raises(ValueError, match="multiple boundary crossings: cut is not "
                                             "star-shaped about the point where the ray"):
            hyperplane_section(body, frame, z, rule)
    # above the summit the cut misses the body, before any scan
    counted, calls = _count_evaluations(body)
    with pytest.raises(ValueError, match=r"the cut at z = 0\.25 misses the body: rho\(xi\) "
                                         r"= 0\.22313, rho\(-xi\) = 4\.48169, and no "
                                         r"boundary point was found above height 0\.245253"):
        hyperplane_section(counted, frame, np.array([-0.3, 0.1, 0.25]), rule)
    scans = slice_transforms._SCAN_POINTS
    assert len(calls) < scans
    # below the fold the cut is honest and the area is positive
    assert hyperplane_section(body, frame, 0.1, rule) > 0.0


def test_hyperplane_section_domain():
    # a prolate ellipsoid cut across its long axis matches the ellipse
    # area pi a b (1 - z^2 / c^2) on its whole support, also past its
    # smallest equator radius 0.6
    body = body_ellipsoid(3, (0.6, 0.7, 1.2))
    frame = make_frame([0.0, 0.0, 1.0])
    zs = np.array([-0.9, -0.55, -0.3, 0.0, 0.3, 0.55, 0.9])
    want = math.pi * 0.6 * 0.7 * (1.0 - zs ** 2 / 1.44)
    got = hyperplane_section(body, frame, zs, equator_rule(3))
    assert np.max(np.abs(got - want) / want) <= 1e-12
    # an oblate one refuses the cut whose foot point lies above its
    # pole, although 0.6 is below its equator radius 1.1
    oblate = body_ellipsoid(3, (1.2, 1.1, 0.5))
    with pytest.raises(ValueError, match="rho\\(xi\\) = 0.5"):
        hyperplane_section(oblate, frame, 0.6, equator_rule(3))


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_hyperplane_scan_spans_the_latitudes_the_bounds_allow(n, monkeypatch):
    # along node theta's arc to u, every crossing of rise sin(psi) rho =
    # |z| lies in [asin(|z| / (bound rise)), asin(|z| / (floor rise))], or
    # in its mirror past pi / 2 if the arc reaches it: each node's scan
    # strictly contains those intervals for its heights up to the arc's
    # end at u, never passes u (to rounding), and on a capped arc stays
    # inside the range [0, asin(max |z| / floor) + 0.1] that the scan used
    # to cover, so the multi-root probe is never coarser than it was.  The
    # rows of a scan are the latitudes `_arc_heights` receives between
    # the start of a side and its `_crossings` probe
    scans, scanning = [], [False]
    side_radii = slice_transforms._side_radii
    arc_heights = slice_transforms._arc_heights
    crossings = slice_transforms._crossings

    def recorded_side(body, e, lifted, size, u):
        scans.append((body, e, lifted, size, u, []))
        scanning[0] = True
        return side_radii(body, e, lifted, size, u)

    def recorded_arcs(body, poles, lifted, rise, psi):
        if scanning[0]:
            scans[-1][-1].append(np.broadcast_to(psi, (len(psi), len(scans[-1][2]))))
        return arc_heights(body, poles, lifted, rise, psi)

    def recorded_crossings(table, zs):
        scanning[0] = False
        return crossings(table, zs)

    monkeypatch.setattr(slice_transforms, "_side_radii", recorded_side)
    monkeypatch.setattr(slice_transforms, "_arc_heights", recorded_arcs)
    monkeypatch.setattr(slice_transforms, "_crossings", recorded_crossings)
    frame = _off_axis_frame(n)
    for body in _budget_bodies(n):
        hyperplane_section(body, frame, _BATCH, equator_rule(n))
        hyperplane_section(body, frame, 0.3, equator_rule(n))
    # both sides of this ball have foot points outside it (see
    # test_hyperplane_section_with_foot_points_outside)
    offset = body_shifted_ball(n, 1.0, 0.8 * frame.basis[0] + 0.05 * frame.pole)
    hyperplane_section(offset, frame, np.array([-0.9, -0.7, -0.3, 0.3, 0.7, 0.9]),
                       equator_rule(n))
    assert len(scans) == 14
    assert sum(not np.array_equal(u, e) for _, e, _, _, u, _ in scans) == 2
    for body, e, lifted, size, u, rows in scans:
        psi = np.concatenate(rows)
        assert psi.shape == (slice_transforms._SCAN_POINTS, len(lifted))
        assert np.all(size > 0.0) and np.all(np.diff(psi, axis=0) > 0.0)
        c = 0.0 if np.array_equal(u, e) else lifted @ u
        normal = np.sqrt(1.0 - c * c)
        rise, end = (u @ e) / normal, np.arctan2(normal, c)
        top = np.arcsin(np.minimum(1.0, size.max() / (body.radius_floor * rise)))
        lo, hi = psi[0], psi[-1]
        assert np.all((0.0 < lo) & (lo < np.arcsin(size.min() / (body.radius_bound * rise))))
        # the last row, lo + (end - lo), lands on u's latitude to rounding
        at_u = np.abs(hi - end) <= 4e-16 * end
        assert np.all((np.minimum(end, top) < hi) | at_u)
        assert np.all((hi < end) | at_u)
        assert np.all((hi <= top + 0.1) | (end >= np.pi - top))


def test_hyperplane_section_names_broken_radius_bounds():
    # the scan spans only the latitudes the radius bounds allow, so a
    # radius_floor above the true minimum 0.8 leaves the meridians where
    # rho < 0.95 without a crossing at z = 0.5, and the error says so
    body = body_ellipsoid(3, (1.2, 1.0, 0.8))
    object.__setattr__(body, "radius_floor", 0.95)
    frame = make_frame([0.0, 0.0, 1.0])
    for z in (0.5, -0.5, np.array([-0.5, 0.2, 0.5])):
        with pytest.raises(ValueError, match=r"radius_floor = 0\.95 and radius_bound = 1\.2 "
                                             r"do not bound rho"):
            hyperplane_section(body, frame, z, _rule(3))
    # a floor of 0 bounds nothing, so the scan reaches up to the pole
    object.__setattr__(body, "radius_floor", 0.0)
    got = hyperplane_section(body, frame, np.array([-0.5, 0.5]), _rule(3))
    assert np.allclose(got, math.pi * 1.2 * (1.0 - 0.25 / 0.64), rtol=1e-12, atol=0.0)


def test_section_curve_kinds_and_type_checks():
    body = body_shifted_ball(3, 1.0, (0.1, 0.0, 0.0))
    f = to_scalar_field(body)
    frame = make_frame([1.0, 0.0, 0.0])
    rule = _rule(3)
    zs = np.linspace(-0.5, 0.5, 11)
    for kind, obj in (("slice", f), ("conical", body), ("hyperplane", body)):
        curve = section_curve(kind, obj, frame, zs, rule)
        assert curve.kind == kind
        assert curve.values.shape == zs.shape
        assert np.all(np.isfinite(curve.values))
    with pytest.raises(TypeError):
        section_curve("slice", body, frame, zs, rule)
    with pytest.raises(TypeError):
        section_curve("conical", f, frame, zs, rule)
    with pytest.raises(ValueError):
        section_curve("wedge", body, frame, zs, rule)


def test_section_curve_validation():
    xi = np.array([0.0, 0.0, 1.0])
    zs = np.array([-0.2, 0.0, 0.2])
    vals = np.array([1.0, 2.0, 1.5])
    SectionCurve("conical", xi, zs, vals)
    # slice curves may go negative, section measures may not
    SectionCurve("slice", xi, zs, np.array([-1.0, 0.5, -0.2]))
    with pytest.raises(ValueError):
        SectionCurve("conical", xi, zs[::-1].copy(), vals)
    with pytest.raises(ValueError):
        SectionCurve("conical", xi, zs, vals[:2])
    with pytest.raises(ValueError):
        SectionCurve("conical", xi, zs, np.array([1.0, -2.0, 1.5]))
    with pytest.raises(ValueError):
        SectionCurve("hyperplane", xi, zs, np.array([1.0, np.nan, 1.5]))


@pytest.mark.parametrize("n,kind", [(2, "conical"), (2, "hyperplane"),
                                    (3, "conical"), (3, "hyperplane"),
                                    (4, "conical")])
def test_curve_slope_matches_transform(n, kind):
    # the curve is differentiated and the transform evaluated with the
    # same rule, so agreement is limited only by the difference ladder
    body = body_shifted_ball(n, 1.0, (0.18, -0.1) + (0.05,) * (n - 2))
    frame = make_frame(np.arange(1, n + 1, dtype=float))
    res = derivative_at_zero(kind, body, frame, _rule(n))
    assert res.agreement_residual <= 1e-8, (n, kind, res.agreement_residual)
    # hyperplane heights scale with the body: the ladder starts at 1e-2
    # times its radius floor
    h0 = 1e-2 * (body.radius_floor if kind == "hyperplane" else 1.0)
    assert [h for h, _ in res.fd_steps] == [h0 / 2 ** k for k in range(4)]


@pytest.mark.parametrize("scale", [0.005, 1.0, 100.0])
def test_hyperplane_slope_is_scale_free(scale):
    # slopes of flat cuts scale like the body in n = 3; a ladder fixed at
    # 1e-2 would leave the body at scale 0.005 and sit at roundoff at 100
    body = scale_body(body_shifted_ball(3, 1.0, (0.18, -0.1, 0.05)), scale)
    frame = make_frame([1.0, 2.0, 3.0])
    res = derivative_at_zero("hyperplane", body, frame, equator_rule(3))
    want = derivative_at_zero("hyperplane", body_shifted_ball(3, 1.0, (0.18, -0.1, 0.05)),
                              frame, equator_rule(3))
    assert res.fd_value / scale == pytest.approx(want.fd_value, rel=1e-11)
    assert res.transform_value / scale == pytest.approx(want.transform_value, rel=1e-13)
    assert res.agreement_residual / scale <= 1e-12


def test_slice_curve_slope_matches_transform():
    f = harmonic_field({(3, 1): 0.5, (2, 2): 0.3, (1, -1): 0.2})
    frame = make_frame([0.4, -0.5, 0.8])
    res = derivative_at_zero("slice", f, frame, _rule(3))
    assert res.agreement_residual <= 1e-9
    assert res.fd_value == pytest.approx(res.transform_value, abs=1e-9)


def test_transform_rule_override_exposes_coarse_quadrature():
    # a strongly shifted ball keeps slowly decaying even content on the
    # equator; an 8-node rule cannot integrate it silently
    body = body_shifted_ball(3, 1.0, (0.6, 0.0, 0.0))
    frame = make_frame([0.55, 0.3, 0.78])
    fine = equator_rule(3, 192)
    matched = derivative_at_zero("conical", body, frame, fine)
    coarse = derivative_at_zero("conical", body, frame, fine,
                                transform_rule=equator_rule(3, 8))
    assert matched.agreement_residual <= 1e-9
    assert coarse.agreement_residual >= 1e-7


def test_equator_transform_fd_fallback_matches_analytic():
    g = harmonic_field({(3, 0): 0.4, (5, -2): 0.2})
    bare = ScalarField(dim=3, evaluate=g.evaluate)
    frame = make_frame([0.1, 0.9, -0.4])
    rule = _rule(3)
    a = equator_transform(g, frame, rule)
    b = equator_transform(bare, frame, rule)
    assert abs(a - b) <= 1e-9


# ---------------------------------------------------------------------------
# The point and scan kernels, pinned against the broadcast points, the
# per-height sign-change scan and the root function they replaced
# (copied here as they stood): bit for bit, but for the hyperplane
# values and slopes, whose scan grid and radius read have since changed


def _old_points(pole, lifted, psi):
    psi = np.asarray(psi, dtype=float)
    return np.sin(psi)[..., None] * pole + np.cos(psi)[..., None] * lifted


def _old_crossings(table, zs):
    firsts = np.empty((len(zs), table.shape[1]), dtype=np.uint8)
    missed = multiple = False
    for j, z in enumerate(zs):
        above = table >= z
        flips = above[:-1] != above[1:]
        counts = flips.sum(axis=0)
        firsts[j] = np.argmax(flips, axis=0)
        missed |= bool(np.any(counts == 0))
        multiple |= bool(np.any(counts > 1))
    return firsts, missed, multiple


def _old_side_radii(body, pole, lifted, zs, cap):
    floor = max(body.radius_floor, 1e-12)
    psi_max = min(math.asin(min(1.0, float(np.abs(zs).max()) / floor)) + 0.1, cap)
    up = zs[0] > 0.0

    def scan(lo, hi):
        grid = np.linspace(lo, hi, 64)
        table = np.empty((64, lifted.shape[0]))
        for i, psi in enumerate(grid):
            table[i] = body.evaluate(_old_points(pole, lifted, psi)) * math.sin(psi)
        return (grid, table) + _old_crossings(table, zs)

    grid, table, firsts, missed, multiple = scan(*((0.0, psi_max) if up else (-psi_max, 0.0)))
    if missed:
        grid, table, firsts, missed, multiple = scan(*((0.0, cap) if up else (-cap, 0.0)))
        if missed:
            raise ValueError("root bracketing failed: the cut misses some meridians")
    if multiple:
        raise ValueError("multiple boundary crossings: cut is not star-shaped "
                         "about its foot point")
    cols = np.arange(lifted.shape[0])
    for z, first in zip(zs, firsts):
        def g(psi):
            return body.evaluate(_old_points(pole, lifted, psi)) * np.sin(psi) - z

        a, b, ga, gb = slice_transforms._illinois(
            g, grid[first], grid[first + 1], table[first, cols] - z, table[first + 1, cols] - z)
        denom = gb - ga
        safe = np.abs(denom) > 1e-300
        psi_star = np.where(safe, b - gb * (b - a) / np.where(safe, denom, 1.0),
                            0.5 * (a + b))
        psi_star = np.clip(psi_star, -cap, cap)
        yield body.evaluate(_old_points(pole, lifted, psi_star)) * np.cos(psi_star)


def _old_hyperplane_section(body, frame, z, rule):
    # the value path only: every height given here lies in the domain
    zs, scalar = slice_transforms._heights(z)
    n = frame.dim
    lifted = rule.nodes @ frame.basis
    rho_eq = body.evaluate(lifted)
    values = np.empty(zs.shape)
    values[zs == 0.0] = float(rule.weights @ (rho_eq ** (n - 1))) / (n - 1)
    cap = math.pi / 2 - 1e-9
    for side in (zs > 0.0, zs < 0.0):
        index = np.flatnonzero(side)
        if index.size:
            for j, r in zip(index, _old_side_radii(body, frame.pole, lifted, zs[index], cap)):
                values[j] = float(rule.weights @ (r ** (n - 1))) / (n - 1)
    return slice_transforms._shaped(values, scalar)


def _old_slice_integral(f, frame, z, rule):
    zs, scalar = slice_transforms._heights(z)
    lifted = rule.nodes @ frame.basis
    values = np.empty(zs.shape)
    for j, z in enumerate(zs):
        psi = math.asin(z)
        vals = f.evaluate(_old_points(frame.pole, lifted, psi))
        values[j] = math.cos(psi) ** (frame.dim - 2) * float(rule.weights @ vals)
    return slice_transforms._shaped(values, scalar)


def _outcome(fn, *args):
    # a value as its exact bytes and type, or the error it raised
    try:
        value = fn(*args)
    except ValueError as err:
        return "error", str(err)
    if isinstance(value, slice_transforms.DerivativeAtZero):
        return "slope", value.fd_steps, value.fd_value, value.transform_value
    return type(value).__name__, np.asarray(value).tobytes()


def _hyperplane_agrees(new, old):
    # outcomes of `_outcome`: errors and types agree exactly, hyperplane
    # values within 4e-15 relative, ladder and fd slopes within 5e-12
    # absolute and the transform side exactly
    if new[0] != old[0] or new[0] == "error":
        return new == old
    if new[0] == "slope":
        (hs, ests), (old_hs, old_ests) = (tuple(zip(*o[1])) for o in (new, old))
        return (hs == old_hs and new[3] == old[3]
                and np.allclose(ests + (new[2],), old_ests + (old[2],), rtol=0.0, atol=5e-12))
    got, want = np.frombuffer(new[1]), np.frombuffer(old[1])
    return bool(np.all(np.abs(got - want) <= 4e-15 * np.abs(want)))


def _kernel_cases(n):
    bodies = [body_ball(n, 1.1),
              body_shifted_ball(n, 1.0, np.linspace(0.25, -0.15, n)),
              body_ellipsoid(n, np.linspace(1.2, 0.9, n))]
    cases = [(body, _off_axis_frame(n)) for body in bodies]
    if n == 3:
        cases.append((body_harmonic_perturbed_ball(0.08, 3, 1), _off_axis_frame(n)))
        cases.append((_fold_body(), make_frame([0.0, 0.0, 1.0])))
    return cases


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_section_kernels_equal_the_replaced_formulas(n, monkeypatch):
    rule = equator_rule(n)
    for body, frame in _kernel_cases(n):
        f = to_scalar_field(body)
        heights = [_BATCH, 0.3, -0.45]
        if body.label == "fold":
            # folded cuts, alone and in a batch, raise in both
            heights += [0.26, np.array([-0.26, 0.1])]
            refusal = _outcome(hyperplane_section, body, frame, 0.26, rule)
            assert refusal[1].startswith("multiple boundary crossings"), refusal
        for z in heights:
            assert _hyperplane_agrees(_outcome(hyperplane_section, body, frame, z, rule),
                                      _outcome(_old_hyperplane_section, body, frame, z, rule)), (
                body.label, z)
            assert (_outcome(slice_integral, f, frame, z, rule)
                    == _outcome(_old_slice_integral, f, frame, z, rule)), (body.label, z)
            assert (_outcome(conical_section, body, frame, z, rule)
                    == _outcome(_old_slice_integral, f, frame, z, rule)), (body.label, z)
        slopes = [_outcome(derivative_at_zero, kind, body, frame, rule)
                  for kind in ("conical", "hyperplane")]
        with monkeypatch.context() as patch:
            patch.setattr(slice_transforms, "slice_integral", _old_slice_integral)
            patch.setattr(slice_transforms, "hyperplane_section", _old_hyperplane_section)
            old = [_outcome(derivative_at_zero, kind, body, frame, rule)
                   for kind in ("conical", "hyperplane")]
        assert slopes[0] == old[0], body.label
        assert _hyperplane_agrees(slopes[1], old[1]), body.label


def _synthetic_columns(count, seed=5):
    # 64-row columns of every shape the scan meets, by name
    rng = np.random.default_rng(seed)
    x = np.linspace(0.0, 1.0, 64)[:, None]
    rising = np.sort(rng.uniform(-1.0, 1.0, (64, count)), axis=0)
    # rising but for one fall of 1e-9 just past the height 0.1
    nick = np.repeat(np.linspace(-1.0, 1.0, 64)[:, None], count, axis=1)
    nick[35], nick[36] = 0.1, 0.1 - 1e-9
    return {
        "rising": rising,
        "ties": np.round(rising, 1),
        "below": rng.uniform(-3.0, -2.0, (64, count)),
        "above": rng.uniform(2.0, 3.0, (64, count)),
        "dip": 2.0 * x - 1.0 - 0.8 * np.exp(-((x - rng.uniform(0.3, 0.7, count)) / 0.1) ** 2),
        "rise_fall": 4.0 * x * (1.0 - x) * rng.uniform(0.5, 1.5, count) - 0.5,
        "flat": np.full((64, count), 0.3),
        "nick": nick,
    }


def test_crossings_equal_the_per_height_scan():
    columns = _synthetic_columns(40)
    # heights on grid values (ties at z), the flat column's value, and
    # heights above and below every column
    zs = np.array([-3.5, -0.5, -0.2, 0.0, 0.1, 0.3, 0.6, 3.5,
                   columns["rising"][20, 3], columns["ties"][40, 7]])
    mixed = np.concatenate(list(columns.values()), axis=1)
    tables = dict(columns, mixed=mixed,
                  shuffled=mixed[:, np.random.default_rng(1).permutation(mixed.shape[1])])
    for name, table in tables.items():
        for heights in (zs, zs[:1], zs[5:6]):
            new_firsts, new_missed, new_multiple = slice_transforms._crossings(table, heights)
            old_firsts, old_missed, old_multiple = _old_crossings(table, heights)
            assert new_firsts.dtype == np.uint8
            assert np.array_equal(new_firsts, old_firsts), (name, heights)
            assert (new_missed, new_multiple) == (old_missed, old_multiple), (name, heights)
    # the flags the scan raises on: rising columns cross once between
    # their ends, a dip or a rise and fall more than once
    assert _old_crossings(columns["rising"], np.array([0.0]))[1:] == (False, False)
    assert _old_crossings(columns["below"], np.array([0.0]))[1:] == (True, False)
    assert _old_crossings(columns["dip"], np.array([0.0]))[2] is True
    assert _old_crossings(columns["rise_fall"], np.array([0.0]))[2] is True
    assert _old_crossings(columns["nick"], np.array([0.1]))[2] is True
