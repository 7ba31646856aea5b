"""Section curves, the equatorial transform, and their slope agreement."""

import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from starsym import (
    EquatorQuadrature,
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
from starsym import slice_transforms, sphere_geom


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


def test_richardson_limit_names_an_empty_ladder():
    with pytest.raises(ValueError, match="the Richardson ladder is empty"):
        richardson_limit([])


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
    # the default rule at every n: the meridian scan about the foot point
    # stopped near 1e-8 at n = 6 on this body
    a = np.linspace(1.2, 0.9, n)
    body = body_ellipsoid(n, a)
    frame = _off_axis_frame(n)
    rule = equator_rule(n)
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
    # the body's evaluate calls, each recorded as its number of points
    calls = []

    def evaluate(u):
        calls.append(len(u))
        return body.evaluate(u)

    counted = replace(body, evaluate=evaluate)
    calls.clear()
    return counted, calls


def _points_per_height(n, rule):
    # a cut's budget of evaluated points: rho(+-xi), then up to 12
    # evaluations per ray on the first centroid pass, on the second over
    # the fit rule and on the r // 4 and r // 2 rungs, and up to 4 on the
    # caller's rule if the rungs disagree; at n = 2 the caller's rule
    # alone, up to 12
    if n == 2:
        return 2 + 12 * rule.size
    first, fit = (slice_transforms.sphere_rule(n - 1, r).size
                  for r in (slice_transforms._FIRST_RESOLUTION, slice_transforms._FIT_RESOLUTION))
    rungs = sum(r.size for r in sphere_geom._rungs(rule)[:-1])
    return 2 + 12 * (first + fit + rungs) + 4 * rule.size


# the budget of the default rules when both centroid passes took the fit rule
_BOTH_PASSES_ON_THE_FIT_RULE = {3: 6850, 4: 16642, 5: 49666, 6: 51586}


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_hyperplane_section_evaluation_budget(n):
    # evaluated points, where the meridian scan of 64 rows per side took
    # 135 170 at n = 4 and 540 674 at n = 5, 6 for one height
    bodies = (body_ball(n, 1.1),
              body_shifted_ball(n, 1.0, np.linspace(0.25, -0.15, n)),
              body_ellipsoid(n, np.linspace(1.2, 0.9, n)),
              body_ellipsoid(n, np.linspace(0.8, 1.5, n)))
    frame = _off_axis_frame(n)
    rule = equator_rule(n)
    budget = _points_per_height(n, rule)
    assert budget < {2: 134, 3: 33794, 4: 135170, 5: 540674, 6: 540674}[n]
    assert n == 2 or budget < _BOTH_PASSES_ON_THE_FIT_RULE[n]
    for body in bodies:
        counted, calls = _count_evaluations(body)
        for z in _HEIGHTS:
            calls.clear()
            value = hyperplane_section(counted, frame, z, rule)
            assert value == hyperplane_section(body, frame, z, rule)
            assert sum(calls) <= budget, (body.label, z, sum(calls))


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
def test_slice_integral_refills_one_point_buffer(n):
    # every height's points reach the field in one (N, n) buffer, with the
    # bits of embed's points
    frame, rule = _off_axis_frame(n), equator_rule(n)
    f = to_scalar_field(body_ellipsoid(n, np.linspace(0.8, 1.5, n)))
    seen, copies = [], []

    def evaluate(u):
        seen.append(u)  # kept alive, so a fresh array per height is a new one
        copies.append(u.copy())
        return f.evaluate(u)

    values = slice_integral(replace(f, evaluate=evaluate), frame, _BATCH, rule)
    assert np.array_equal(values, slice_integral(f, frame, _BATCH, rule))
    assert len(seen) == _BATCH.size
    assert all(np.shares_memory(u, seen[0]) for u in seen)
    for points, z in zip(copies, _BATCH):
        assert np.array_equal(points, sphere_geom.embed(frame, rule.nodes, math.asin(z)))


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_section_curve_and_ladder_evaluation_budget(n):
    # evaluated points of a curve and of its slope ladder, each within the
    # budget of its nonzero heights, plus the equator radii when z = 0 is
    # on the grid; the meridian scans took 387 074 to 428 034 points per
    # curve at n = 4 and 1.5-1.7 million at n = 5, 6
    grid = -0.8 + 0.1 * np.arange(17)
    frame = _off_axis_frame(n)
    rule = equator_rule(n)
    budget = _points_per_height(n, rule)
    assert n == 2 or budget < _BOTH_PASSES_ON_THE_FIT_RULE[n]
    for body in _budget_bodies(n):
        rho_min = float(body.evaluate(rule.nodes @ frame.basis).min())
        zs = grid[np.abs(grid) < rho_min]
        counted, calls = _count_evaluations(body)
        curve = section_curve("hyperplane", counted, frame, zs, rule)
        assert np.array_equal(curve.values, hyperplane_section(body, frame, zs, rule))
        assert sum(calls) <= budget * np.count_nonzero(zs) + rule.size, (body.label, sum(calls))
        assert max(calls) <= slice_transforms._GROUP_POINTS
        assert sum(calls) < {2: 400, 3: 101890, 4: 387074, 5: 1548290, 6: 1548290}[n]
        calls.clear()
        derivative_at_zero("hyperplane", counted, frame, rule)
        # eight ladder heights, and rho once per node on the transform side
        assert sum(calls) <= budget * 8 + rule.size, (body.label, sum(calls))
        assert sum(calls) < {2: 308, 3: 78338, 4: 313346, 5: 1204226, 6: 1204226}[n]


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_bodies_not_declared_convex_share_one_scan_per_side(n):
    # a body not declared convex is probed by one 64-row scan per side,
    # shared by every height on that side, and then takes at most 8
    # evaluations per node for each height's root, plus rho(+-xi) and the
    # z = 0 cut: a curve or a slope ladder costs what the meridian scan
    # did, where a scan per height would cost 64 rows for each height
    grid = -0.8 + 0.1 * np.arange(17)
    ladder = 1e-2 * 2.0 ** -np.arange(4)
    frame = _off_axis_frame(n)
    rule = equator_rule(n)
    for body in _budget_bodies(n):
        body = replace(body, convex=False)
        rho_min = float(body.evaluate(rule.nodes @ frame.basis).min())
        for zs in (grid[np.abs(grid) < rho_min], np.concatenate([-ladder, ladder]) * rho_min):
            counted, calls = _count_evaluations(body)
            got = hyperplane_section(counted, frame, zs, rule)
            assert np.array_equal(got, hyperplane_section(body, frame, zs, rule))
            nonzero = np.count_nonzero(zs)
            budget = 2 + rule.size * (2 * 64 + 8 * nonzero + (nonzero < zs.size))
            assert sum(calls) <= budget, (body.label, sum(calls))
            assert max(calls) <= slice_transforms._GROUP_POINTS


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
    root = slice_transforms._illinois(counted, a, b, g(a), g(b))
    assert root.shape == (1,)
    return len(calls), root[0]


def test_illinois_stops_on_exact_zero():
    # the bracket closes on the zero, and the read-off of two equal end
    # values is its midpoint
    calls, root = _run_illinois(lambda x: x - 0.5, 0.0, 1.0)
    assert calls == 1
    assert root == 0.5


def test_illinois_closes_bracket_when_an_end_sits_on_the_root():
    # every false-position point rounds onto a = 0.25, where g is -1e-18;
    # one step half the target width inside closes the bracket, and the
    # secant through its ends reads off 0.25 + 1e-18, which rounds to 0.25
    calls, root = _run_illinois(lambda x: x - 0.25 - 1e-18, 0.25, 0.75)
    assert calls == 1
    assert root == 0.25


def test_illinois_halving_beats_plain_false_position():
    # plain regula falsi keeps the end b = 1 and needs about 25 steps here
    calls, root = _run_illinois(lambda x: x ** 10 - 0.5, 0.0, 1.0)
    assert calls <= 16
    assert abs(root - 0.5 ** 0.1) <= 1e-12


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


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_hyperplane_section_at_zero_is_the_conical_section(n):
    # the flat cut and the cone through z = 0 are one set, so their
    # values are one number, bit for bit, at every n
    rule = equator_rule(n)
    frame = _off_axis_frame(n)
    for body in (body_ball(n, 1.3), body_shifted_ball(n, 1.0, np.linspace(0.25, -0.15, n)),
                 body_ellipsoid(n, np.linspace(1.2, 0.9, n))):
        assert (hyperplane_section(body, frame, 0.0, rule)
                == conical_section(body, frame, 0.0, rule)), body.label


def test_spike_past_the_probe_maximum_is_cut():
    # rho = 1 + 0.5 exp(-|u - u0|^2 / 0.02^2) peaks at 1.5 between the
    # probe grid's points, whose maximum is 1.054: bounds inflated from
    # the probes made the cut at 1.2 read as empty.  Undeclared bounds are
    # refused by name, and the declared ones give the cut's area, which a
    # polar bisection in the cut plane checks
    u0 = np.array([0.3, -0.2, 0.9]) / math.sqrt(0.94)

    def spike(u):
        u = np.asarray(u, dtype=float)
        return 1.0 + 0.5 * np.exp(-np.sum((u - u0) ** 2, axis=-1) / 0.02 ** 2)

    with pytest.raises(ValueError, match="^radius_bound must be declared"):
        RadialField(dim=3, evaluate=spike)
    with pytest.raises(ValueError, match="^radius_floor must be declared"):
        RadialField(dim=3, evaluate=spike, radius_bound=1.5)
    body = RadialField(dim=3, evaluate=spike, radius_bound=1.5, radius_floor=1.0)
    frame = make_frame(u0)
    got = hyperplane_section(body, frame, 1.2, equator_rule(3))
    angles = np.arange(720) * (2.0 * math.pi / 720)
    rays = np.cos(angles)[:, None] * frame.basis[0] + np.sin(angles)[:, None] * frame.basis[1]
    lo, hi = np.zeros(720), np.full(720, 0.1)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        x = 1.2 * u0 + mid[:, None] * rays
        r = np.linalg.norm(x, axis=1)
        inside = r <= spike(x / r[:, None])
        lo, hi = np.where(inside, mid, lo), np.where(inside, hi, mid)
    want = 0.5 * float(np.sum(lo ** 2)) * (2.0 * math.pi / 720)
    assert want > 1e-3
    assert got == pytest.approx(want, rel=1e-12)
    # a radius_bound declared below the spike passes the probe grid; the
    # cut above it read 0.0, and now rho(xi) refutes the bound by name
    low = RadialField(dim=3, evaluate=spike, radius_bound=1.06, radius_floor=1.0)
    for z in (1.2, np.array([0.5, 1.2])):
        with pytest.raises(ValueError, match=r"^rho\(xi\) = 1\.5 and rho\(-xi\) = 1 exceed "
                                             r"the declared radius_bound = 1\.06$"):
            hyperplane_section(low, frame, z, equator_rule(3))


def test_refusal_above_the_summit_found_names_the_search():
    # the spike rho = 1 + 0.5 exp(-|u - e_3|^2 / 0.02^2) rises to height
    # 1.477 along a pole 10 degrees from e_3, so the cuts at 1.02 and 1.2
    # are not empty; the compass search from that pole finds only the unit
    # sphere around it, and the refusal names the failed search, not a
    # cut that misses the body
    e3 = np.array([0.0, 0.0, 1.0])

    def spike(u):
        u = np.asarray(u, dtype=float)
        return 1.0 + 0.5 * np.exp(-np.sum((u - e3) ** 2, axis=-1) / 0.02 ** 2)

    body = RadialField(dim=3, evaluate=spike, radius_bound=1.5, radius_floor=1.0)
    assert not body.convex
    frame = make_frame([math.sin(math.radians(10.0)), 0.0, math.cos(math.radians(10.0))])
    assert float(spike(e3[None])[0]) * (e3 @ frame.pole) > 1.47
    for z, cut in ((1.02, "1\\.02"), (1.2, "1\\.2"), (np.array([0.5, 1.2]), "1\\.2")):
        with pytest.raises(ValueError, match=rf"^the cut at z = {cut} is refused: rho\(xi\) = 1, "
                                             r"rho\(-xi\) = 1, and the compass search found no "
                                             r"boundary point above height 1 on its side, but a "
                                             r"peak too narrow for the search may still reach "
                                             r"the cut$"):
            hyperplane_section(body, frame, z, equator_rule(3))


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
    # a batch of only such heights costs one 2-point evaluate call, which
    # checks rho(+-xi) against radius_bound, and in a mixed batch they take
    # no part in the other heights' solves
    counted, calls = _count_evaluations(body)
    assert np.array_equal(hyperplane_section(counted, frame, np.array([-1.5, 1.0]), _rule(3)),
                          [0.0, 0.0])
    assert calls == [2]
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
    # supports 1 + s and 1 - s, s = 0.05: both sides start from the
    # point where the ray through their summit meets the cut, and match
    # omega_{n-1} (1 - (z - s)^2)^{(n-1)/2} as closely as the foot-point
    # cuts of this body do
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
    assert np.max(error[zs != 0.0]) <= 1e-13, n
    # the flat cut at z = 0 is conical_section's value, 5.3e-8 off at n = 6
    assert error[zs == 0.0][0] <= (1e-7 if n == 6 else 1e-13), n
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


def _ray_volumes(body, frame, rule, e, size, u):
    # the cut volumes sum_i w_i r_i^(n-1) / (n-1) along plane rays about
    # the points where the ray through u meets the cut planes at heights
    # size along e: `_solve`'s under the identity map on a convex body,
    # and `_scan`'s on one not declared convex.  `_solve` takes the cuts'
    # signed heights z / radius_bound along xi, negative for e = -xi
    n = frame.dim
    if not body.convex:
        radii = slice_transforms._scan(body, rule.nodes @ frame.basis, e, u, size)
        return np.array([rule.weights @ r ** (n - 1) / (n - 1) for r in radii])
    offsets = np.outer(size / body.radius_bound, frame.basis @ u / (u @ e))
    cuts = SimpleNamespace(heights=(e @ frame.pole) * size / body.radius_bound,
                           offsets=offsets, maps=np.tile(np.eye(n - 1), (size.size, 1, 1)),
                           fit=None)
    volumes = np.empty(size.size)
    for js, _, w, t in slice_transforms._solve(body, frame, cuts, np.arange(size.size), rule):
        for j, wj, tj in zip(js, w, t):
            volumes[j] = wj @ (body.radius_bound * tj) ** (n - 1) / (n - 1)
    return volumes


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_foot_point_solve_is_the_summit_solve_with_u_at_the_pole(n):
    # cuts whose foot points lie inside the body, solved along plane rays
    # about the point where the ray through the summit u meets them, which
    # is far from the pole, and about the foot point (u = e): two centres,
    # one volume.  They differ only by the rule's error on each profile,
    # which the default n = 6 rule leaves near 2e-13 on this ball, so n = 6
    # takes resolution 20; a convex body brackets each ray by its radius
    # bounds, one not declared convex by the shared scan
    body = body_shifted_ball(n, 1.0, np.linspace(0.25, -0.15, n))
    frame = _off_axis_frame(n)
    rule = equator_rule(n, 20 if n == 6 else None)
    size = np.array([0.1, 0.3, 0.5])
    for e in (frame.pole, -frame.pole):
        assert np.all(size < body.evaluate(e[None])[0])
        u, _ = slice_transforms._summit(body, e, frame.basis)
        assert u @ e < 0.99
        for convex in (True, False):
            shape = replace(body, convex=convex)
            foot = _ray_volumes(shape, frame, rule, e, size, e)
            about = _ray_volumes(shape, frame, rule, e, size, u)
            assert np.all(np.abs(about - foot) <= 1e-13 * foot), n


def _rule_sizes(monkeypatch):
    # the rule size of every `_solve` call, in order
    sizes = []
    solve = slice_transforms._solve

    def recorded(body, frame, cuts, index, rule):
        sizes.extend([rule.size] * len(index))
        return solve(body, frame, cuts, index, rule)

    monkeypatch.setattr(slice_transforms, "_solve", recorded)
    return sizes


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_rungs_are_never_finer_than_the_callers_rule(n, monkeypatch):
    # each cut is fitted on the resolution-6 rule, then on the resolution-8
    # rule, then solved on the r // 4 and r // 2 rungs of the caller's rule
    # and on that rule only if they disagree; a rule too coarse for rungs,
    # or not sphere_rule's own, is used alone
    sizes = _rule_sizes(monkeypatch)
    frame = _off_axis_frame(n)
    body = body_ellipsoid(n, np.linspace(1.2, 0.9, n))
    first, fit = (slice_transforms.sphere_rule(n - 1, r).size for r in (6, 8))
    for resolution in (2, 4, 6, 8, 12, None):
        rule = equator_rule(n, resolution)
        own = EquatorQuadrature(nodes=rule.nodes, weights=rule.weights, degree=rule.degree,
                                resolution=rule.resolution)
        for caller in (rule, own):
            sizes.clear()
            hyperplane_section(body, frame, np.array([-0.4, 0.3]), caller)
            rungs = sizes[4:]
            assert sizes[:4] == [first, first, fit, fit]
            assert max(rungs) <= caller.size
            if caller.resolution // 4 < 2:
                assert rungs == [caller.size] * 2
            else:
                coarse = [equator_rule(n, caller.resolution // k).size for k in (4, 2)]
                assert rungs[:4] == [coarse[0]] * 2 + [coarse[1]] * 2
                assert set(rungs[4:]) <= {caller.size}
    # a rule built by hand with sphere_rule's nodes is its family too, and
    # one whose weights differ is used alone
    rule = equator_rule(n)
    changed = EquatorQuadrature(nodes=rule.nodes, weights=rule.weights * 1.0000001,
                                degree=rule.degree, resolution=rule.resolution)
    sizes.clear()
    hyperplane_section(body, frame, 0.3, changed)
    assert sizes == [first, fit, rule.size]
    # as is one whose declared resolution sphere_rule would refuse
    past_cap = EquatorQuadrature(nodes=rule.nodes, weights=rule.weights, degree=rule.degree,
                                 resolution=10 ** 6)
    sizes.clear()
    hyperplane_section(body, frame, 0.3, past_cap)
    assert sizes == [first, fit, rule.size]
    # a rule's size is checked before sphere_rule is asked for its declared
    # resolution: a few nodes declaring resolution 64 (2 097 152 nodes at
    # n = 6) build no rule of that resolution, and ask for no rule at all;
    # a family rule's walk asks for the rule itself, then its r // 2 and
    # r // 4 rungs
    few, family = equator_rule(n, 4), equator_rule(n, 16)
    asked, build = [], sphere_geom.sphere_rule
    monkeypatch.setattr(sphere_geom, "sphere_rule", lambda d, r: asked.append(r) or build(d, r))
    declared = EquatorQuadrature(nodes=few.nodes, weights=few.weights, degree=few.degree,
                                 resolution=64)
    sizes.clear()
    hyperplane_section(body, frame, 0.3, declared)
    assert sizes == [first, fit, few.size] and asked == []
    hyperplane_section(body, frame, 0.3, family)
    assert asked == [16, 8, 4]


@pytest.mark.parametrize("n", [4, 5, 6])
def test_first_pass_rule_identifies_the_quadric(n):
    # the quadric y^T A y + b^T y = 1 of a cut has m (m + 3) / 2 coefficients,
    # m = n - 1.  The boundary points along the nodes of the first pass's
    # resolution-6 rule (18, 54, 162 nodes) identify all of them, and the
    # fit's design matrix is well conditioned there; on the circles of
    # resolutions 4 and 5 its cross terms are left unfitted
    assert slice_transforms._FIRST_RESOLUTION == 6
    frame = _off_axis_frame(n)
    m = n - 1
    i, j = np.triu_indices(m)
    for body in (body_ellipsoid(n, np.linspace(1.2, 0.9, n)),
                 body_shifted_ball(n, 1.0, np.linspace(0.25, -0.15, n))):
        cuts = SimpleNamespace(heights=np.array([0.3 / body.radius_bound]),
                               offsets=np.zeros((1, m)), maps=np.eye(m)[None], fit=None)
        ranks = {}
        for resolution in (4, 5, 6):
            rule = slice_transforms.sphere_rule(m, resolution)
            (_, theta, _, t), = slice_transforms._solve(body, frame, cuts, np.arange(1), rule)
            y = theta[0] * t[0][:, None]
            terms = np.concatenate([y[:, i] * y[:, j], y], axis=1)
            ranks[resolution] = np.linalg.matrix_rank(terms)
        full = m * (m + 3) // 2
        assert full == {4: 9, 5: 14, 6: 20}[n]
        assert ranks == {4: {4: 7, 5: 8, 6: 9}, 5: {4: 11, 5: 12, 6: 14},
                         6: {4: 16, 5: 17, 6: 20}}[n], (n, body.label)
        assert np.linalg.cond(terms) < 10.0, (n, body.label)


def _superellipsoid(n, convex):
    # the centred superellipsoid rho = (sum_i (u_i / a_i)^4)^(-1/4), whose
    # cuts are not quadrics: convex, and declared so only when asked
    a = np.linspace(1.2, 0.8, n)

    def evaluate(u):
        return np.sum((np.asarray(u, dtype=float) / a) ** 4, axis=-1) ** -0.25

    return RadialField(dim=n, evaluate=evaluate, radius_bound=1.2 * n ** 0.25,
                       radius_floor=0.8, label="superellipsoid", convex=convex)


@pytest.mark.parametrize("convex", [True, False])
def test_non_quadric_cut_climbs_to_the_callers_rule(convex, monkeypatch):
    # no fitted quadric makes these cuts exact, so the rungs disagree and
    # every off-axis cut is solved on the caller's n = 5 rule, where it is
    # closer to the value on a finer rule (27 648 nodes) than a solve about
    # the foot point: 2.9e-7 against 1.9e-6.  Not declared convex, the body
    # is scanned about its foot points, once per side, on the caller's rule
    # alone, with no `_solve` call, and keeps that 1.9e-6
    n = 5
    frame = _off_axis_frame(n)
    zs = np.array([-0.6, -0.3, 0.2, 0.5])
    sizes = _rule_sizes(monkeypatch)
    rule = equator_rule(n)
    got = hyperplane_section(_superellipsoid(n, convex), frame, zs, rule)
    assert sizes.count(rule.size) == (zs.size if convex else 0)
    assert convex or sizes == []
    fine = hyperplane_section(_superellipsoid(n, True), frame, zs, equator_rule(n, 48))
    assert np.max(np.abs(got - fine)) <= (5e-7 if convex else 2e-6)
    # and the cut is no quadric in disguise: those read at rounding
    assert np.max(np.abs(got - fine)) >= 1e-9


def test_cut_star_shaped_about_its_foot_point_only_is_solved_there():
    # a shifted ball notched along e_1 and e_2: near z = 0 its cut about
    # e_3 is star-shaped about the foot point, at the notches' apex, but
    # not about its centroid, which lies off both notch axes, so rays from
    # there cross a notch wall twice.  A body not declared convex is solved
    # about its foot points, and the cut's area matches an 8192-node rule
    c = np.array([-0.3, -0.3, 0.0])

    def evaluate(u):
        u = np.asarray(u, dtype=float)
        cu = u @ c
        dents = sum(np.exp(-np.sum((u - a) ** 2, axis=-1) / 0.01) for a in np.eye(3)[:2])
        return (cu + np.sqrt(1.0 - c @ c + cu * cu)) * (1.0 - 0.5 * dents)

    body = RadialField(dim=3, evaluate=evaluate, radius_bound=1.43, radius_floor=0.25,
                       label="notched")
    frame = make_frame([0.0, 0.0, 1.0])
    zs = np.array([-0.02, 0.02])
    got = hyperplane_section(body, frame, zs, equator_rule(3))
    fine = hyperplane_section(body, frame, zs, equator_rule(3, 8192))
    assert np.all(np.abs(got - fine) <= 1e-14 * fine)


def test_rule_frame_dimension_mismatch_rejected():
    body = body_ball(3, 1.0)
    with pytest.raises(ValueError):
        conical_section(body, make_frame([0.0, 0.0, 1.0]), 0.2, equator_rule(2))


def test_rule_dimension_is_read_off_its_nodes():
    # a rule's sphere dimension is its nodes' column count, not a separate
    # field that may disagree with them: the n = 4 rule's 3-column nodes
    # are refused on a 3-d frame by the dimension check, before numpy
    # meets the mismatched shapes
    n4 = equator_rule(4, 8)
    with pytest.raises(TypeError):
        EquatorQuadrature(sphere_dim=2, nodes=n4.nodes, weights=n4.weights,
                          degree=n4.degree, resolution=8)
    rule = EquatorQuadrature(nodes=n4.nodes, weights=n4.weights, degree=n4.degree,
                             resolution=8)
    assert rule.sphere_dim == 3
    f = to_scalar_field(body_ball(3, 1.0))
    with pytest.raises(ValueError, match="quadrature rule dimension does not match the frame"):
        equator_transform(f, make_frame([0.0, 0.6, 0.8]), rule)


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
    # meridians three times.  rho runs from 1 (u_z = 0) down to its
    # minimum 1 - 2.2^2 / 7.2 = 0.3278 (u_z^2 = 11 / 18)
    def ev(u):
        t = np.asarray(u, dtype=float)[..., 2] ** 2
        return 1.0 - 2.2 * t + 1.8 * t * t

    return RadialField(dim=3, evaluate=ev, radius_bound=1.0, radius_floor=0.32,
                       label="fold")


def test_folded_bodies_declared_convex_are_refused():
    # a convexity declaration skips the multi-crossing probe, so it is
    # checked where the body is built: the midpoint of two boundary points
    # of the construction's random pairs falls outside each of these
    for body in (_fold_body(), _pinched_body()):
        with pytest.raises(ValueError, match="^declared convex=True contradicted"):
            replace(body, convex=True)


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
    # above the summit found the cut is refused, before any scan
    counted, calls = _count_evaluations(body)
    with pytest.raises(ValueError, match=r"the cut at z = 0\.25 is refused: rho\(xi\) = "
                                         r"0\.22313, rho\(-xi\) = 4\.48169, and the compass "
                                         r"search found no boundary point above height "
                                         r"0\.245253 on its side"):
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
    # an oblate one is convex, so its summit 0.5 is its support and the
    # cut at 0.6 is empty, although 0.6 is below its equator radius 1.1;
    # without the declaration the summit certifies nothing, and the cut
    # is refused
    oblate = body_ellipsoid(3, (1.2, 1.1, 0.5))
    assert hyperplane_section(oblate, frame, 0.6, equator_rule(3)) == 0.0
    got = hyperplane_section(oblate, frame, np.array([-0.6, -0.5, 0.3, 0.5, 0.6]),
                             equator_rule(3))
    assert got[[0, 1, 3, 4]].tolist() == [0.0] * 4
    assert got[2] == pytest.approx(math.pi * 1.2 * 1.1 * (1.0 - 0.3 ** 2 / 0.25), rel=1e-13)
    with pytest.raises(ValueError, match="rho\\(xi\\) = 0.5"):
        hyperplane_section(replace(oblate, convex=False), frame, 0.6, equator_rule(3))


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_hyperplane_scan_spans_the_latitudes_the_bounds_allow(n, monkeypatch):
    # a body not declared convex is probed by one scan per side and start
    # point u (u = e for foot points).  Along node theta's arc cos(psi)
    # theta + sin(psi) v to u, every crossing of rise sin(psi) rho = |z|
    # lies in [asin(|z| / (bound rise)), asin(|z| / (floor rise))], or in
    # its mirror past pi / 2 if the arc reaches it: each node's 64 rows
    # strictly contain those intervals for the scan's heights up to the
    # arc's end at u, never pass u (to rounding), and on a capped arc stay
    # inside [0, asin(max |z| / floor) + 0.1].  The rows are read back off
    # the first points the scan evaluates
    scans = []
    scan = slice_transforms._scan

    def recorded_scan(body, lifted, e, u, size):
        rows = []

        def evaluate(x):
            rows.append(x.reshape(-1, len(lifted), x.shape[1]))
            return body.evaluate(x)

        scans.append((body, lifted, e, u, size, rows))
        counted = SimpleNamespace(evaluate=evaluate, radius_bound=body.radius_bound,
                                  radius_floor=body.radius_floor)
        return scan(counted, lifted, e, u, size)

    monkeypatch.setattr(slice_transforms, "_scan", recorded_scan)
    frame = _off_axis_frame(n)
    for body in _budget_bodies(n):
        body = replace(body, convex=False)
        assert np.all(hyperplane_section(body, frame, _BATCH, equator_rule(n)) > 0.0)
        hyperplane_section(body, frame, 0.3, equator_rule(n))
    # this ball's heights 0.7 and 0.9 pass rho(+-xi) on both sides, so
    # they are scanned about the summits' rays, and +-0.3 about their foot
    # points (see test_hyperplane_section_with_foot_points_outside)
    offset = body_shifted_ball(n, 1.0, 0.8 * frame.basis[0] + 0.05 * frame.pole)
    hyperplane_section(replace(offset, convex=False), frame,
                       np.array([-0.9, -0.7, -0.3, 0.3, 0.7, 0.9]), equator_rule(n))
    assert len(scans) == 16
    assert sum(u is not e for _, _, e, u, _, _ in scans) == 2
    for body, lifted, e, u, size, rows in scans:
        x = np.concatenate(rows)[:slice_transforms._SCAN_POINTS]  # then Illinois steps
        along = np.sum(x * lifted, axis=2)
        psi = np.arctan2(np.linalg.norm(x - along[..., None] * lifted, axis=2), along)
        assert psi.shape == (slice_transforms._SCAN_POINTS, len(lifted))
        assert np.all(size > 0.0) and np.all(np.diff(psi, axis=0) > 0.0)
        c = 0.0 if u is e else lifted @ u
        normal = np.sqrt(1.0 - c * c)
        rise, end = (u @ e) / normal, np.arctan2(normal, c)
        top = np.arcsin(np.minimum(1.0, size.max() / (body.radius_floor * rise)))
        lo, hi = psi[0], psi[-1]
        assert np.all((0.0 < lo) & (lo < np.arcsin(size.min() / (body.radius_bound * rise))))
        # the last row, lo + (end - lo), lands on u's latitude to the
        # rounding of its points
        at_u = np.abs(hi - end) <= 2e-15 * end
        assert np.all((np.minimum(end, top) < hi) | at_u)
        assert np.all((hi < end) | at_u)
        assert np.all((hi <= top + 0.1) | (end >= np.pi - top))


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_ray_brackets_span_the_radii_the_bounds_allow(n, monkeypatch):
    # on a convex body's plane ray x = (c, p + t theta), in units of
    # radius_bound, every crossing has radius_floor <= |x| <= radius_bound,
    # so the bracket runs from where |x| reaches radius_floor (1 - 1e-3),
    # or from t = 0 where the ray starts beyond it, up to |x| = 1 + 1e-3.
    # Each group of a `_solve` call takes one bracket, paired here with the
    # |heights| (they are signed along xi), start points and ray directions
    # that the group yields
    brackets, groups = [], []
    ray_bracket, solve = slice_transforms._ray_bracket, slice_transforms._solve

    def recorded_bracket(along, rest, floor):
        lo, hi = ray_bracket(along, rest, floor)
        brackets.append((floor, lo, hi))
        return lo, hi

    def recorded_solve(body, frame, cuts, index, rule):
        for js, theta, w, t in solve(body, frame, cuts, index, rule):
            groups.append((np.abs(cuts.heights[js]), cuts.offsets[js].copy(), theta))
            yield js, theta, w, t

    monkeypatch.setattr(slice_transforms, "_ray_bracket", recorded_bracket)
    monkeypatch.setattr(slice_transforms, "_solve", recorded_solve)
    frame = _off_axis_frame(n)
    bodies = list(_budget_bodies(n))
    # both sides of this ball have foot points outside it
    bodies.append(body_shifted_ball(n, 1.0, 0.8 * frame.basis[0] + 0.05 * frame.pole))
    for body in bodies:
        brackets.clear()
        groups.clear()
        hyperplane_section(body, frame, np.array([-0.9, -0.7, -0.3, -0.1, 0.2, 0.7, 0.9]),
                           equator_rule(n))
        assert brackets and len(brackets) == len(groups)
        floor = body.radius_floor / body.radius_bound * (1.0 - 1e-3)
        for (level, lo, hi), (heights, p, theta) in zip(brackets, groups):
            assert level == floor and np.all(heights > 0.0)
            assert lo.shape == hi.shape == theta.shape[:2]

            def reach(t):
                x = p[:, None, :] + t[..., None] * theta
                return np.sqrt(heights[:, None] ** 2 + np.sum(x * x, axis=2))

            assert np.all(lo < hi)
            assert np.allclose(reach(hi), 1.0 + 1e-3, rtol=1e-14, atol=0.0)
            inner = lo > 0.0
            assert np.allclose(reach(lo)[inner], floor, rtol=1e-13, atol=0.0)
            assert np.all(reach(lo)[~inner] >= floor * (1.0 - 1e-13))


def test_hyperplane_section_names_broken_radius_bounds():
    # the latitude scan spans only the latitudes the radius bounds allow, so
    # a radius_floor above the true minimum 0.8 leaves the meridians where
    # rho < 0.95 without a crossing at z = 0.5, and the error says so; the
    # ray brackets of the convex solver are refused the same way
    convex = body_ellipsoid(3, (1.2, 1.0, 0.8))
    frame = make_frame([0.0, 0.0, 1.0])
    for body in (convex, replace(convex, convex=False)):
        object.__setattr__(body, "radius_floor", 0.95)
        for z in (0.5, -0.5, np.array([-0.5, 0.2, 0.5])):
            with pytest.raises(ValueError, match=r"radius_floor = 0\.95 and radius_bound = 1\.2 "
                                                 r"do not bound rho"):
                hyperplane_section(body, frame, z, _rule(3))
        # a floor of 0 bounds nothing, so the scan reaches up to the pole
        object.__setattr__(body, "radius_floor", 0.0)
        got = hyperplane_section(body, frame, np.array([-0.5, 0.5]), _rule(3))
        assert np.allclose(got, math.pi * 1.2 * (1.0 - 0.25 / 0.64), rtol=1e-12, atol=0.0)


def _missed_predictions(monkeypatch):
    # every fitted root prediction made to miss: the quadratic part of each
    # fit, not its map, is scaled by 4, which halves the predicted radius.
    # Returns the (bracket, Illinois start) pairs of every `_solve` group
    # that had a prediction
    fit, bracket, illinois = (slice_transforms._quadric_fit, slice_transforms._ray_bracket,
                              slice_transforms._illinois)
    starts, pairs = [], []

    def scaled(theta, t, shift):
        maps, residual, quad, lin = fit(theta, t, shift)
        return maps, residual, 4.0 * quad, lin

    def recorded_bracket(along, rest, floor):
        starts.append(bracket(along, rest, floor))
        return starts[-1]

    def recorded_illinois(g, a, b, ga, gb):
        pairs.append((starts.pop(), a, b))
        return illinois(g, a, b, ga, gb)

    monkeypatch.setattr(slice_transforms, "_quadric_fit", scaled)
    monkeypatch.setattr(slice_transforms, "_ray_bracket", recorded_bracket)
    monkeypatch.setattr(slice_transforms, "_illinois", recorded_illinois)
    return pairs


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_missed_predictions_fall_back_to_the_bounds_bracket(n, monkeypatch):
    # a group where a prediction misses its root puts those rays back on
    # the radius bounds' bracket and evaluates every ray again; with every
    # prediction missed, each Illinois run starts from the bounds' brackets
    # and the values stay within 1e-14 of the solve whose predictions hold
    frame = _off_axis_frame(n)
    for body in _budget_bodies(n):
        want = hyperplane_section(body, frame, _BATCH, equator_rule(n))
        with monkeypatch.context() as patch:
            pairs = _missed_predictions(patch)
            got = hyperplane_section(body, frame, _BATCH, equator_rule(n))
        # two centroid passes, then at least the r // 4 and r // 2 rungs
        assert len(pairs) >= 4, body.label
        for (lo, hi), a, b in pairs:
            assert np.array_equal(a, lo) and np.array_equal(b, hi), body.label
        assert np.all(np.abs(got - want) <= 1e-14 * np.abs(want)), body.label


def test_a_contradicted_bound_raises_through_the_fallback(monkeypatch):
    # the ellipsoid's cut at z = 0.5 along e_3 reaches |x| = 0.927 on the
    # rays across its 1.0 semiaxis, below the radius_floor of 0.93 declared
    # here.  The 6 and 8 rays of the centroid passes pass between those;
    # the r // 4 rung's 128 rays, predicted by the second pass's fit, meet
    # them, and the raise names the bounds whether the predictions hold or
    # all miss
    body = body_ellipsoid(3, (1.2, 1.0, 0.8))
    object.__setattr__(body, "radius_floor", 0.93)
    frame = make_frame([0.0, 0.0, 1.0])
    fitted, solve = [], slice_transforms._solve

    def recorded(body, frame, cuts, index, rule):
        fitted.append(cuts.fit is not None)
        return solve(body, frame, cuts, index, rule)

    monkeypatch.setattr(slice_transforms, "_solve", recorded)
    broken = r"radius_floor = 0\.93 and radius_bound = 1\.2 do not bound rho"
    with pytest.raises(ValueError, match=broken):
        hyperplane_section(body, frame, 0.5, equator_rule(3))
    assert fitted == [False, True, True]
    fitted.clear()
    _missed_predictions(monkeypatch)
    with pytest.raises(ValueError, match=broken):
        hyperplane_section(body, frame, 0.5, equator_rule(3))
    assert fitted == [False, True, True]


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


def test_sections_refuse_a_density_outside_the_double_range():
    # the n = 6 ball of radius 1e-62 has a subnormal density, and its
    # z = 0 value came out as 5.2637890139137e-310 against the closed form
    # 5.2637890139143e-310; at 1e-61 the density is normal
    frame, rule = make_frame(np.eye(6)[-1]), equator_rule(6)
    with pytest.raises(ValueError, match="^radius_floor = 1e-62 puts the section density"):
        conical_section(body_ball(6, 1e-62), frame, 0.0, rule)
    value = conical_section(body_ball(6, 1e-61), frame, 0.0, rule)
    assert value == pytest.approx(vol_sphere(4) * 1e-61 ** 5 / 5, rel=1e-14)
    # hyperplane cuts sum the same density: their subnormal values lost
    # digits too, and at radius 1e70 they overflowed to inf
    for radius, z in ((1e-62, 1e-63), (1e70, 1e69)):
        with pytest.raises(ValueError, match=f"^radius_{'floor' if radius < 1 else 'bound'} = "):
            hyperplane_section(body_ball(6, radius), frame, z, rule)


def test_section_curve_validation():
    zs = np.array([-0.2, 0.0, 0.2])
    vals = np.array([1.0, 2.0, 1.5])
    SectionCurve("conical", zs, vals)
    # slice curves may go negative, section measures may not
    SectionCurve("slice", zs, np.array([-1.0, 0.5, -0.2]))
    with pytest.raises(ValueError):
        SectionCurve("conical", zs[::-1].copy(), vals)
    with pytest.raises(ValueError):
        SectionCurve("conical", zs, vals[:2])
    with pytest.raises(ValueError):
        SectionCurve("conical", zs, np.array([1.0, -2.0, 1.5]))
    with pytest.raises(ValueError):
        SectionCurve("hyperplane", zs, np.array([1.0, np.nan, 1.5]))


def test_section_curve_refuses_a_bad_grid_before_any_cut():
    # a height grid that is not strictly increasing, or not 1-d, is
    # refused before the section function evaluates the body once
    body = body_ellipsoid(6, tuple(np.linspace(1.5, 0.7, 6)))
    counted, calls = _count_evaluations(body)
    frame = make_frame(np.linspace(0.8, -0.3, 6))
    for kind, obj in (("slice", to_scalar_field(counted)), ("conical", counted),
                      ("hyperplane", counted)):
        calls.clear()
        for zs in ([0.5, 0.3, 0.1, -0.2], 0.2, [[0.1, 0.2]]):
            with pytest.raises(ValueError, match="zs must be a strictly increasing 1-d array"):
                section_curve(kind, obj, frame, zs, equator_rule(6))
            assert calls == [], (kind, zs)


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
# values and slopes, which are now solved along plane rays about each
# cut's centroid


def _old_points(pole, lifted, psi):
    psi = np.asarray(psi, dtype=float)
    return np.sin(psi)[..., None] * pole + np.cos(psi)[..., None] * lifted


def _old_illinois(g, a, b, ga, gb):
    # `_illinois` as it stood: it returned the last brackets and their end
    # values, and each caller read the root off them
    fa, fb = ga, gb
    kept_a = kept_b = np.zeros(a.shape, dtype=bool)  # that end was kept last
    done = (b - a <= slice_transforms._ROOT_WIDTH) | (ga == 0.0) | (gb == 0.0)
    for _ in range(slice_transforms._MAX_REFINE):
        if done.all():
            return a, b, ga, gb
        with np.errstate(divide="ignore", invalid="ignore"):
            c = b - fb * (b - a) / (fb - fa)
        c = np.where((c >= a) & (c <= b), c, 0.5 * (a + b))
        c = np.clip(c, a + slice_transforms._ROOT_WIDTH / 2, b - slice_transforms._ROOT_WIDTH / 2)
        gc = g(c)
        zero = gc == 0.0
        left = (gc < 0.0) == (ga < 0.0)  # c replaces a
        left &= ~(zero | done)
        right = ~(left | zero | done)    # c replaces b
        zero &= ~done
        fa = np.where(right & kept_a, 0.5 * fa, fa)
        fb = np.where(left & kept_b, 0.5 * fb, fb)
        kept_a, kept_b = right | (kept_a & ~left), left | (kept_b & ~right)
        to_a, to_b = left | zero, right | zero
        a, ga, fa = np.where(to_a, c, a), np.where(to_a, gc, ga), np.where(to_a, gc, fa)
        b, gb, fb = np.where(to_b, c, b), np.where(to_b, gc, gb), np.where(to_b, gc, fb)
        done |= zero | (b - a <= slice_transforms._ROOT_WIDTH)
    raise RuntimeError("hyperplane root refinement did not converge")


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

        a, b, ga, gb = _old_illinois(
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
        values[j] = math.cos(psi) ** (frame.dim - 2) * float(np.sum(rule.weights * vals))
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


def _closer(got, want, exact, tol):
    # each new number within tol of the replaced one, or no further than it
    # from the closed form
    got, want = np.asarray(got), np.asarray(want)
    closer = np.abs(got - exact) <= np.abs(want - exact)
    return bool(np.all((np.abs(got - want) <= tol) | closer))


def _hyperplane_agrees(new, old, exact=None, z=None):
    # outcomes of `_outcome`: errors and types agree exactly, hyperplane
    # values within 4e-15 relative, ladder and fd slopes within 5e-12
    # absolute and the transform side exactly.  Given the cut's closed form
    # V(z) (and z for values), a number that moved further is accepted when
    # it is no further than the replaced one from the closed form: the
    # plane rays about the centroid are exact where the meridian scan about
    # the foot point left the default n = 6 rule's error
    if new[0] != old[0] or new[0] == "error":
        return new == old
    if new[0] == "slope":
        (hs, ests), (old_hs, old_ests) = (tuple(zip(*o[1])) for o in (new, old))
        if hs != old_hs or new[3] != old[3]:
            return False
        if exact is None:
            return np.allclose(ests + (new[2],), old_ests + (old[2],), rtol=0.0, atol=5e-12)
        steps = [(exact(h) - exact(-h)) / (2.0 * h) for h in hs]
        return (_closer(ests, old_ests, steps, 5e-12)
                and _closer(new[2], old[2], richardson_limit(list(zip(hs, steps)))[0], 5e-12))
    got, want = np.frombuffer(new[1]), np.frombuffer(old[1])
    if exact is None:
        return bool(np.all(np.abs(got - want) <= 4e-15 * np.abs(want)))
    return _closer(got, want, np.vectorize(exact)(z), 4e-15 * np.abs(want))


def _kernel_cases(n):
    # (body, frame, V) with V the cut's closed form, where there is one
    frame = _off_axis_frame(n)
    center = np.linspace(0.25, -0.15, n)
    a = np.linspace(1.2, 0.9, n)
    s, h = float(center @ frame.pole), float(np.linalg.norm(a * frame.pole))
    omega = _ball_volume(n - 1)
    cases = [(body_ball(n, 1.1), frame, lambda z: omega * (1.21 - z * z) ** ((n - 1) / 2)),
             (body_shifted_ball(n, 1.0, center), frame,
              lambda z: omega * (1.0 - (z - s) ** 2) ** ((n - 1) / 2)),
             (body_ellipsoid(n, a), frame,
              lambda z: omega * float(np.prod(a)) / h * (1.0 - (z / h) ** 2) ** ((n - 1) / 2))]
    if n == 3:
        cases.append((body_harmonic_perturbed_ball(0.08, 3, 1), frame, None))
        cases.append((_fold_body(), make_frame([0.0, 0.0, 1.0]), None))
    return cases


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_section_kernels_equal_the_replaced_formulas(n, monkeypatch):
    rule = equator_rule(n)
    for body, frame, exact in _kernel_cases(n):
        f = to_scalar_field(body)
        heights = [_BATCH, 0.3, -0.45]
        if body.label == "fold":
            # folded cuts, alone and in a batch, raise in both
            heights += [0.26, np.array([-0.26, 0.1])]
            refusal = _outcome(hyperplane_section, body, frame, 0.26, rule)
            assert refusal[1].startswith("multiple boundary crossings"), refusal
        for z in heights:
            assert _hyperplane_agrees(_outcome(hyperplane_section, body, frame, z, rule),
                                      _outcome(_old_hyperplane_section, body, frame, z, rule),
                                      exact, z), (body.label, z)
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
        assert _hyperplane_agrees(slopes[1], old[1], exact), body.label


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
