"""Pole sweeps reproduce the per-pole transform bit for bit."""

import collections
import copy
import itertools
import math
import pickle

import numpy as np
import pytest

from starsym import slice_transforms, symmetry_detector
from starsym import (
    FRAME_SEED,
    RadialField,
    ScalarField,
    body_ball,
    body_ellipsoid,
    body_shifted_ball,
    calibrate,
    conical_section,
    detect,
    embed,
    equator_rule,
    equator_transform,
    make_frame,
    sample_poles,
    strip_gradient,
    sweep,
    to_scalar_field,
    transform_sweep,
    zonal_field,
)
from starsym.star_body import FD_STEP


def _reference_transform(f, frame, rule):
    return float(np.sum(rule.weights * _reference_derivative(f, frame, rule)))


def _reference_derivative(f, frame, rule):
    # the original formula at psi = 0: the gradient along the meridian
    # tangent cos(psi) xi - sin(psi) lift(eta) at validated embed points,
    # or central differences at +-h and +-h/2 with one Richardson level
    eta = rule.nodes
    psi = np.zeros(rule.size)
    if f.gradient is None:
        def central(h):
            return (f.evaluate(embed(frame, eta, psi + h))
                    - f.evaluate(embed(frame, eta, psi - h))) / (2.0 * h)

        d1 = central(FD_STEP)
        d2 = central(FD_STEP / 2.0)
        d = (4.0 * d2 - d1) / 3.0
    else:
        x = embed(frame, eta, psi)
        t = np.cos(psi)[..., None] * frame.pole - np.sin(psi)[..., None] * (eta @ frame.basis)
        d = np.sum(f.gradient(x) * t, axis=-1)
    return d


def _bodies(n):
    center = np.linspace(0.25, -0.15, n)
    bodies = [body_ball(n, 1.3), body_shifted_ball(n, 1.0, center),
              body_ellipsoid(n, tuple(np.linspace(1.5, 0.7, n)))]
    return bodies + [strip_gradient(b) for b in bodies]


def test_rule_sums_are_pairwise_past_the_blas_split():
    # a rule of 131 072 nodes: a BLAS dot would split each sum across threads
    # and round in its own order; every conical value and transform is the
    # pairwise np.sum of its weighted terms, bit for bit
    rule = equator_rule(6, 32)
    assert rule.size == 131072
    body = body_ellipsoid(6, tuple(np.linspace(1.5, 0.7, 6)))
    frame = make_frame(np.linspace(0.8, -0.3, 6), seed=FRAME_SEED)
    f = to_scalar_field(body)
    zs = np.array([-0.3, 0.0, 0.45])
    want = [math.cos(math.asin(z)) ** 4
            * float(np.sum(rule.weights * f.evaluate(embed(frame, rule.nodes, math.asin(z)))))
            for z in zs]
    assert conical_section(body, frame, zs, rule).tolist() == want
    for field in (f, strip_gradient(f)):
        assert equator_transform(field, frame, rule) == _reference_transform(field, frame, rule)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_sweep_equals_reference_formula(n):
    rule = equator_rule(n)
    xis = sample_poles(n, 8, seed=n)
    frames = [make_frame(xi, seed=FRAME_SEED) for xi in xis]
    for body in _bodies(n):
        f = to_scalar_field(body)
        want = np.array([_reference_transform(f, fr, rule) for fr in frames])
        assert np.array_equal(transform_sweep(f, frames, rule), want), body.label
        # bare poles are completed with the same seeded frames
        assert np.array_equal(transform_sweep(f, xis, rule), want), body.label


@pytest.mark.parametrize("n, resolution", [
    (2, None), (3, 256), (3, 512), (3, 8192), (4, 16), (4, 32), (4, 64), (4, 128), (5, 8),
    (5, 16), (5, 32), (6, 4), (6, 8), (6, 16)])
def test_grouped_poles_equal_per_pole_transforms(n, resolution):
    # 18 base poles in calls of P points (4096 at n = 2, 3, 2048 at n = 4..6)
    # and groups of G = P // N poles: all in one group where G > 18 (2 nodes
    # at n = 2, 32 at n = 6), full groups and a remainder where G < 18 (256
    # nodes at n = 3, G = 16; 128 at n = 4, 5, G = 16; 512 at n = 3, G = 8,
    # and at n = 4, 6, G = 4; 1024 at n = 5, G = 2), one pole per call at 2048
    # nodes (n = 4) and one pole in P-node slices at 8192 nodes (n = 3..6).
    # Values, sign bits and roundoff scales equal the per-pole ones on
    # both derivative paths, and so do transform_sweep's values on frames
    # and on bare poles
    rule = equator_rule(n, resolution)
    xis, frames = symmetry_detector._pole_frames(n, 37, n)
    assert len(frames) == 18
    for body in _bodies(n):
        f = to_scalar_field(body)
        want = [equator_transform(f, frame, rule) for frame in frames]
        values, scales = slice_transforms._pole_transforms(f, frames, rule)
        assert _same_bits(values, np.array(want)), body.label
        single = [slice_transforms._pole_transforms(f, (frame,), rule)[1][0]
                  for frame in frames]
        assert scales.tolist() == single, body.label
        bare = [equator_transform(f, make_frame(xi), rule) for xi in xis]
        assert _same_bits(transform_sweep(f, frames, rule), np.array(want)), body.label
        assert _same_bits(transform_sweep(f, xis, rule), np.array(bare)), body.label


def _count_transforms(monkeypatch, module=symmetry_detector):
    # every pole the sweeps of `module` actually integrate, in call order,
    # and the points of each field call that serves a group of them
    calls, points = [], []
    real = slice_transforms._pole_transforms
    terms = slice_transforms._meridian_terms

    def counting(f, frames, rule):
        calls.extend(frame.pole for frame in frames)
        return real(f, frames, rule)

    def counting_terms(evaluate, gradient, pole, lifted):
        points.append(len(lifted))
        return terms(evaluate, gradient, pole, lifted)

    monkeypatch.setattr(module, "_pole_transforms", counting)
    monkeypatch.setattr(slice_transforms, "_meridian_terms", counting_terms)
    return calls, points


# the points of one sweep field call: P = 2^k, the largest with P n below
# 16 384 doubles, so that each (P, n) array stays below 128 KiB
_CALL_POINTS = {2: 4096, 3: 4096, 4: 2048, 5: 2048, 6: 2048}


def _group_points(poles, size, n):
    # the points of each field call in a sweep of `poles` poles on a rule
    # of `size` nodes: groups of G = P // size poles, or where size > P each
    # pole in slices of P nodes
    points = _CALL_POINTS[n]
    if size > points:
        return [min(points, size - lo) for _ in range(poles) for lo in range(0, size, points)]
    group = points // size
    return [size * min(group, poles - start) for start in range(0, poles, group)]


def _same_bits(a, b):
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("resolution", [None, 8], ids=["default", "coarse"])
def test_antipodal_sweep_equals_per_pole_transforms(n, resolution):
    # the negative half of the sweep is A(-xi) = -A(xi) read off its base
    # pole; every one of the 2m values must match an independent per-pole
    # transform on the rule the report records bit for bit, signed zeros
    # included.  Two directions are one base pole, so every field call of
    # that sweep holds one frame, and at n = 5, 6 a climbing sweep sends its
    # 8192-node level in node slices
    bodies = _bodies(n) + (_climbing(n) if n >= 5 else [])
    for body, num_dirs in itertools.product(bodies, (24, 2)):
        f = to_scalar_field(body)
        report = detect(body, num_dirs=num_dirs, seed=n, rule_resolution=resolution)
        rule = equator_rule(n, report.resolution)
        want = np.array([equator_transform(f, make_frame(xi), rule) for xi in report.xis])
        assert _same_bits(report.values, want), (body.label, num_dirs)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_antipodal_pair_costs_one_transform(n, monkeypatch):
    f = to_scalar_field(body_shifted_ball(n, 1.0, np.linspace(0.25, -0.15, n)))
    calls, points = _count_transforms(monkeypatch)
    size = equator_rule(n, 16).size
    for field in (f, strip_gradient(f)):
        report = sweep(field, num_dirs=24, seed=n, rule_resolution=16)
        # the base pole of each pair is computed, its negative reused, and
        # the base poles share ceil(12 / G) field calls
        assert np.array_equal(calls, [make_frame(xi).pole for xi in report.xis[:12]])
        assert np.array_equal(report.xis[12:], -report.xis[:12])
        assert points == _group_points(12, size, n)
        calls.clear()
        points.clear()


@pytest.mark.parametrize("n", [3, 6])
def test_transform_sweep_computes_every_pole(n, monkeypatch):
    # verify's xi_oddness check sweeps xis and -xis; each pole is its own
    # transform, so the check stays independent, even within one call on
    # an antipodal list
    rule = equator_rule(n, 16)
    f = to_scalar_field(body_shifted_ball(n, 1.0, np.linspace(0.25, -0.15, n)))
    xis = sample_poles(n, 8, seed=2)
    calls, points = _count_transforms(monkeypatch, slice_transforms)
    transform_sweep(f, xis, rule)
    transform_sweep(f, -xis, rule)
    assert np.array_equal(calls, [make_frame(xi).pole for xi in np.vstack([xis, -xis])])
    assert points == 2 * _group_points(len(xis), rule.size, n)


def test_detect_sweeps_half_of_an_antipodal_set(monkeypatch):
    body = body_shifted_ball(3, 1.0, (0.2, -0.1, 0.05))
    calls, points = _count_transforms(monkeypatch)
    detect(body, num_dirs=100)
    assert len(calls) == 50
    # 512 nodes: groups of 8 poles, so seven field calls, not 50
    assert points == [8 * 512] * 6 + [2 * 512]


def _counting(body):
    # the body with its evaluate/gradient wrapped to count calls and points
    counts = collections.Counter()

    def wrap(name, fn):
        def wrapped(u):
            counts[name + "_calls"] += 1
            counts[name + "_points"] += np.asarray(u).size // body.dim
            return fn(u)
        object.__setattr__(body, name, wrapped)

    wrap("evaluate", body.evaluate)
    if body.gradient is not None:
        wrap("gradient", body.gradient)
    return body, counts


@pytest.mark.parametrize("n", [3, 5])
@pytest.mark.parametrize("fd", [False, True], ids=["gradient", "finite_difference"])
def test_default_detect_evaluates_only_its_own_poles(n, fd, monkeypatch):
    # a default detect integrates its 50 base poles once per level it
    # visits (one in n = 3; in n = 5 three for the shifted ball, whose
    # r // 2 level is swept again on the second frame completion and
    # stops there, and two for the ellipsoid, which stops at the middle
    # one without that check) and reads the other 50 off their negatives: no
    # calibration sweep, no probe of the odd part, and the roundoff scale
    # of each transform costs no evaluation.  A level of N nodes takes
    # ceil(50 / G) field calls, G = P // N poles per call (see _group_points)
    for body, levels in ((body_shifted_ball(n, 1.0, np.linspace(0.2, -0.1, n)), 3),
                         (body_ellipsoid(n, tuple(np.linspace(1.5, 0.7, n))), 2)):
        body, counts = _counting(strip_gradient(body) if fd else body)
        calls, points = _count_transforms(monkeypatch)
        report = detect(body)
        levels = 1 if n == 3 else levels
        assert len(report.ladder) == levels
        if n == 5:
            assert [level[0] for level in report.ladder] == [8, 16, 16][:levels]
        assert len(calls) == 50 * levels
        assert [level[1] for level in report.ladder] == [
            equator_rule(n, level[0]).size for level in report.ladder]
        assert points == [p for level in report.ladder for p in _group_points(50, level[1], n)]
        nodes = sum(level[1] for level in report.ladder)
        groups = len(points)
        if fd:
            # four latitudes per node
            want = {"evaluate_calls": 4 * groups, "evaluate_points": 4 * 50 * nodes}
        else:
            # the section density's gradient evaluates rho once per call
            want = {"gradient_calls": groups, "gradient_points": 50 * nodes,
                    "evaluate_calls": groups, "evaluate_points": 50 * nodes}
        assert dict(counts) == want, body.label
        monkeypatch.undo()


def test_a_default_n6_shifted_ball_skips_the_default_rule():
    # the second frame completion confirms the 512-node level, so the
    # 8192-node default rule is never swept: at most 50 base poles on the
    # 32-node level and twice on the 512-node one
    body, counts = _counting(body_shifted_ball(6, 1.0, np.linspace(0.25, -0.15, 6)))
    report = detect(body)
    assert report.verdict == "asymmetric"
    assert counts["gradient_points"] <= 50 * (32 + 512 + 512), report.ladder


@pytest.mark.parametrize("n", [3, 5])
def test_detect_values_equal_reference_formula(n):
    body = strip_gradient(body_shifted_ball(n, 1.0, np.linspace(0.2, -0.1, n)))
    f = to_scalar_field(body)
    first = detect(body, num_dirs=10, seed=3)
    rule = equator_rule(n, first.resolution)
    want = [_reference_transform(f, make_frame(xi, seed=FRAME_SEED), rule)
            for xi in first.xis]
    assert np.array_equal(first.values, want)
    # the second sweep reuses the cached frames; its poles are a fresh copy
    first.xis[:] = 0.0
    second = detect(body, num_dirs=10, seed=3)
    assert np.array_equal(second.values, want)
    assert np.array_equal(second.xis, sample_poles(n, 10, seed=3))


def _reference_scale(f, frame, rule):
    # the roundoff scale of one transform from validated embed points:
    # |w| |g| with a gradient and |w f(+FD_STEP)| / FD_STEP without
    eta, psi = rule.nodes, np.zeros(rule.size)
    w = rule.weights
    if f.gradient is None:
        wf = w * f.evaluate(embed(frame, eta, psi + FD_STEP))
        return math.sqrt(float(np.sum(wf * wf))) / FD_STEP
    g = f.gradient(embed(frame, eta, psi))
    return math.sqrt(float(np.sum(w * w)) * float((g * g).sum()))


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_calibrate_matches_recorded_thresholds(n):
    # a default detect records the floor C eps max s, with C read off
    # calibrate for the field's derivative path and s the largest scale
    # of the poles it computed on the rule it reports (the base half;
    # each negative reuses its base pole's scale), each equal to the
    # reference form bit for bit
    for body in _bodies(n):
        f = to_scalar_field(body)
        report = detect(body, num_dirs=8, seed=n)
        rule = equator_rule(n, report.resolution)
        frames = [make_frame(xi, seed=FRAME_SEED) for xi in report.xis[:4]]
        _, scales = slice_transforms._pole_transforms(f, frames, rule)
        assert scales.tolist() == [_reference_scale(f, fr, rule) for fr in frames], body.label
        floor = calibrate(body.gradient is not None) * np.finfo(float).eps
        assert report.threshold == floor * max(scales), body.label


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_equator_transform_is_a_float_and_its_scale_the_reference(n):
    # equator_transform returns a plain float, the value transform_sweep
    # returns for the same frame and rule; the kernel's roundoff scale
    # beside it is the reference form bit for bit, on both derivative paths
    rule = equator_rule(n, 8 if n > 2 else None)
    frame = make_frame(np.linspace(0.8, -0.3, n))
    for body in _bodies(n):
        f = to_scalar_field(body)
        value = equator_transform(f, frame, rule)
        assert type(value) is float, body.label
        assert _same_bits(np.array([value]), transform_sweep(f, [frame], rule)), body.label
        _, scales = slice_transforms._pole_transforms(f, (frame,), rule)
        assert scales.tolist() == [_reference_scale(f, frame, rule)], body.label


@pytest.mark.parametrize("k", [600, -600, 100])
@pytest.mark.parametrize("n", [3, 6])
@pytest.mark.parametrize("fd", [False, True], ids=["gradient", "finite_difference"])
def test_a_field_far_from_unit_size_keeps_every_bit(k, n, fd):
    # 2^k f has the values and roundoff scales of f times 2^k, bit for bit:
    # at 2^600 the squares behind the scale overflowed (a RuntimeWarning),
    # and at 2^-600 the finite-difference ones underflowed to a zero floor
    f = to_scalar_field(body_shifted_ball(n, 1.0, np.linspace(0.25, -0.15, n)))
    if fd:
        f = strip_gradient(f)
    gradient = None if fd else (lambda u: np.ldexp(f.gradient(u), k))
    big = ScalarField(dim=n, evaluate=lambda u: np.ldexp(f.evaluate(u), k),
                      gradient=gradient, sup_bound=math.ldexp(f.sup_bound, k))
    rule, frames = equator_rule(n, 8), [make_frame(xi) for xi in sample_poles(n, 6, seed=1)]
    values, scales = slice_transforms._pole_transforms(f, frames, rule)
    big_values, big_scales = slice_transforms._pole_transforms(big, frames, rule)
    assert np.all(scales > 0.0)
    assert _same_bits(big_values, np.ldexp(values, k))
    assert _same_bits(big_scales, np.ldexp(scales, k))


def test_transform_value_is_a_float_with_its_scale():
    # the value is a plain float that arithmetic, copies and pickles keep
    # a float; its roundoff scale is the positive entry the sweep kernel
    # returns beside it, and copies of both arrays keep every bit
    f = to_scalar_field(body_shifted_ball(3, 1.0, (0.2, -0.1, 0.05)))
    frame, rule = make_frame([0.0, 0.6, 0.8]), equator_rule(3, 16)
    value = equator_transform(f, frame, rule)
    values, scales = slice_transforms._pole_transforms(f, (frame,), rule)
    assert type(value) is float and scales[0] > 0.0
    assert _same_bits(np.array([value]), values)
    assert type(0.0 - value) is float
    for copied in (copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(copied) is float and copied == value
    for copied in (copy.deepcopy((values, scales)), pickle.loads(pickle.dumps((values, scales)))):
        assert _same_bits(copied[0], values) and _same_bits(copied[1], scales)


def _climbing(n):
    # bodies whose default sweeps climb past the r // 2 check to the
    # default rule: the n = 5 shifted ball of verify, and at n = 6, where
    # shifted balls stop at r // 2, a ball with an odd degree-3 zonal bump
    if n == 5:
        body = body_shifted_ball(5, 1.0, (0.6, 0.0, 0.0, 0.0, 0.0))
    else:
        z = zonal_field(n, 3, np.linspace(1.0, 0.3, n))
        body = RadialField(dim=n, evaluate=lambda u: 1.0 + 0.05 * z.evaluate(u),
                           gradient=lambda u: 0.05 * z.gradient(u),
                           radius_bound=1.05, radius_floor=0.95, label="zonal_bump(l=3)")
    return [body, strip_gradient(body)]


@pytest.mark.parametrize("n", [5, 6])
def test_a_sweep_ending_at_the_default_equals_the_explicit_default(n, monkeypatch):
    # neither the r // 4 level nor the second frame completion confirms
    # the r // 2 level of these bodies, so their default sweeps climb the
    # whole ladder and return what the explicit default rule returns, bit
    # for bit; the explicit sweep visits one level and integrates each
    # base pole once
    default = equator_rule(n).resolution
    for body in _climbing(n):
        report = detect(body, num_dirs=24, seed=n)
        assert [level[0] for level in report.ladder] == [
            default // 4, default // 2, default // 2, default]
        calls, points = _count_transforms(monkeypatch)
        explicit = detect(body, num_dirs=24, seed=n, rule_resolution=default)
        assert len(calls) == 12
        # 8192 nodes fill four field calls: each pole in slices of 2048
        assert points == [2048] * 4 * 12
        assert explicit.ladder == ((default, equator_rule(n).size, None, explicit.threshold),)
        assert _same_bits(report.values, explicit.values), body.label
        assert report.ladder[-1][1:] == (equator_rule(n).size, report.ladder[-1][2],
                                         explicit.threshold)
        for name in ("resolution", "threshold", "max_abs", "l2_mean", "verdict", "note"):
            assert getattr(report, name) == getattr(explicit, name), (body.label, name)
        monkeypatch.undo()


@pytest.mark.parametrize("n", [2, 3])
def test_small_default_rules_sweep_one_level(n, monkeypatch):
    # below 2048 nodes the two coarse sweeps would cost more than they save
    for body in _bodies(n):
        calls, points = _count_transforms(monkeypatch)
        report = detect(body, num_dirs=24, seed=n)
        assert len(calls) == 12
        # and the 12 base poles share one field call of 24 points at
        # n = 2, and two of 8 and 4 poles of 512 nodes at n = 3
        assert points == {2: [12 * 2], 3: [8 * 512, 4 * 512]}[n]
        assert report.ladder == ((equator_rule(n).resolution, equator_rule(n).size,
                                  None, report.threshold),)
        monkeypatch.undo()


def _recording(body):
    # the body with its evaluate/gradient wrapped to record the doubles
    # each call receives
    sizes = []

    def wrap(name, fn):
        def wrapped(u):
            sizes.append(np.asarray(u).size)
            return fn(u)
        object.__setattr__(body, name, wrapped)

    wrap("evaluate", body.evaluate)
    if body.gradient is not None:
        wrap("gradient", body.gradient)
    return body, sizes


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("fd", [False, True], ids=["gradient", "finite_difference"])
def test_every_sweep_field_call_stays_below_128_kib(n, fd):
    # glibc's mmap threshold starts at 128 KiB, 16 384 doubles: larger
    # field arrays are mmapped, or trimmed off the heap after each call,
    # and fault back in on the next.  Every call of a default detect, on
    # each level of its ladder at n >= 4 and in the second frame
    # completion where it runs, stays below the threshold
    for body in _bodies(n)[:3]:
        body, sizes = _recording(strip_gradient(body) if fd else body)
        detect(body)
        assert sizes and max(sizes) < 16384, (body.label, max(sizes))


@pytest.mark.parametrize("fd", [False, True], ids=["gradient", "finite_difference"])
def test_a_large_rule_reaches_the_field_in_node_slices(fd):
    # 131 072 nodes at n = 6: each pole in 64 slices of 2048 nodes, each
    # value the one-call transform bit for bit
    rule = equator_rule(6, 32)
    body, sizes = _recording(body_ellipsoid(6, tuple(np.linspace(1.5, 0.7, 6))))
    f = to_scalar_field(strip_gradient(body) if fd else body)
    frames = [make_frame(xi) for xi in sample_poles(6, 4, seed=1)]
    sizes.clear()  # calls made while the fields were built
    values = transform_sweep(f, frames, rule)
    assert max(sizes) == 2048 * 6
    assert sum(sizes) == (4 if fd else 2) * len(frames) * rule.size * 6
    want = [_reference_transform(f, frame, rule) for frame in frames]
    assert _same_bits(values, np.array(want))


def test_a_frame_of_the_wrong_dimension_is_refused_before_any_field_call():
    # the frames' dimension is checked once per sweep, before it evaluates
    # anything, so a bad frame last in the list costs no field call
    body, sizes = _recording(body_shifted_ball(3, 1.0, (0.2, -0.1, 0.05)))
    f = to_scalar_field(body)
    frames = [make_frame(xi) for xi in sample_poles(3, 40, seed=1)]
    frames.append(make_frame([0.0, 0.0, 0.6, 0.8]))
    for sweep_of in (transform_sweep, slice_transforms._pole_transforms):
        with pytest.raises(ValueError, match="quadrature rule dimension does not match the frame"):
            sweep_of(f, frames, equator_rule(3))
    assert not sizes
