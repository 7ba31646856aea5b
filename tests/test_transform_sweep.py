"""Pole sweeps reproduce the per-pole transform bit for bit."""

import collections
import copy
import math
import pickle

import numpy as np
import pytest

from starsym import slice_transforms, symmetry_detector
from starsym import (
    FRAME_SEED,
    body_ball,
    body_ellipsoid,
    body_shifted_ball,
    calibrate,
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
)
from starsym.star_body import FD_STEP


def _reference_transform(f, frame, rule):
    return float(rule.weights @ _reference_derivative(f, frame, rule))


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
    (2, None), (3, 256), (3, 512), (4, 16), (4, 32), (4, 64), (5, 8), (5, 16), (5, 32),
    (6, 4), (6, 8), (6, 16)])
def test_grouped_poles_equal_per_pole_transforms(n, resolution):
    # 18 base poles in groups of G = _GROUP_POINTS // N poles: all in one
    # group where G > 18 (2 nodes at n = 2, 256 at n = 3, 128 at n = 4 and
    # n = 5, 32 at n = 6), full groups and a remainder where G < 18 (512
    # nodes at n = 3, 4 and 6, G = 16; 1024 at n = 5, G = 8; 2048 at
    # n = 4, G = 4) and one pole per call at 8192 nodes (n = 5, 6).
    # Values, sign bits and scales equal the per-pole transforms on both
    # derivative paths, and so do transform_sweep's on frames and on
    # bare poles
    rule = equator_rule(n, resolution)
    xis, frames = symmetry_detector._pole_frames(n, 37, n)
    assert len(frames) == 18
    for body in _bodies(n):
        f = to_scalar_field(body)
        want = [equator_transform(f, frame, rule) for frame in frames]
        got = slice_transforms._pole_transforms(f, frames, rule)
        assert _same_bits(np.array(got), np.array(want)), body.label
        assert [v.scale for v in got] == [v.scale for v in want], body.label
        assert all(type(v) is slice_transforms.TransformValue for v in got)
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


def _group_points(poles, size):
    # the points of each field call in a sweep of `poles` poles on a rule
    # of `size` nodes: groups of G = _GROUP_POINTS // size poles, at least one
    group = max(1, slice_transforms._GROUP_POINTS // size)
    return [size * min(group, poles - start) for start in range(0, poles, group)]


def _same_bits(a, b):
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("resolution", [None, 8], ids=["default", "coarse"])
def test_antipodal_sweep_equals_per_pole_transforms(n, resolution):
    # the negative half of the sweep is A(-xi) = -A(xi) read off its base
    # pole; every one of the 2m values must match an independent per-pole
    # transform on the rule the report records bit for bit, signed zeros
    # included
    for body in _bodies(n):
        f = to_scalar_field(body)
        report = detect(body, num_dirs=24, seed=n, rule_resolution=resolution)
        rule = equator_rule(n, report.resolution)
        want = np.array([equator_transform(f, make_frame(xi), rule) for xi in report.xis])
        assert _same_bits(report.values, want), body.label


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
        assert points == _group_points(12, size)
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
    assert points == 2 * _group_points(len(xis), rule.size)


def test_detect_sweeps_half_of_an_antipodal_set(monkeypatch):
    body = body_shifted_ball(3, 1.0, (0.2, -0.1, 0.05))
    calls, points = _count_transforms(monkeypatch)
    detect(body, num_dirs=100)
    assert len(calls) == 50
    # 512 nodes: groups of 16 poles, so four field calls, not 50
    assert points == [16 * 512] * 3 + [2 * 512]


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
    # visits (one in n = 3; in n = 5 three for the shifted ball, which
    # reaches the default rule, and two for the ellipsoid, which stops
    # at the middle one) and reads the other 50 off their negatives: no
    # calibration sweep, no probe of the odd part, and the roundoff scale
    # of each transform costs no evaluation.  A level of N nodes takes
    # ceil(50 / G) field calls, G = _GROUP_POINTS // N poles per call
    for body, levels in ((body_shifted_ball(n, 1.0, np.linspace(0.2, -0.1, n)), 3),
                         (body_ellipsoid(n, tuple(np.linspace(1.5, 0.7, n))), 2)):
        body, counts = _counting(strip_gradient(body) if fd else body)
        calls, points = _count_transforms(monkeypatch)
        report = detect(body)
        levels = 1 if n == 3 else levels
        assert len(report.ladder) == levels
        assert len(calls) == 50 * levels
        assert [level[1] for level in report.ladder] == [
            equator_rule(n, level[0]).size for level in report.ladder]
        assert points == [p for level in report.ladder for p in _group_points(50, level[1])]
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
        return math.sqrt(float(wf @ wf)) / FD_STEP
    g = f.gradient(embed(frame, eta, psi))
    return math.sqrt(float(w @ w) * float((g * g).sum()))


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
        scales = [equator_transform(f, fr, rule).scale for fr in frames]
        assert scales == [_reference_scale(f, fr, rule) for fr in frames], body.label
        floor = calibrate(body.gradient is not None) * np.finfo(float).eps
        assert report.threshold == floor * max(scales), body.label


def test_transform_value_is_a_float_with_its_scale():
    f = to_scalar_field(body_shifted_ball(3, 1.0, (0.2, -0.1, 0.05)))
    value = equator_transform(f, make_frame([0.0, 0.6, 0.8]), equator_rule(3, 16))
    assert isinstance(value, float) and value.scale > 0.0
    assert type(0.0 - value) is float
    for copied in (copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert (copied, copied.scale) == (value, value.scale)



@pytest.mark.parametrize("n", [5, 6])
def test_a_sweep_ending_at_the_default_equals_the_explicit_default(n, monkeypatch):
    # a shifted ball does not settle on the coarse levels of n = 5, 6
    # (in n = 4 it settles at resolution 32), so its default
    # sweep climbs the whole ladder and returns what the explicit
    # default rule returns, bit for bit; the explicit sweep visits one
    # level and integrates each base pole once
    default = equator_rule(n).resolution
    for body in _bodies(n)[1::3]:
        report = detect(body, num_dirs=24, seed=n)
        assert [level[0] for level in report.ladder] == [default // 4, default // 2, default]
        calls, points = _count_transforms(monkeypatch)
        explicit = detect(body, num_dirs=24, seed=n, rule_resolution=default)
        assert len(calls) == 12
        # 8192 nodes fill a field call: one pole per call
        assert points == [equator_rule(n).size] * 12
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
        # and the 12 base poles share one field call
        assert points == [12 * equator_rule(n).size]
        assert report.ladder == ((equator_rule(n).resolution, equator_rule(n).size,
                                  None, report.threshold),)
        monkeypatch.undo()
