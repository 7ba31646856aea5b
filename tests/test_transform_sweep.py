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
    probe_directions,
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


def _count_transforms(monkeypatch, module=symmetry_detector):
    # every pole the sweep of `module` actually integrates, in call order
    calls = []
    real = slice_transforms.equator_transform

    def counting(f, frame, rule):
        calls.append(frame.pole)
        return real(f, frame, rule)

    monkeypatch.setattr(module, "equator_transform", counting)
    return calls


def _same_bits(a, b):
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("resolution", [None, 8], ids=["default", "coarse"])
def test_antipodal_sweep_equals_per_pole_transforms(n, resolution):
    # the negative half of the sweep is A(-xi) = -A(xi) read off its base
    # pole; every one of the 2m values must match an independent per-pole
    # transform bit for bit, signed zeros included
    rule = equator_rule(n, resolution)
    for body in _bodies(n):
        f = to_scalar_field(body)
        report = detect(body, num_dirs=24, seed=n, rule_resolution=resolution)
        want = np.array([equator_transform(f, make_frame(xi), rule) for xi in report.xis])
        assert _same_bits(report.values, want), body.label


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_antipodal_pair_costs_one_transform(n, monkeypatch):
    f = to_scalar_field(body_shifted_ball(n, 1.0, np.linspace(0.25, -0.15, n)))
    calls = _count_transforms(monkeypatch)
    for field in (f, strip_gradient(f)):
        report = sweep(field, num_dirs=24, seed=n, rule_resolution=16)
        # the base pole of each pair is computed, its negative reused
        assert np.array_equal(calls, [make_frame(xi).pole for xi in report.xis[:12]])
        assert np.array_equal(report.xis[12:], -report.xis[:12])
        calls.clear()


@pytest.mark.parametrize("n", [3, 6])
def test_transform_sweep_computes_every_pole(n, monkeypatch):
    # verify's xi_oddness check sweeps xis and -xis; each pole is its own
    # transform, so the check stays independent, even within one call on
    # an antipodal list
    rule = equator_rule(n, 16)
    f = to_scalar_field(body_shifted_ball(n, 1.0, np.linspace(0.25, -0.15, n)))
    xis = sample_poles(n, 8, seed=2)
    calls = _count_transforms(monkeypatch, slice_transforms)
    transform_sweep(f, xis, rule)
    transform_sweep(f, -xis, rule)
    assert np.array_equal(calls, [make_frame(xi).pole for xi in np.vstack([xis, -xis])])


def test_detect_sweeps_half_of_an_antipodal_set(monkeypatch):
    body = body_shifted_ball(3, 1.0, (0.2, -0.1, 0.05))
    calls = _count_transforms(monkeypatch)
    detect(body, num_dirs=100, threshold=1.0)
    assert len(calls) == 50


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
    # a default detect integrates its 50 base poles, reads the other 50
    # off their negatives and probes the odd part on the grid
    # probe_directions(n, 2000) (f at u and at -u): no calibration
    # sweep, and the roundoff scale of each transform costs no evaluation
    body = body_shifted_ball(n, 1.0, np.linspace(0.2, -0.1, n))
    body, counts = _counting(strip_gradient(body) if fd else body)
    calls = _count_transforms(monkeypatch)
    detect(body)
    assert len(calls) == 50
    nodes = equator_rule(n).size
    probe = len(probe_directions(n, 2000))
    if fd:
        # four latitudes per node
        want = {"evaluate_calls": 4 * 50 + 2, "evaluate_points": 4 * 50 * nodes + 2 * probe}
    else:
        # the section density's gradient evaluates rho once per call
        want = {"gradient_calls": 50, "gradient_points": 50 * nodes,
                "evaluate_calls": 50 + 2, "evaluate_points": 50 * nodes + 2 * probe}
    assert dict(counts) == want


@pytest.mark.parametrize("n", [3, 5])
def test_detect_values_equal_reference_formula(n):
    body = strip_gradient(body_shifted_ball(n, 1.0, np.linspace(0.2, -0.1, n)))
    f = to_scalar_field(body)
    rule = equator_rule(n)
    first = detect(body, num_dirs=10, seed=3)
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
    # |w| |g| with a gradient, |w f(+FD_STEP)| / FD_STEP without, and
    # sum w |d| on the exact antipodes of S^0
    eta, psi = rule.nodes, np.zeros(rule.size)
    w = rule.weights
    if rule.sphere_dim == 1:
        return float(w @ np.abs(_reference_derivative(f, frame, rule)))
    if f.gradient is None:
        wf = w * f.evaluate(embed(frame, eta, psi + FD_STEP))
        return math.sqrt(float(wf @ wf)) / FD_STEP
    g = f.gradient(embed(frame, eta, psi))
    return math.sqrt(float(w @ w) * float(np.vdot(g, g)))


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_calibrate_matches_recorded_thresholds(n):
    # a default detect records the floor C eps max s, with C read off
    # calibrate for the field's derivative path and s the largest scale
    # of the poles it computed (the base half; each negative reuses its
    # base pole's scale), each equal to the reference form bit for bit
    rule = equator_rule(n)
    for body in _bodies(n):
        f = to_scalar_field(body)
        report = detect(body, num_dirs=8, seed=n)
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

