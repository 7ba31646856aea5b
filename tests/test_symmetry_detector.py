"""Detector sweeps: verdicts on known bodies and the antipodal pole set."""

import re
from dataclasses import replace

import numpy as np
import pytest

from starsym import (
    FRAME_SEED,
    RadialField,
    body_ball,
    body_ellipsoid,
    body_harmonic_perturbed_ball,
    body_shifted_ball,
    calibrate,
    default_resolution,
    detect,
    equator_rule,
    fibonacci_sphere,
    fourier_field,
    harmonic_field,
    make_frame,
    multiplier_table,
    random_directions,
    rotate_body,
    sample_poles,
    scale_body,
    strip_gradient,
    sweep,
    to_scalar_field,
    zonal_field,
)
from starsym import slice_transforms, symmetry_detector


def test_even_bodies_read_symmetric():
    for body in (body_ball(3, 1.0),
                 body_ellipsoid(3, (1.5, 1.0, 0.7)),
                 body_harmonic_perturbed_ball(0.05, 2, 1)):
        report = detect(body, num_dirs=40, seed=3)
        assert report.verdict == "symmetric", body.label
        assert report.max_abs < 1e-7


def test_shifted_ball_reads_asymmetric():
    report = detect(body_shifted_ball(3, 1.0, (0.1, 0.0, 0.0)), num_dirs=40, seed=3)
    assert report.verdict == "asymmetric"
    assert report.max_abs > 100.0 * report.threshold / 10.0
    assert "asymmetry detected" in report.note


def test_odd_harmonic_field_reads_asymmetric():
    f = harmonic_field({(3, 1): 0.05})
    report = sweep(f, num_dirs=30, seed=1)
    assert report.verdict == "asymmetric"


def test_antipodal_sweep_shows_sign_antisymmetry():
    body = body_shifted_ball(3, 1.0, (0.2, -0.1, 0.05))
    report = detect(body, num_dirs=24, seed=9)
    half = report.num_dirs // 2
    for i in range(half):
        assert np.allclose(report.xis[half + i], -report.xis[i])
        # the sweep reads A(-xi) off A(xi) by exact oddness
        assert report.values[half + i] == -report.values[i]


def test_even_body_reads_the_symmetric_note():
    report = detect(body_ellipsoid(3, (1.5, 1.0, 0.7)), num_dirs=16)
    assert report.verdict == "symmetric"
    assert "no asymmetry detected at this resolution" in report.note
    assert "not a proof of symmetry" in report.note


def test_report_fields_are_populated():
    body = body_ball(3, 1.0)
    report = detect(body, num_dirs=10, seed=5)
    assert report.num_dirs == 10
    assert report.xis.shape == (10, 3)
    assert report.values.shape == (10,)
    assert report.resolution > 0
    assert report.l2_mean <= report.max_abs + 1e-15
    assert report.xis.shape[1] == body.dim


def test_sample_poles_errors():
    for count in (0, -4):
        with pytest.raises(ValueError, match="^count must be positive$"):
            sample_poles(3, count)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_sample_poles_shapes_and_norms(n):
    # m = max(1, count // 2) base poles, Fibonacci in n = 3 and seeded
    # random otherwise, followed by their exact negatives
    for count, m in ((1, 1), (20, 10), (37, 18)):
        xis = sample_poles(n, count, seed=2)
        assert xis.shape == (2 * m, n)
        assert np.allclose(np.linalg.norm(xis, axis=1), 1.0, atol=1e-12)
        assert np.array_equal(xis[m:], -xis[:m])
        base = fibonacci_sphere(m) if n == 3 else random_directions(n, m, seed=2)
        assert np.array_equal(xis[:m], base)


def test_calibrate_is_deterministic_and_positive():
    # one constant per meridian-derivative path, the same on every call
    for gradient_path in (True, False):
        assert calibrate(gradient_path) == calibrate(gradient_path) > 0.0
    assert calibrate(False) > calibrate(True)


def test_calibrate_and_detect_share_one_cache_entry():
    calibrate(True)
    info = calibrate.cache_info()
    # a default detect reads its floor constant through calibrate's cache
    detect(body_ball(3, 1.0), num_dirs=10, seed=1)
    assert calibrate.cache_info().misses == info.misses
    assert calibrate.cache_info().hits == info.hits + 1


@pytest.mark.parametrize("n", range(2, 7))
def test_reports_record_the_rule_resolution(n):
    # a default sweep records the rule its values come from: the default
    # in n = 2, 3, and in n >= 4 the last level of its ladder, which a
    # centred ball leaves at resolution // 2
    body = body_ball(n, 1.0)
    report = detect(body, num_dirs=4, seed=1)
    default = equator_rule(n).resolution
    assert default == default_resolution(n)
    assert report.resolution == report.ladder[-1][0]
    assert report.resolution == (default if n <= 3 else default // 2)
    explicit = 64 if n <= 3 else 8
    report = detect(body, num_dirs=4, seed=1, rule_resolution=explicit)
    assert report.resolution == explicit
    assert [level[0] for level in report.ladder] == [explicit]


@pytest.mark.parametrize("call", [
    lambda: detect(body_ball(3, 1.0), num_dirs=4, rule_resolution=0),
    lambda: detect(body_ball(2, 1.0), num_dirs=4, rule_resolution=1),
    lambda: multiplier_table(1, resolution=0),
    lambda: multiplier_table(1, dim=2, resolution=0),
    lambda: equator_rule(2, 1),
], ids=["detect", "detect_n2", "multiplier_table",
        "multiplier_table_n2", "equator_rule_n2"])
def test_every_layer_refuses_a_resolution_below_two(call):
    with pytest.raises(ValueError, match="^resolution must be at least 2$"):
        call()


def test_fd_path_body_reads_symmetric():
    # strips the analytic gradient, forcing the finite-difference
    # meridian fallback; that path's floor must absorb its noise
    body = strip_gradient(body_ellipsoid(3, (1.3, 1.0, 0.8)))
    report = detect(body, num_dirs=20, seed=7)
    assert report.verdict == "symmetric"


def test_n2_and_n4_sweeps():
    r2 = detect(body_shifted_ball(2, 1.0, (0.15, -0.1)), num_dirs=20, seed=4)
    assert r2.verdict == "asymmetric"
    r4 = detect(body_ball(4, 1.2), num_dirs=12, seed=4)
    assert r4.verdict == "symmetric"


_SCALES = tuple(10.0 ** k for k in range(-3, 4))


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("path", [lambda b: b, strip_gradient],
                         ids=["gradient", "finite_difference"])
def test_verdicts_hold_at_every_scale(n, path):
    # A scales like s^(n-1) under dilation by s, and so must the threshold:
    # an even ellipsoid stays symmetric and a ball shifted by 1% of its
    # radius stays asymmetric from s = 1e-3 to s = 1e3
    even = path(body_ellipsoid(n, tuple(np.linspace(1.2, 0.8, n))))
    shift = np.zeros(n)
    shift[0] = 0.01
    odd = path(body_shifted_ball(n, 1.0, shift))
    for s in _SCALES:
        report = detect(scale_body(even, s), num_dirs=16, seed=5)
        assert report.verdict == "symmetric", (s, report.max_abs / report.threshold)
        report = detect(scale_body(odd, s), num_dirs=16, seed=5)
        assert report.verdict == "asymmetric", (s, report.max_abs / report.threshold)


@pytest.mark.parametrize("n, scale", [(6, 1e-35), (5, 1e-50)])
@pytest.mark.parametrize("path", [lambda b: b, strip_gradient],
                         ids=["gradient", "finite_difference"])
def test_tiny_even_bodies_read_symmetric(n, scale, path):
    # the squares behind the floor underflowed to 0, so these even bodies
    # read asymmetric with threshold 0.0 although rho^(n-1) is a normal double
    report = detect(path(body_ellipsoid(n, tuple(scale * np.linspace(1.4, 0.8, n)))))
    assert report.verdict == "symmetric"
    assert 0.0 < report.l2_mean <= report.max_abs < report.threshold


@pytest.mark.parametrize("path", [lambda b: b, strip_gradient],
                         ids=["gradient", "finite_difference"])
def test_huge_shifted_ball_reads_asymmetric(path):
    # the squares behind the floor and l2_mean overflowed to inf, so the
    # floor read this asymmetric body as symmetric; its values are those of
    # the unit-scale ball times 1e35^5, to within the rounding of the scaling
    center = np.zeros(6)
    center[0] = 0.2
    report = detect(path(body_shifted_ball(6, 1e35, 1e35 * center)))
    unit = detect(path(body_shifted_ball(6, 1.0, center)))
    assert report.verdict == unit.verdict == "asymmetric"
    assert report.resolution == unit.resolution
    for got, want in ((report.max_abs, unit.max_abs), (report.l2_mean, unit.l2_mean),
                      (report.threshold, unit.threshold)):
        assert got == pytest.approx(1e175 * want, rel=1e-9)


@pytest.mark.parametrize("size", [1e160, 1e300])
def test_huge_balls_pass_their_convexity_check(size):
    # the check took the norms of raw boundary midpoints, whose squares
    # overflowed: the n = 2 ball was refused as "declared convex=True
    # contradicted", and the n = 6 ball never reached its density refusal
    assert detect(body_ball(2, size), num_dirs=20).verdict == "symmetric"
    with pytest.raises(ValueError, match=re.escape(f"radius_bound = {size:g} puts the section "
                       "density rho^5/5 of an n = 6 body past the largest double")):
        detect(body_ball(6, size), num_dirs=20)


@pytest.mark.parametrize("kind, size", [("ellipsoid", 1e160), ("ellipsoid", 1e300),
                                        ("shifted_ball", 1e-160), ("shifted_ball", 1e160),
                                        ("shifted_ball", 1e300)])
def test_scaled_convex_disks_keep_their_verdicts(kind, size):
    # unit n = 2 bodies declared convex, dilated to sizes whose squares leave
    # the double range; the convexity check refused the tiny shifted ball,
    # its midpoint norms lost in the subnormals, and overflowed on the rest
    unit, verdict = {"ellipsoid": (body_ellipsoid(2, (1.5, 0.7)), "symmetric"),
                     "shifted_ball": (body_shifted_ball(2, 1.0, [0.3, 0.0]), "asymmetric")}[kind]
    assert detect(scale_body(unit, size), num_dirs=20).verdict == verdict


@pytest.mark.parametrize("path", [lambda b: b, strip_gradient],
                         ids=["gradient", "finite_difference"])
@pytest.mark.parametrize("n, radius, shift", [(3, 1e8, 0.1), (5, 1e35, 1e26)])
def test_large_bodies_with_exact_gradients_construct(path, n, radius, shift):
    # construction checks a gradient against finite differences that round
    # rho to about eps * rho / FD_STEP; a tolerance set by the Lipschitz
    # bound alone refused these exact gradients
    center = np.zeros(n)
    center[0] = shift
    assert detect(path(body_shifted_ball(n, radius, center))).verdict == "asymmetric"


@pytest.mark.parametrize("n", [3, 5])
def test_threshold_is_the_floor_times_the_field_size(n):
    # the field's size here is its roundoff scale s, the largest over the
    # transforms of the rule the sweep reports; a declared sup bound
    # plays no part
    body = body_shifted_ball(n, 2.0, np.linspace(0.3, -0.1, n))
    f = to_scalar_field(body)
    xis = sample_poles(n, 12, seed=2)
    for field in (f, strip_gradient(f)):
        report = sweep(field, num_dirs=12, seed=2)
        rule = equator_rule(n, report.resolution)
        frames = [make_frame(xi, seed=FRAME_SEED) for xi in xis[:6]]
        scale = float(slice_transforms._pole_transforms(field, frames, rule)[1].max())
        floor = calibrate(field.gradient is not None) * np.finfo(float).eps * scale
        assert report.threshold == floor == report.ladder[-1][3]
        assert report.verdict == "asymmetric"
        assert sweep(replace(field, sup_bound=None), num_dirs=12, seed=2).threshold == floor


def _rotation(n, seed):
    q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((n, n)))
    return q


def _even_bodies(n):
    # rotated ellipsoids with random axes at scales 1e-2..1e2, an
    # ellipsoid one part in 1e6 from a ball (where a scale taken from
    # the derivatives alone would miss the radial part of the gradient)
    # and, in n = 3, even harmonic bumps
    rng = np.random.default_rng(40 + n)
    bodies = [rotate_body(body_ellipsoid(n, 10.0 ** rng.uniform(-2.0, 2.0)
                                         * np.exp(rng.uniform(-0.6, 0.6, n))),
                          _rotation(n, k))
              for k in range(4)]
    bodies.append(rotate_body(body_ellipsoid(n, (1.0 + 1e-6,) + (1.0,) * (n - 1)),
                              _rotation(n, 7)))
    if n == 3:
        bodies += [body_harmonic_perturbed_ball(0.04, 2, 1),
                   body_harmonic_perturbed_ball(0.03, 4, 2),
                   body_harmonic_perturbed_ball(0.1, 4, -3)]
    return bodies


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("path", [lambda b: b, strip_gradient],
                         ids=["gradient", "finite_difference"])
@pytest.mark.parametrize("coarse", [False, True], ids=["default", "coarse"])
def test_even_bodies_stay_ten_times_below_the_floor(n, path, coarse):
    # the recorded floor constants; on even bodies max |A| measured at
    # most 0.84 eps s with a gradient and 9.7 eps s without
    assert (calibrate(True), calibrate(False)) == (32.0, 128.0)
    resolution = (16 if n == 3 else 8) if coarse else None
    for body in _even_bodies(n):
        report = detect(path(body), num_dirs=32, seed=2024, rule_resolution=resolution)
        assert report.max_abs <= report.threshold / 10.0, (
            body.label, report.max_abs / report.threshold)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_default_detect_resolves_a_tiny_shift(n):
    # a unit ball shifted along e_1; on the gradient path the floor is
    # eps-relative to the gradient, which a centred ball does not have,
    # so shifts of 1e-13 (1e-17 in n = 2) read asymmetric.  The
    # finite-difference floor follows the evaluation noise |w f| / h:
    # from n = 3 on it resolves 1e-11 and misses 1e-12; in n = 2, whose
    # two nodes carry all the weight, it resolves 1e-9 and misses 1e-10
    def shifted(delta, fd=False):
        body = body_shifted_ball(n, 1.0, delta * np.eye(n)[0])
        return detect(strip_gradient(body) if fd else body).verdict

    assert shifted(1e-17 if n == 2 else 1e-13) == "asymmetric"
    seen, missed = (1e-9, 1e-10) if n == 2 else (1e-11, 1e-12)
    assert shifted(seen, fd=True) == "asymmetric"
    assert shifted(missed, fd=True) == "symmetric"


def test_n2_floor_holds_for_fields_that_are_not_bitwise_even():
    # rho = 1 + 0.1 cos(2 theta) through arctan2 is even only to within
    # rounding; the floor follows its evaluation noise as in every n
    body = RadialField(dim=2, evaluate=lambda u: 1.0 + 0.1 * np.cos(
        2.0 * np.arctan2(u[..., 1], u[..., 0])), radius_bound=1.1, radius_floor=0.9)
    report = detect(body)
    assert report.verdict == "symmetric", report.note
    assert report.max_abs <= report.threshold / 10.0


@pytest.mark.parametrize("path", [lambda f: f, strip_gradient],
                         ids=["gradient", "finite_difference"])
def test_even_fourier_field_sweeps_exact_zero(path):
    # even frequencies only: the zonal recurrence makes the field bitwise
    # even, so both derivative paths cancel exactly on the two nodes
    f = path(fourier_field(0.3, (0.0, 0.5, 0.0, 0.2), (0.0, 0.1)))
    report = sweep(f)
    assert report.max_abs == 0.0
    assert report.verdict == "symmetric"


def _zonal_bump(n, degree, size):
    # rho = 1 + size P_l(<u, a>); sup |P_l| = P_l(1) = 1, so size is the
    # sup of the bump, odd in u for odd l
    z = zonal_field(n, degree, np.linspace(1.0, 0.3, n))
    return RadialField(dim=n, evaluate=lambda u: 1.0 + size * z.evaluate(u),
                       gradient=lambda u: size * z.gradient(u),
                       radius_bound=1.0 + size, radius_floor=1.0 - size,
                       label=f"zonal_bump(l={degree}, size={size:g})")


def _near_floor_bodies(n):
    shifts = [body_shifted_ball(n, 1.0, delta * np.eye(n)[0])
              for delta in (1e-12, 2e-12, 3e-12, 5e-12, 1e-11)]
    bumps = [_zonal_bump(n, degree, size)
             for degree in (1, 3, 5, 7, 9) for size in (1e-14, 1e-13, 1e-12, 1e-11)]
    return shifts + bumps


@pytest.mark.parametrize("n", [4, 5, 6])
@pytest.mark.parametrize("path", [lambda b: b, strip_gradient],
                         ids=["gradient", "finite_difference"])
def test_default_ladder_keeps_the_default_rule_verdict(n, path):
    # odd content within a decade of the finite-difference floor: tiny
    # shifts and odd zonal bumps.  A coarse level's values can settle to
    # within its floor while its verdict still differs from the default
    # rule's (the finite-difference floor falls with the node count), so
    # a ladder that stopped on convergence alone flips some of these;
    # every default sweep must read the default rule's verdict
    default = default_resolution(n)
    for body in _near_floor_bodies(n):
        body = path(body)
        report = detect(body)
        want = detect(body, rule_resolution=default)
        assert report.verdict == want.verdict, (body.label, report.ladder)
        levels = [level[0] for level in report.ladder]
        coarse = [default // 4, default // 2]
        assert levels in (coarse, coarse + [default], coarse + [default // 2],
                          coarse + [default // 2, default])
        resolution, nodes, move, floor = report.ladder[-1]
        assert (resolution, nodes) == (report.resolution, equator_rule(n, resolution).size)
        if resolution == default:
            assert np.array_equal(report.values, want.values), body.label
            assert report.threshold == want.threshold
        else:
            assert move <= floor == report.threshold


@pytest.mark.parametrize("n", [5, 6])
@pytest.mark.parametrize("path", [lambda b: b, strip_gradient],
                         ids=["gradient", "finite_difference"])
def test_a_level_the_second_frames_confirm_is_the_half_rule_sweep(n, path):
    # the r // 4 level is too coarse to confirm the r // 2 level of a
    # shifted ball; the same rule on the second frame completion does, and
    # the sweep stops there with what an explicit sweep of that rule
    # returns, bit for bit.  The check is its own ladder entry, compared
    # with the r // 2 level's floor
    half = default_resolution(n) // 2
    f = to_scalar_field(path(body_shifted_ball(n, 1.0, np.linspace(0.2, -0.1, n))))
    report = sweep(f)
    want = sweep(f, rule_resolution=half)
    size = equator_rule(n, half).size
    assert [level[:2] for level in report.ladder] == [
        (half // 2, equator_rule(n, half // 2).size), (half, size), (half, size)]
    (_, _, move, floor), (_, _, check, check_floor) = report.ladder[1:]
    assert move > floor and check <= check_floor == floor == want.threshold
    assert np.array_equal(report.values, want.values)
    assert np.array_equal(np.signbit(report.values), np.signbit(want.values))
    for name in ("resolution", "threshold", "max_abs", "l2_mean", "verdict", "note"):
        assert getattr(report, name) == getattr(want, name), name
    assert report.verdict == "asymmetric"


@pytest.mark.parametrize("n", [5, 6])
def test_the_second_frames_complete_each_pole_another_way(n):
    # the check's frames span the same equator as the sweep's, in bases
    # that are not a signed permutation of the first ones, so the same
    # rule lands on other equator points; they are built only by a sweep
    # that runs the check, as the shifted ball's does and the ball's not
    frames_of = symmetry_detector._pole_frames
    frames_of.cache_clear()
    detect(body_ball(n, 1.0), num_dirs=8, seed=3)
    assert frames_of.cache_info().currsize == 1
    detect(body_shifted_ball(n, 1.0, np.linspace(0.2, -0.1, n)), num_dirs=8, seed=3)
    assert frames_of.cache_info().currsize == 2
    xis, frames = frames_of(n, 8, 3)
    second = frames_of(n, 8, 3, symmetry_detector._CHECK_SEED)[1]
    assert len(second) == len(frames) == 4
    for xi, first, other in zip(xis, frames, second):
        assert np.array_equal(other.pole, first.pole)
        assert np.allclose(other.basis @ other.basis.T, np.eye(n - 1), atol=1e-12)
        assert np.allclose(other.basis @ xi, 0.0, atol=1e-12)
        turn = np.abs(first.basis @ other.basis.T)
        assert not np.allclose(np.max(turn, axis=1), 1.0)
