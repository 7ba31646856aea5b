"""Frames, latitude embedding, and quadrature rules."""

import math
import os
import subprocess
import sys
from functools import partial

import numpy as np
import pytest

from starsym import (
    DIM_MAX,
    DIM_MIN,
    FRAME_SEED,
    body_shifted_ball,
    default_resolution,
    detect,
    embed,
    equator_rule,
    fibonacci_sphere,
    geodesic_distance,
    hyperplane_section,
    make_frame,
    probe_directions,
    random_directions,
    random_rotation,
    sphere_rule,
    unit_vector,
    vol_sphere,
)
from starsym import slice_transforms, symmetry_detector, verify
from starsym.sphere_geom import _polar_rule, check_dim


def test_vol_sphere_closed_forms():
    # S^0 is two points, S^1 the circle, S^2 the usual sphere, S^3 in R^4
    assert vol_sphere(0) == pytest.approx(2.0, abs=1e-14)
    assert vol_sphere(1) == pytest.approx(2.0 * math.pi, abs=1e-13)
    assert vol_sphere(2) == pytest.approx(4.0 * math.pi, abs=1e-13)
    assert vol_sphere(3) == pytest.approx(2.0 * math.pi ** 2, abs=1e-13)


def test_dim_window():
    assert check_dim(DIM_MIN) == DIM_MIN
    assert check_dim(DIM_MAX) == DIM_MAX
    for bad in (DIM_MIN - 1, DIM_MAX + 1, 0, -3):
        with pytest.raises(ValueError):
            check_dim(bad)


def test_unit_vector_and_direction():
    u = unit_vector([3.0, 4.0])
    assert np.allclose(u, [0.6, 0.8], atol=1e-15)
    with pytest.raises(ValueError):
        unit_vector([0.0, 0.0])


@pytest.mark.parametrize("v, want", [
    ([1e200, 1e200, 0.0], [math.sqrt(0.5), math.sqrt(0.5), 0.0]),
    ([1e300, 0.0, 0.0], [1.0, 0.0, 0.0]),
    ([1e-13, 0.0, 0.0], [1.0, 0.0, 0.0]),
    ([0.0, -3e-200, 4e-200], [0.0, -0.6, 0.8]),
    ([5e-324, 0.0], [1.0, 0.0]),
], ids=["overflowing", "huge", "tiny", "underflowing", "subnormal"])
def test_unit_vector_of_any_finite_nonzero_vector(v, want):
    # |v|^2 overflowed to inf (a zero vector) or fell below the old 1e-12
    # norm cut-off; only the zero vector has no direction
    u = unit_vector(v)
    assert np.allclose(u, want, rtol=0.0, atol=1e-15)
    assert make_frame(v).pole.tolist() == u.tolist()
    with pytest.raises(ValueError, match="^direction is the zero vector$"):
        unit_vector(np.zeros(len(v)))


def test_unit_vector_keeps_the_bits_of_v_over_its_norm():
    # scaling by a power of two is exact, so ordinary inputs keep every bit
    rng = np.random.default_rng(3)
    for _ in range(500):
        n = int(rng.integers(2, 7))
        v = rng.standard_normal(n) * 10.0 ** rng.uniform(-8.0, 8.0)
        assert unit_vector(v).tobytes() == (v / float(np.linalg.norm(v))).tobytes()


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_unit_vector_refuses_non_finite_components(bad):
    with pytest.raises(ValueError, match="^direction has non-finite components$"):
        unit_vector([bad, 0.0, 1.0])


@pytest.mark.parametrize("n", range(2, 7))
def test_frame_orthonormality(n):
    rng = np.random.default_rng(10 + n)
    for _ in range(5):
        frame = make_frame(rng.standard_normal(n), seed=3)
        rows = np.vstack([frame.pole, frame.basis])
        assert np.max(np.abs(rows @ rows.T - np.eye(n))) < 1e-12


@pytest.mark.parametrize("n", (2, 3, 4, 5))
def test_embed_lands_on_latitude_sphere(n):
    # the latitude set is simultaneously on the sphere, on the cone of
    # polar cosine z, and on the hyperplane <u, xi> = z
    frame = make_frame(np.arange(1.0, n + 1.0), seed=0)
    rule = equator_rule(n, 16 if n > 2 else None)
    for z in (-0.95, -0.4, 0.0, 0.3, 0.9):
        u = embed(frame, rule.nodes, math.asin(z))
        assert np.max(np.abs(np.linalg.norm(u, axis=1) - 1.0)) < 1e-14
        assert np.max(np.abs(u @ frame.pole - z)) < 1e-14


def test_embed_rejects_bad_inputs():
    frame = make_frame([0.0, 0.0, 1.0], seed=0)
    eta = equator_rule(3, 8).nodes
    with pytest.raises(ValueError):
        embed(frame, eta, 2.0)
    with pytest.raises(ValueError):
        embed(frame, 2.0 * eta, 0.1)


@pytest.mark.parametrize("d", (1, 2, 3, 4, 5))
def test_rule_mass_and_positivity(d):
    rule = sphere_rule(d, 12)
    assert np.all(rule.weights > 0)
    assert np.max(np.abs(np.linalg.norm(rule.nodes, axis=1) - 1.0)) < 1e-13
    assert float(np.sum(rule.weights)) == pytest.approx(vol_sphere(d - 1), rel=1e-13)


def exact_monomial_integral(d, exponents):
    """Closed form of integral over S^{d-1} of prod_i u_i^{a_i}.

    Zero when any exponent is odd; otherwise
    2 * prod Gamma((a_i+1)/2) / Gamma(sum (a_i+1)/2).
    """
    exps = [int(a) for a in exponents]
    if len(exps) != d:
        raise ValueError("need one exponent per coordinate")
    if any(a < 0 for a in exps):
        raise ValueError("exponents must be nonnegative")
    if any(a % 2 == 1 for a in exps):
        return 0.0
    betas = [(a + 1) / 2.0 for a in exps]
    num = 2.0 * math.prod(math.gamma(b) for b in betas)
    return num / math.gamma(sum(betas))


@pytest.mark.parametrize("d", (2, 3, 4, 5))
def test_rule_integrates_monomials_exactly(d):
    # oracle: closed-form gamma quotient for monomial moments
    rule = sphere_rule(d, 10)
    rng = np.random.default_rng(d)
    for _ in range(40):
        total = int(rng.integers(0, min(rule.degree, 8) + 1))
        parts = rng.multinomial(total, np.full(d, 1.0 / d))
        vals = np.prod(rule.nodes ** parts, axis=1)
        got = float(rule.weights @ vals)
        want = exact_monomial_integral(d, tuple(int(p) for p in parts))
        assert got == pytest.approx(want, abs=1e-12 * max(1.0, abs(want)))


def test_monomial_oracle_hand_values():
    # hand checks: int_{S^2} x^2 = 4 pi / 3, int_{S^1} x^4 = 3 pi / 4,
    # odd powers vanish
    assert exact_monomial_integral(3, (2, 0, 0)) == pytest.approx(4 * math.pi / 3, rel=1e-14)
    assert exact_monomial_integral(2, (4, 0)) == pytest.approx(3 * math.pi / 4, rel=1e-14)
    assert exact_monomial_integral(3, (1, 2, 0)) == 0.0
    assert exact_monomial_integral(2, (0, 0)) == pytest.approx(2 * math.pi, rel=1e-14)


def test_two_point_rule_for_n2():
    rule = equator_rule(2)
    assert rule.nodes.shape == (2, 1)
    assert sorted(rule.nodes.ravel()) == [-1.0, 1.0]
    assert np.allclose(rule.weights, [1.0, 1.0])


def test_equator_rule_matches_frame_dimension():
    for n in range(2, 7):
        rule = equator_rule(n, 8 if n > 2 else None)
        assert rule.nodes.shape[1] == n - 1


@pytest.mark.parametrize("n", range(2, 7))
def test_equator_rule_owns_the_default_resolution(n):
    assert equator_rule(n).resolution == default_resolution(n)
    assert equator_rule(n, 8).resolution == 8
    for bad in (1, 0, -3):
        with pytest.raises(ValueError, match="resolution must be at least 2"):
            equator_rule(n, bad)


def test_equator_rule_refuses_a_non_integral_resolution():
    # 256.9 is not truncated to 256; integral values of any type build the
    # one cached rule of that resolution
    with pytest.raises(ValueError, match=r"resolution must be an integer, got 256\.9$"):
        equator_rule(3, 256.9)
    with pytest.raises(ValueError, match="resolution must be an integer"):
        sphere_rule(2, 256.9)
    rule = equator_rule(3, 256)
    for same in (np.int64(256), np.int32(256), 256.0):
        assert equator_rule(3, same) is rule
    assert type(rule.resolution) is int


def test_equator_rule_caps_its_node_count():
    # a rule of more than 2^21 nodes is refused before any node is
    # allocated, in every dimension; the largest rule the tests build
    # (n = 6 at resolution 48) still builds
    for n, resolution, size in ((6, 66, 2371842), (4, 2050, 2050 * 1025),
                                (3, 2 ** 21 + 1, 2 ** 21 + 1)):
        with pytest.raises(ValueError, match=rf"resolution {resolution} on S\^{n - 2} gives "
                                             rf"a rule of {size} nodes; at most 2097152 "
                                             rf"are allowed$"):
            equator_rule(n, resolution)
    assert equator_rule(6, 48).size == 663552


def test_rules_are_antipodally_paired():
    # even resolutions must pair each node with its negative so that
    # even integrands cancel exactly
    for d in (2, 3, 4):
        rule = sphere_rule(d, 8)
        nodes = rule.nodes
        dists = np.linalg.norm(nodes[:, None, :] + nodes[None, :, :], axis=2)
        assert float(np.max(np.min(dists, axis=1))) < 1e-12


def test_fibonacci_and_probe_grids():
    pts = fibonacci_sphere(500)
    assert pts.shape == (500, 3)
    assert np.max(np.abs(np.linalg.norm(pts, axis=1) - 1.0)) < 1e-12
    for n in (2, 3, 4, 5):
        grid = probe_directions(n, 300)
        assert grid.shape[0] >= 300
        assert grid.shape[1] == n
        assert np.max(np.abs(np.linalg.norm(grid, axis=1) - 1.0)) < 1e-12


@pytest.mark.parametrize("count", [4, 50, 300, 2000, 2048, 4000])
def test_circle_probe_grid_is_uniform_midpoint_angles(count):
    # the product-grid path gives n = 2 exactly the uniform midpoint
    # angles of `count` points for every even count from 4 on
    ang = 2.0 * math.pi * (np.arange(count) + 0.5) / count
    assert np.array_equal(probe_directions(2, count),
                          np.column_stack([np.cos(ang), np.sin(ang)]))


def test_probe_grid_covers_harmonic_certification_radius():
    # the harmonic sup bounds inflate probe maxima by 1/(1 - l * 0.045);
    # a sampled covering radius comfortably below 0.045 backs that up
    grid = fibonacci_sphere(8192)
    sample = probe_directions(3, 4000)
    worst = 0.0
    for i in range(0, len(sample), 500):
        chunk = sample[i:i + 500]
        d = np.linalg.norm(chunk[:, None, :] - grid[None, :, :], axis=2).min(axis=1)
        worst = max(worst, float(d.max()))
    assert 2.0 * math.asin(worst / 2.0) < 0.045


def test_random_directions_seeded():
    a = random_directions(4, 32, seed=5)
    b = random_directions(4, 32, seed=5)
    c = random_directions(4, 32, seed=6)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert np.max(np.abs(np.linalg.norm(a, axis=1) - 1.0)) < 1e-12


def test_random_rotation_is_special_orthogonal():
    for n in (2, 3, 4):
        r = random_rotation(n, seed=9)
        assert np.max(np.abs(r @ r.T - np.eye(n))) < 1e-12
        assert np.linalg.det(r) == pytest.approx(1.0, abs=1e-12)


def test_geodesic_distance_special_values():
    u = np.array([1.0, 0.0, 0.0])
    assert geodesic_distance(u, u) == pytest.approx(0.0, abs=1e-15)
    assert geodesic_distance(u, -u) == pytest.approx(math.pi, abs=1e-12)
    v = np.array([0.0, 1.0, 0.0])
    assert geodesic_distance(u, v) == pytest.approx(math.pi / 2, abs=1e-12)


def test_make_frame_deterministic():
    a = make_frame([0.0, 1.0, 0.0], seed=0)
    b = make_frame([0.0, 1.0, 0.0], seed=0)
    assert np.array_equal(a.basis, b.basis)


def test_default_frame_is_the_sweep_frame():
    xi = [0.3, -0.4, 0.86]
    assert np.array_equal(make_frame(xi).basis, make_frame(xi, seed=FRAME_SEED).basis)


def test_polar_rule_names_an_unsupported_even_power():
    with pytest.raises(ValueError, match="even sine power 4"):
        _polar_rule(4, 8)


# Run in a fresh interpreter: other test modules import scipy themselves.
_NO_SCIPY = """
import sys
import numpy as np
import starsym.cli
from starsym import default_resolution, equator_rule, vol_sphere
rules = {n: equator_rule(n) for n in range(2, 7)}
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
assert not loaded, loaded
from scipy.special import roots_gegenbauer


def product_rule(n, gegenbauer):
    # the product rule written out: the circle, then the polar factor
    # sin^j for j = 1..n-3, Gauss-Legendre for odd j and, for j = 2,
    # Gauss-Chebyshev of the second kind in closed form or from scipy
    res = default_resolution(n)
    count = res // 2
    angles = 2.0 * np.pi * np.arange(res) / res
    nodes = np.column_stack([np.cos(angles), np.sin(angles)])
    weights = np.full(res, 2.0 * np.pi / res)
    for j in range(1, n - 2):
        if j % 2:
            t, w = np.polynomial.legendre.leggauss(count)
            w = w * (1.0 - t * t) ** ((j - 1) // 2)
        elif gegenbauer:
            t, w = roots_gegenbauer(count, 1.0)
        else:
            a = np.pi * np.arange(1 - count, count, 2) / (2 * (count + 1))
            t = np.sin(a)
            w = np.pi / (count + 1) * np.cos(a) ** 2
        s = np.sqrt(np.clip(1.0 - t * t, 0.0, None))
        nodes = np.concatenate(
            [nodes[None, :, :] * s[:, None, None],
             np.broadcast_to(t[:, None, None], (count, nodes.shape[0], 1))],
            axis=2).reshape(-1, nodes.shape[1] + 1)
        weights = (w[:, None] * weights[None, :]).reshape(-1)
    weights = weights * (vol_sphere(n - 2) / weights.sum())
    return nodes, weights


for n in (5, 6):
    rule = rules[n]
    nodes, weights = product_rule(n, gegenbauer=False)
    assert np.array_equal(rule.nodes, nodes), n
    assert np.array_equal(rule.weights, weights), n
    nodes, weights = product_rule(n, gegenbauer=True)
    assert np.max(np.abs(rule.nodes - nodes)) <= 1e-14, n
    # relative to the largest weight: scipy's smallest n = 5 weights are
    # themselves off by about 1.7e-14 of their size
    assert np.max(np.abs(rule.weights - weights)) <= 1e-14 * np.max(weights), n
"""


def test_rules_build_without_scipy():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", _NO_SCIPY], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def _same(got, want):
    return len(got) == len(want) and all(a is b for a, b in zip(got, want))


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_every_rule_site_takes_the_cached_rules_it_always_took(n, monkeypatch):
    # hyperplane cuts, detector sweeps and verify's pointwise checks take
    # their coarser rules from one family walk; each gets sphere_rule's
    # cached objects at the resolutions below.  A cut solves on the
    # resolution-6 and -8 fit rules (n >= 3), then on r // 4, r // 2 and r,
    # or on r alone below resolution 8 and at n = 2.  A default sweep of at
    # least 2048 nodes visits r // 4 and r // 2, maybe r // 2 again on the
    # second frame completion, and then maybe r; any other sweep visits r.
    # The pointwise rule halves r until it has at most 2048 nodes
    solved, swept = [], []
    solve, transforms = slice_transforms._solve, symmetry_detector._pole_transforms
    monkeypatch.setattr(slice_transforms, "_solve", lambda body, frame, cuts, index, rule:
                        solved.append(rule) or solve(body, frame, cuts, index, rule))
    monkeypatch.setattr(symmetry_detector, "_pole_transforms", lambda f, frames, rule:
                        swept.append(rule) or transforms(f, frames, rule))
    body = body_shifted_ball(n, 1.0, np.linspace(0.25, -0.15, n))
    frame = make_frame(np.arange(1.0, n + 1.0))
    pointwise = {(5, None): 16, (6, None): 8, (6, 12): 6}
    at = partial(sphere_rule, n - 1)
    for resolution in (None, 4, 8, 12):
        r = default_resolution(n) if resolution is None else resolution
        solved.clear()
        swept.clear()
        rule = equator_rule(n, resolution)
        hyperplane_section(body, frame, np.array([-0.4, 0.3]), rule)
        detect(body, num_dirs=8, rule_resolution=resolution)
        rungs = [at(r // 4), at(r // 2), at(r)] if n > 2 and r >= 8 else [at(r)]
        assert _same(solved, ([at(6), at(8)] if n > 2 else []) + rungs), (n, resolution)
        if resolution is None and at(r).size >= 2048:
            check = rungs[:2] + rungs[1:2]
            assert any(_same(swept, path) for path in (
                rungs[:2], rungs, check, check + rungs[2:])), n
        else:
            assert _same(swept, [at(r)]), (n, resolution)
        assert verify._pointwise_rule(n, resolution) is at(pointwise.get((n, resolution), r))
