"""Spherical and zonal harmonics, transform multipliers, and the n=2 Fourier case."""

import math

import numpy as np
import pytest
from scipy.special import sph_harm_y

from starsym import (
    LMAX,
    embed,
    equator_derivative,
    equator_transform,
    estimate_multiplier,
    fourier_check_n2,
    fourier_field,
    funk_hecke_multiplier,
    harmonic_field,
    make_frame,
    multiplier_table,
    equator_rule,
    probe_directions,
    random_directions,
    real_harmonic,
    sphere_rule,
    transform_sweep,
    zonal_field,
)
from starsym import harmonics, slice_transforms


def _double_factorial(k):
    out = 1
    while k > 1:
        out *= k
        k -= 2
    return out


def closed_form_multiplier(l):
    # independent oracle: the degree-l multiplier equals 2 pi times the
    # derivative of the Legendre polynomial at 0; odd l = 2k+1 gives
    # (-1)^k (2k+1)!! / (2k)!!, even l gives 0
    if l % 2 == 0:
        return 0.0
    k = (l - 1) // 2
    return 2.0 * math.pi * (-1) ** k * _double_factorial(2 * k + 1) / _double_factorial(2 * k)


def test_real_harmonics_match_scipy():
    # frozen oracle: our convention differs from the complex harmonics
    # by (-1)^m sqrt(2) on the real/imaginary parts
    rng = np.random.default_rng(0)
    pts = rng.standard_normal((200, 3))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    theta = np.arccos(np.clip(pts[:, 2], -1.0, 1.0))
    phi = np.arctan2(pts[:, 1], pts[:, 0])
    for l in range(LMAX + 1):
        for m in range(-l, l + 1):
            mine = real_harmonic(l, m).evaluate(pts)
            z = sph_harm_y(l, abs(m), theta, phi)
            if m == 0:
                ref = z.real
            elif m > 0:
                ref = (-1) ** m * math.sqrt(2.0) * z.real
            else:
                ref = (-1) ** m * math.sqrt(2.0) * z.imag
            assert np.max(np.abs(mine - ref)) < 1e-12, (l, m)


def test_real_harmonics_orthonormal():
    rule = sphere_rule(3, 24)
    pairs = [(0, 0), (1, 1), (2, -1), (3, 2), (4, 0), (5, -3)]
    vals = {p: real_harmonic(*p).evaluate(rule.nodes) for p in pairs}
    for i, p in enumerate(pairs):
        for q in pairs[i:]:
            got = float(rule.weights @ (vals[p] * vals[q]))
            want = 1.0 if p == q else 0.0
            assert got == pytest.approx(want, abs=1e-12)


def test_harmonic_gradients_match_fd():
    frame = make_frame([0.1, -0.7, 0.7], seed=3)
    eta = equator_rule(3, 16).nodes
    psi = np.linspace(-1.0, 1.0, len(eta))
    # each point embed(eta, psi) lies on the equator of its meridian tangent
    poles = np.cos(psi)[:, None] * frame.pole - np.sin(psi)[:, None] * (eta @ frame.basis)
    points = embed(frame, eta, psi)
    for (l, m) in ((1, 0), (3, 2), (6, -4), (9, 9)):
        y = real_harmonic(l, m)
        a = equator_derivative(y.evaluate, y.gradient, poles, points)
        b = equator_derivative(y.evaluate, None, poles, points)
        assert np.max(np.abs(a - b)) < 1e-7, (l, m)


def test_harmonic_sup_bounds_hold():
    grid = probe_directions(3, 6000)
    for (l, m) in ((2, 1), (5, -2), (8, 3), (10, 0)):
        y = real_harmonic(l, m)
        assert float(np.max(np.abs(y.evaluate(grid)))) <= y.sup_bound


def test_real_harmonic_rejects_bad_orders():
    with pytest.raises(ValueError):
        real_harmonic(LMAX + 1, 0)
    with pytest.raises(ValueError):
        real_harmonic(2, 3)


def test_odd_multipliers_match_legendre_closed_form():
    for l in (1, 3, 5, 7, 9):
        lam, residual = estimate_multiplier(l, num_xi=16, seed=4)
        assert lam == pytest.approx(closed_form_multiplier(l), abs=1e-9), l
        assert residual < 1e-9


def test_even_multipliers_vanish():
    for l in (2, 4, 6):
        lam, residual = estimate_multiplier(l, num_xi=16, seed=4)
        assert abs(lam) < 1e-12
        assert residual < 1e-12


def test_estimate_multiplier_takes_no_order():
    # an order passed where it used to go must not be read as a dimension
    with pytest.raises(TypeError):
        estimate_multiplier(3, 2)


def test_multiplier_table_structure_and_determinism():
    t1 = multiplier_table(5, num_xi=12, seed=8)
    t2 = multiplier_table(5, num_xi=12, seed=8)
    assert t1.degrees == (0, 1, 2, 3, 4, 5)
    assert t1.multipliers == t2.multipliers
    # the default dimension is 3
    assert t1.multipliers == multiplier_table(5, dim=3, num_xi=12, seed=8).multipliers
    lam = dict(zip(t1.degrees, t1.multipliers))
    assert lam[1] == pytest.approx(2.0 * math.pi, abs=1e-9)
    assert lam[3] == pytest.approx(-3.0 * math.pi, abs=1e-9)
    assert lam[5] == pytest.approx(15.0 * math.pi / 4.0, abs=1e-9)


def _count_frames(monkeypatch):
    # frames completed by the table itself or by a sweep over bare poles
    calls = []
    make = harmonics.make_frame

    def counted(*args, **kwargs):
        calls.append(args[0])
        return make(*args, **kwargs)

    monkeypatch.setattr(harmonics, "make_frame", counted)
    monkeypatch.setattr(slice_transforms, "make_frame", counted)
    return calls


def test_multiplier_table_completes_each_pole_once(monkeypatch):
    # one frame per pole for the whole table; the values are those of
    # zonal sweeps over bare poles, which complete a frame per degree
    calls = _count_frames(monkeypatch)
    lmax, num_xi, resolution, seed = 5, 7, 128, 3
    table = multiplier_table(lmax, num_xi=num_xi, resolution=resolution, seed=seed)
    assert len(calls) == num_xi
    xis = random_directions(3, num_xi, seed=seed)
    rule = equator_rule(3, resolution)
    lams, residuals = [], []
    for l in range(lmax + 1):
        f = zonal_field(3, l, (1.0, 2.0, 3.0))
        t = transform_sweep(f, xis, rule)
        v = f.evaluate(xis)
        lams.append(float(t @ v) / float(v @ v))
        residuals.append(float(np.max(np.abs(t - lams[-1] * v))))
    assert np.array_equal(table.multipliers, lams)
    assert np.array_equal(table.residuals, residuals)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_zonal_field_values_and_gradients(n):
    # P(1) = 1; cos(l theta) about the axis at n = 2 and Legendre at
    # n = 3; the exact gradient matches meridian central differences
    axis = random_directions(n, 1, seed=n)[0]
    u = random_directions(n, 40, seed=10 + n)
    poles = random_directions(n, 40, seed=20 + n)
    poles -= np.sum(poles * u, axis=1, keepdims=True) * u
    poles /= np.linalg.norm(poles, axis=1, keepdims=True)
    cos_angle = np.clip(u @ axis, -1.0, 1.0)
    for l in range(LMAX + 1):
        e = np.eye(n)[n - 1]
        assert zonal_field(n, l, e).evaluate(e) == 1.0, l
        f = zonal_field(n, l, axis)
        if n == 2:
            want = np.cos(l * np.arccos(cos_angle))
            assert np.max(np.abs(f.evaluate(u) - want)) < 1e-12, l
        if n == 3:
            want = np.polynomial.legendre.Legendre.basis(l)(cos_angle)
            assert np.max(np.abs(f.evaluate(u) - want)) < 1e-13, l
        a = equator_derivative(f.evaluate, f.gradient, poles, u)
        b = equator_derivative(f.evaluate, None, poles, u)
        assert np.max(np.abs(a - b)) < 1e-7 * max(1, l * l), l


def test_funk_hecke_multiplier_closed_forms():
    for l in range(LMAX + 1):
        assert funk_hecke_multiplier(2, l) == pytest.approx(
            2.0 * l * math.sin(l * math.pi / 2.0), abs=1e-12)
        assert funk_hecke_multiplier(3, l) == pytest.approx(closed_form_multiplier(l), abs=1e-12)
        want4 = 0.0 if l % 2 == 0 else (-1) ** (l // 2) * 4.0 * math.pi
        assert funk_hecke_multiplier(4, l) == pytest.approx(want4, abs=1e-12)
        for n in range(2, 7):
            if l % 2 == 0:
                # +0.0, so that no artifact prints -0
                assert math.copysign(1.0, funk_hecke_multiplier(n, l)) == 1.0


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_multiplier_table_matches_funk_hecke(monkeypatch, n):
    # one zonal fit per degree in every dimension; a coarse rule at n >= 4
    # still integrates the degree <= 9 equator integrands exactly
    calls = _count_frames(monkeypatch)
    resolution = None if n <= 3 else 12
    table = multiplier_table(9, dim=n, num_xi=14, resolution=resolution, seed=n)
    assert len(calls) == 14
    assert table.degrees == tuple(range(10))
    for l, lam, res in zip(table.degrees, table.multipliers, table.residuals):
        assert lam == pytest.approx(funk_hecke_multiplier(n, l), abs=1e-9), (n, l)
        assert res < 1e-9, (n, l)
    with pytest.raises(ValueError):
        multiplier_table(LMAX + 1, dim=n)
    for num_xi in (0, -1):
        with pytest.raises(ValueError, match="^num_xi must be at least 1$"):
            multiplier_table(3, dim=n, num_xi=num_xi)


def test_harmonic_gradients_have_euler_radial_part():
    # the gradient is that of the solid harmonic r^l Y, so by Euler's
    # theorem its radial part is l Y on unit vectors
    u = random_directions(3, 500, seed=9)
    for l in range(LMAX + 1):
        for m in range(-l, l + 1):
            y = real_harmonic(l, m)
            radial = np.sum(y.gradient(u) * u, axis=1)
            assert np.max(np.abs(radial - l * y.evaluate(u))) < 1e-12 * max(1, l), (l, m)


# sup bounds of real_harmonic(l, m), m = -l..l, as computed from the
# zonal recurrence (x86-64, numpy 2.4)
_SUP_BOUNDS = {
    0: (0.28209479177387814,),
    1: (0.5115804249162542, 0.511563212609009, 0.5115950669875124),
    2: (0.6001892009149948, 0.6002085407888583, 0.6929144449698464, 0.6002551411527445,
        0.6001766830418597),
    3: (0.6818873485037944, 0.6430616866392392, 0.7274430190210799, 0.8622035879419705,
        0.7274945265695241, 0.6431100494248231, 0.6818874932069491),
    4: (0.7627885115519264, 0.7010206781191749, 0.7417147555474392, 0.861438291787544,
        1.03079463055128, 0.8612775159673102, 0.7416801451339022, 0.7010124337503487,
        0.7628033651085673),
    5: (0.8466662312032034, 0.7665271166077428, 0.7867626787326758, 0.8539914631291593,
        1.0023481326273382, 1.2050195767114298, 1.002875553510426, 0.853998088231401,
        0.7867865818869401, 0.7665590818209028, 0.8468683640055745),
    6: (0.9349754441886092, 0.8389396655386786, 0.8454881956158598, 0.8903618872666756,
        0.9773459300932562, 1.1540851242293364, 1.3897280776987677, 1.153797403486446,
        0.97708213760251, 0.890323488597149, 0.8454867060276242, 0.8389283202074114,
        0.9349766008238981),
    7: (1.0323399208526207, 0.9192312243048171, 0.9167611917808933, 0.9478150606525785,
        1.0084029987928218, 1.1127090224059801, 1.3186551266379771, 1.5895141753586721,
        1.3168156966510485, 1.113142660017481, 1.0081302380749968, 0.9477631801776577,
        0.9166080148376277, 0.9192485806440404, 1.0316818346716905),
    8: (1.1379767137766301, 1.009237090395196, 0.9970038201654008, 1.0198441157047207,
        1.065637068105067, 1.1405934596621612, 1.2629324310499999, 1.5011995269986536,
        1.8093762055345863, 1.4980338244456939, 1.2642078705642337, 1.1408655534798502,
        1.0654716104481652, 1.0201225666202387, 0.9969880160587058, 1.0085423723733573,
        1.137358789808293),
    9: (1.2566269090809017, 1.1112330027733817, 1.0924883231307947, 1.1074265369033873,
        1.1435047243821468, 1.202219994378791, 1.2908712909102025, 1.4338390604130116,
        1.70338900953003, 2.0552558576385946, 1.7038011883126494, 1.4329637859718467,
        1.2912301821812824, 1.202163505163083, 1.1436121886810866, 1.1074609007800158,
        1.0925697001516586, 1.1111800788605504, 1.2566165473994908),
    10: (1.3947561932846575, 1.2252104853095434, 1.2022366165699727, 1.2102001851480877,
        1.2398789573462938, 1.286923248893684, 1.358322458523591, 1.4634978438728008,
        1.6268495990877156, 1.9331429703167966, 2.334647043354234, 1.938907698389698,
        1.6280193057880012, 1.4638781968494643, 1.3582125287305338, 1.2881922907082957,
        1.2398891707772863, 1.2106054855949133, 1.2022676419254403, 1.2252109482925277,
        1.3950111546621673),
}


def test_harmonic_caches_are_read_only_and_exact():
    with pytest.raises(ValueError):
        harmonics._probe_grid()[0, 0] = 1.0
    for l, sups in _SUP_BOUNDS.items():
        assert tuple(real_harmonic(l, m).sup_bound for m in range(-l, l + 1)) == sups, l


def test_harmonic_field_combination():
    coeffs = {(1, 0): 0.5, (3, 2): -0.25}
    g = harmonic_field(coeffs)
    grid = probe_directions(3, 500)
    want = (0.5 * real_harmonic(1, 0).evaluate(grid)
            - 0.25 * real_harmonic(3, 2).evaluate(grid))
    assert np.max(np.abs(g.evaluate(grid) - want)) < 1e-13
    assert g.sup_bound > 0
    with pytest.raises(ValueError):
        harmonic_field({})
    with pytest.raises(ValueError):
        harmonic_field({(1, 0): 0.0})


def test_fourier_field_and_closed_form_transform():
    # oracle: A(theta0) = f'(theta0 - pi/2) - f'(theta0 + pi/2), done
    # coefficient-wise; the two-point quadrature must reproduce it
    rng = np.random.default_rng(12)
    rule = equator_rule(2)
    for _ in range(50):
        a0 = float(rng.uniform(-1, 1))
        a = tuple(rng.uniform(-0.5, 0.5, size=4))
        b = tuple(rng.uniform(-0.5, 0.5, size=4))
        theta0 = float(rng.uniform(0, 2 * math.pi))
        f = fourier_field(a0, a, b)
        frame = make_frame([math.cos(theta0), math.sin(theta0)], seed=101)
        got = equator_transform(f, frame, rule)
        want = fourier_check_n2(a0, a, b, theta0)
        assert got == pytest.approx(want, abs=1e-11)


def test_fourier_field_matches_trigonometric_form():
    # the zonal build against the direct series in theta, values and
    # tangential gradients f'(theta) (-sin theta, cos theta)
    rng = np.random.default_rng(20)
    theta = rng.uniform(0, 2 * math.pi, size=400)
    u = np.column_stack([np.cos(theta), np.sin(theta)])
    ks = np.arange(1, 6)
    for _ in range(20):
        a0 = float(rng.uniform(-1, 1))
        a, b = rng.uniform(-0.5, 0.5, size=(2, 5))
        f = fourier_field(a0, a, b)
        kt = theta[:, None] * ks
        want = a0 + np.cos(kt) @ a + np.sin(kt) @ b
        dwant = -np.sin(kt) @ (ks * a) + np.cos(kt) @ (ks * b)
        assert np.max(np.abs(f.evaluate(u) - want)) <= 1e-13
        tangent = np.column_stack([-u[:, 1], u[:, 0]])
        dgot = np.sum(f.gradient(u) * tangent, axis=1)
        assert np.max(np.abs(dgot - dwant)) <= 1e-13


@pytest.mark.parametrize("parity", [1.0, -1.0], ids=["even", "odd"])
def test_fourier_field_parity_is_bitwise(parity):
    # even (odd) frequencies only give f(-u) == f(u) (== -f(u)) exactly,
    # values and gradients alike, as the zonal recurrence is exactly
    # even or odd in <u, e>
    rng = np.random.default_rng(21)
    start = 1 if parity > 0 else 0
    a = np.zeros(6)
    b = np.zeros(6)
    a[start::2], b[start::2] = rng.uniform(-0.5, 0.5, size=(2, 3))
    f = fourier_field(0.4 if parity > 0 else 0.0, a, b)
    u = probe_directions(2, 500)
    assert np.array_equal(f.evaluate(-u), parity * f.evaluate(u))
    assert np.array_equal(f.gradient(-u), -parity * f.gradient(u))


def test_fourier_frequency_multipliers():
    # diagonal action on the circle: lambda_k = 2 k sin(k pi / 2)
    rule = equator_rule(2)
    rng = np.random.default_rng(5)
    for k in (1, 2, 3, 4, 5):
        coeffs = tuple(1.0 if j == k - 1 else 0.0 for j in range(k))
        f = fourier_field(0.0, coeffs, ())
        want_lam = 2.0 * k * math.sin(k * math.pi / 2.0)
        for theta0 in rng.uniform(0, 2 * math.pi, size=6):
            frame = make_frame([math.cos(theta0), math.sin(theta0)], seed=101)
            got = equator_transform(f, frame, rule)
            assert got == pytest.approx(want_lam * math.cos(k * theta0), abs=1e-11)


def injectivity_probe(coefficients, resolution=None, projection_resolution=64):
    """Round-trip reconstruction error for an odd band-limited n = 3 field.

    Expands the transform of g over poles into harmonics, divides by the
    Funk-Hecke multipliers (nonzero on every odd degree), reconstructs,
    and returns the sup-norm error against the original field on a
    probe grid.
    """
    coeffs = {(int(l), int(m)): float(c) for (l, m), c in dict(coefficients).items()}
    if not coeffs:
        raise ValueError("need at least one coefficient")
    lmax = max(l for l, _ in coeffs)
    for (l, m) in coeffs:
        if l % 2 == 0:
            raise ValueError("injectivity probe expects odd-degree content only")
        if not (abs(m) <= l <= LMAX):
            raise ValueError("invalid (degree, order) pair")
    g = harmonic_field(coeffs)
    proj = sphere_rule(3, projection_resolution)
    t_vals = transform_sweep(g, proj.nodes, equator_rule(3, resolution))
    recovered = {}
    for l in range(1, lmax + 1, 2):
        lam = funk_hecke_multiplier(3, l)
        for m in range(-l, l + 1):
            y = real_harmonic(l, m).evaluate(proj.nodes)
            recovered[(l, m)] = float(proj.weights @ (t_vals * y)) / lam
    grid = probe_directions(3, 4000)
    return float(np.max(np.abs(g.evaluate(grid) - harmonic_field(recovered).evaluate(grid))))


def test_injectivity_probe_recovers_odd_fields():
    err = injectivity_probe({(1, 0): 0.5, (3, 2): 0.25}, projection_resolution=48)
    assert err < 1e-8


def test_injectivity_probe_rejects_even_content():
    with pytest.raises(ValueError):
        injectivity_probe({(2, 1): 0.5})



def test_value_only_zonal_recurrence_equals_the_pair(monkeypatch):
    # evaluate skips the derivative recurrence; the values keep their bits
    pair = harmonics._zonal
    t = np.concatenate([np.linspace(-1.0, 1.0, 257), [0.0, -0.0, 1e-300]])
    for dim in (2, 3, 4, 5, 6, 9, 23):
        for degree in range(LMAX + 2):
            alone = pair(dim, degree, t, derivative=False)
            assert alone.tobytes() == pair(dim, degree, t)[0].tobytes(), (dim, degree)
    # real_harmonic's and zonal_field's evaluate, against the value half
    # of the two-output recurrence
    fields = [real_harmonic(l, m) for l, m in ((0, 0), (3, 1), (7, -4), (10, 2))]
    fields += [zonal_field(n, l, np.arange(1.0, n + 1.0)) for n, l in ((2, 5), (4, 7), (6, 10))]
    points = [random_directions(f.dim, 300, seed=f.dim) for f in fields]
    fast = [f.evaluate(u) for f, u in zip(fields, points)]
    with monkeypatch.context() as patch:
        patch.setattr(harmonics, "_zonal", lambda dim, degree, t, derivative=True:
                      pair(dim, degree, t) if derivative else pair(dim, degree, t)[0])
        slow = [f.evaluate(u) for f, u in zip(fields, points)]
    assert [v.tobytes() for v in fast] == [v.tobytes() for v in slow]
