"""Spherical harmonics, transform multipliers, and the n=2 Fourier case."""

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
    harmonic_field,
    injectivity_probe,
    make_frame,
    multiplier_table,
    equator_rule,
    probe_directions,
    random_directions,
    real_harmonic,
    sphere_rule,
    transform_sweep,
)
from starsym import harmonics, slice_transforms
from starsym.harmonics import fourier_multiplier_table


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
    for l in range(0, 9):
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
        lam, residual = estimate_multiplier(l, min(l, 2), num_xi=16, seed=4)
        assert lam == pytest.approx(closed_form_multiplier(l), abs=1e-9), l
        assert residual < 1e-9


def test_even_multipliers_vanish():
    for l in (2, 4, 6):
        lam, residual = estimate_multiplier(l, 1, num_xi=16, seed=4)
        assert abs(lam) < 1e-12
        assert residual < 1e-12


def test_multiplier_table_structure_and_determinism():
    t1 = multiplier_table(5, num_xi=12, seed=8)
    t2 = multiplier_table(5, num_xi=12, seed=8)
    assert t1.degrees == (0, 1, 2, 3, 4, 5)
    assert t1.multipliers == t2.multipliers
    assert len(t1.orders) == sum(2 * l + 1 for l in range(6))
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
    # sweeps over bare poles, which complete a frame per harmonic
    calls = _count_frames(monkeypatch)
    lmax, num_xi, resolution, seed = 5, 7, 128, 3
    table = multiplier_table(lmax, num_xi=num_xi, resolution=resolution, seed=seed)
    assert len(calls) == num_xi
    xis = random_directions(3, num_xi, seed=seed)
    rule = equator_rule(3, resolution)
    lams, residuals, orders = [], [], []
    for l in range(lmax + 1):
        ts, vs = [], []
        for m in range(-l, l + 1):
            y = real_harmonic(l, m)
            t = transform_sweep(y, xis, rule)
            v = y.evaluate(xis)
            lam_m = float(t @ v) / float(v @ v)
            orders.append((l, m, lam_m, float(np.max(np.abs(t - lam_m * v)))))
            ts.append(t)
            vs.append(v)
        ts = np.concatenate(ts)
        vs = np.concatenate(vs)
        lams.append(float(ts @ vs) / float(vs @ vs))
        residuals.append(float(np.max(np.abs(ts - lams[-1] * vs))))
    assert np.array_equal(table.multipliers, lams)
    assert np.array_equal(table.residuals, residuals)
    assert np.array_equal(table.orders, orders)


def test_multiplier_table_builds_one_power_table_per_point_set(monkeypatch):
    # one table of the lifted rule nodes per pole and one of the poles,
    # shared by every harmonic of the table
    calls = []
    build = harmonics._power_tables

    def counted(flat, max_deg):
        calls.append((flat.shape[0], max_deg))
        return build(flat, max_deg)

    monkeypatch.setattr(harmonics, "_power_tables", counted)
    for lmax, num_xi in ((0, 12), (4, 12), (6, 7)):
        calls.clear()
        multiplier_table(lmax, num_xi=num_xi, resolution=32, seed=5)
        assert len(calls) == num_xi + 1, (lmax, num_xi)
        assert all(max_deg == lmax for _, max_deg in calls)


def _per_call_harmonic(l, m, pts):
    # reference: a power table per call up to the harmonic's largest
    # exponent, and derivative terms built from the value terms per call
    exps, coefs = harmonics._solid_harmonic_terms(l, m)[0]
    pts = np.asarray(pts, dtype=float)
    flat = pts.reshape(-1, 3)
    max_deg = int(exps.max())
    tab = np.empty((3, flat.shape[0], max_deg + 1))
    tab[:, :, 0] = 1.0
    for p in range(1, max_deg + 1):
        tab[:, :, p] = tab[:, :, p - 1] * flat.T
    monos = tab[0][:, exps[:, 0]] * tab[1][:, exps[:, 1]] * tab[2][:, exps[:, 2]]
    value = (monos @ coefs).reshape(pts.shape[:-1])
    grad = np.empty((flat.shape[0], 3))
    for axis in range(3):
        e = exps.copy()
        c = coefs * e[:, axis]
        e[:, axis] = np.maximum(e[:, axis] - 1, 0)
        monos = tab[0][:, e[:, 0]] * tab[1][:, e[:, 1]] * tab[2][:, e[:, 2]]
        grad[:, axis] = monos @ c
    return value, grad.reshape(pts.shape)


def test_harmonic_values_and_gradients_are_bit_identical():
    rule = equator_rule(3)
    point_sets = [rule.nodes @ make_frame(xi).basis
                  for xi in random_directions(3, 4, seed=9)]
    point_sets.append(harmonics._probe_grid())
    for l in range(LMAX + 1):
        for m in range(-l, l + 1):
            y = real_harmonic(l, m)
            for pts in point_sets:
                value, grad = _per_call_harmonic(l, m, pts)
                assert np.array_equal(y.evaluate(pts), value), (l, m)
                assert np.array_equal(y.gradient(pts), grad), (l, m)
            for exps, coefs in harmonics._solid_harmonic_terms(l, m):
                assert not exps.flags.writeable and not coefs.flags.writeable


def test_fourier_multiplier_table(monkeypatch):
    # closed form on the circle: cos(k theta) and sin(k theta) both have
    # multiplier 2 k sin(k pi / 2); poles are completed once each
    calls = _count_frames(monkeypatch)
    table = fourier_multiplier_table(5, num_xi=9, seed=2)
    assert len(calls) == 9
    assert table.dim == 2 and table.degrees == (1, 2, 3, 4, 5)
    assert [(k, m) for k, m, _, _ in table.orders] == [
        (k, m) for k in range(1, 6) for m in (k, -k)]
    for k, lam, res in zip(table.degrees, table.multipliers, table.residuals):
        assert lam == pytest.approx(2.0 * k * math.sin(k * math.pi / 2.0), abs=1e-11)
        assert res < 1e-11
    with pytest.raises(ValueError):
        fourier_multiplier_table(0)


# sup bounds of real_harmonic(l, m), m = -l..l, as computed before the
# Legendre coefficients and the probe grid were cached (x86-64, numpy 2.4)
_SUP_BOUNDS = {
    0: (0.28209479177387814,),
    1: (0.5115804249162543, 0.511563212609009, 0.5115950669875126),
    2: (0.6001892009149948, 0.6002085407888583, 0.6929144449698464, 0.6002551411527444,
        0.6001766830418597),
    3: (0.6818873485037945, 0.6430616866392393, 0.7274430190210801, 0.8622035879419705,
        0.7274945265695242, 0.6431100494248232, 0.6818874932069491),
    4: (0.7627885115519265, 0.7010206781191751, 0.7417147555474393, 0.861438291787544,
        1.0307946305512796, 0.8612775159673104, 0.7416801451339022, 0.701012433750349,
        0.7628033651085673),
    5: (0.8466662312032034, 0.766527116607743, 0.7867626787326761, 0.8539914631291597,
        1.0023481326273387, 1.2050195767114316, 1.0028755535104263, 0.8539980882314012,
        0.7867865818869402, 0.766559081820903, 0.8468683640055744),
    6: (0.934975444188609, 0.8389396655386782, 0.84548819561586, 0.8903618872666758,
        0.9773459300932565, 1.1540851242293355, 1.3897280776987657, 1.153797403486445,
        0.9770821376025104, 0.890323488597149, 0.8454867060276245, 0.8389283202074114,
        0.9349766008238977),
    7: (1.0323399208526212, 0.9192312243048171, 0.9167611917808937, 0.9478150606525788,
        1.0084029987928222, 1.11270902240598, 1.3186551266379771, 1.5895141753586768,
        1.3168156966510487, 1.1131426600174803, 1.0081302380749972, 0.9477631801776577,
        0.9166080148376275, 0.9192485806440405, 1.03168183467169),
    8: (1.1379767137766301, 1.0092370903951966, 0.9970038201654011, 1.019844115704721,
        1.0656370681050669, 1.1405934596621605, 1.2629324310499992, 1.5011995269986573,
        1.8093762055346057, 1.4980338244456972, 1.2642078705642334, 1.14086555347985,
        1.0654716104481643, 1.0201225666202387, 0.9969880160587058, 1.0085423723733578,
        1.1373587898082935),
    9: (1.2566269090809021, 1.111233002773382, 1.0924883231307951, 1.1074265369033864,
        1.143504724382146, 1.202219994378791, 1.290871290910201, 1.433839060413006,
        1.7033890095300261, 2.055255857638538, 1.703801188312644, 1.432963785971842,
        1.2912301821812802, 1.2021635051630826, 1.1436121886810864, 1.1074609007800156,
        1.0925697001516586, 1.1111800788605497, 1.2566165473994915),
    10: (1.3947561932846562, 1.2252104853095431, 1.2022366165699734, 1.210200185148088,
        1.2398789573462945, 1.286923248893683, 1.3583224585235925, 1.4634978438728037,
        1.6268495990877148, 1.9331429703168157, 2.334647043354182, 1.938907698389717,
        1.6280193057880012, 1.4638781968494718, 1.358212528730535, 1.2881922907082954,
        1.239889170777288, 1.2106054855949144, 1.2022676419254392, 1.2252109482925284,
        1.3950111546621673),
}


def test_harmonic_caches_are_read_only_and_exact():
    with pytest.raises(ValueError):
        harmonics._legendre_coeffs(3)[0] = 1.0
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


def test_injectivity_probe_recovers_odd_fields():
    err = injectivity_probe({(1, 0): 0.5, (3, 2): 0.25}, num_xi=12,
                            projection_resolution=48, seed=11)
    assert err < 1e-8


def test_injectivity_probe_rejects_even_content():
    with pytest.raises(ValueError):
        injectivity_probe({(2, 1): 0.5})
