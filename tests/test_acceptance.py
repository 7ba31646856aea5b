"""Acceptance gate: nine numbered criteria, one pass/fail line each.

Run with -s to see the per-criterion lines; each criterion is a single
test whose name carries its number, so plain -v output also shows one
pass/fail line per criterion.
"""

import json
import math
import time

import numpy as np
import pytest

from starsym import (
    body_ball,
    body_ellipsoid,
    body_harmonic_perturbed_ball,
    body_shifted_ball,
    calibrate,
    conical_section,
    derivative_at_zero,
    detect,
    embed,
    equator_rule,
    equator_transform,
    fourier_check_n2,
    fourier_field,
    harmonic_field,
    hyperplane_section,
    make_frame,
    mc_cone_section,
    mc_hyperplane_section,
    multiplier_table,
    odd_part,
    random_directions,
    random_rotation,
    real_harmonic,
    rotate_body,
    scale_body,
    to_scalar_field,
)
from starsym.cli import main

_FRAME_SEED = 101


def _report(num, ok, detail):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num}: {detail}"


def _frames(n, count, seed):
    return [make_frame(xi, seed=_FRAME_SEED)
            for xi in random_directions(n, count, seed=seed)]


def _library(n):
    bodies = [body_ball(n, 1.0),
              body_shifted_ball(n, 1.0, (0.2, -0.15, 0.1, 0.05, 0.0, 0.0)[:n]),
              body_ellipsoid(n, tuple(np.linspace(1.4, 0.8, n)))]
    if n == 3:
        for l, eps in ((1, 0.05), (2, 0.05), (3, 0.04), (4, 0.05), (5, 0.03)):
            bodies.append(body_harmonic_perturbed_ball(eps, l, min(l, 2)))
    return bodies


def test_criterion_1_slope_identity_across_library():
    # |FD slope of the conical section curve at 0 - transform| <= 1e-6
    # for every smooth library body; 100 poles in n=2,3 and 20 in n=4
    t0 = time.perf_counter()
    worst = 0.0
    pairs = 0
    for n, num_xi in ((2, 100), (3, 100), (4, 20)):
        rule = equator_rule(n, None)
        for b, body in enumerate(_library(n)):
            for frame in _frames(n, num_xi, seed=1000 + 10 * n + b):
                res = derivative_at_zero("conical", body, frame, rule)
                worst = max(worst, res.agreement_residual)
                pairs += 1
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-6 and elapsed < 60.0
    _report(1, ok, f"worst residual {worst:.3e} over {pairs} body/pole pairs, "
                   f"{elapsed:.1f}s")


def test_criterion_2_even_bodies_read_symmetric():
    evens = (body_ball(3, 1.0), body_ball(3, 1.6),
             body_ellipsoid(3, (1.4, 1.0, 0.8)),
             body_ellipsoid(3, (2.0, 1.0, 1.0)),
             body_harmonic_perturbed_ball(0.04, 2, 1),
             body_harmonic_perturbed_ball(0.03, 4, 2))
    worst = 0.0
    ok = True
    for body in evens:
        report = detect(body, num_dirs=50, seed=2)
        worst = max(worst, report.max_abs)
        ok = ok and report.verdict == "symmetric" and report.max_abs < 1e-7
    _report(2, ok, f"max |A| over {len(evens)} even bodies = {worst:.3e}, "
                   f"all verdicts symmetric")


def test_criterion_3_shifted_ball_witness():
    body = body_shifted_ball(3, 1.0, (0.1, 0.0, 0.0))
    report = detect(body, num_dirs=100, seed=3)
    floor = report.threshold
    top = int(np.argmax(np.abs(report.values)))
    frame = make_frame(report.xis[top], seed=_FRAME_SEED)
    res = derivative_at_zero("conical", body, frame, equator_rule(3, None))
    ok = (report.verdict == "asymmetric"
          and report.max_abs > 100.0 * floor
          and res.fd_value != 0.0
          and math.copysign(1.0, res.fd_value)
          == math.copysign(1.0, res.transform_value))
    _report(3, ok, f"max |A| = {report.max_abs:.3e} vs floor {floor:.3e}, "
                   f"argmax slope {res.fd_value:.3e} matches transform sign")


def test_criterion_4_kernel_structure():
    rule = equator_rule(3, None)
    frames = _frames(3, 50, seed=4)
    worst_even = 0.0
    for l in (0, 2, 4, 6, 8, 10):
        for m in range(-l, l + 1):
            f = real_harmonic(l, m)
            for frame in frames:
                worst_even = max(worst_even, abs(equator_transform(f, frame, rule)))
    table = multiplier_table(9, num_xi=50, seed=4)
    lam = dict(zip(table.degrees, table.multipliers))
    res = dict(zip(table.degrees, table.residuals))
    odd_ok = all(abs(lam[l]) > 1e-3 and res[l] <= 1e-7 for l in (1, 3, 5, 7, 9))
    lambda1_ok = abs(lam[1] - 2.0 * math.pi) <= 1e-6
    ok = worst_even <= 1e-8 and odd_ok and lambda1_ok
    _report(4, ok, f"even degrees wiped to {worst_even:.3e}; "
                   f"odd multipliers clear 1e-3 with fit residuals <= 1e-7; "
                   f"lambda_1 - 2pi = {lam[1] - 2.0 * math.pi:.3e}")


def test_criterion_5_circle_oracle():
    rule = equator_rule(2, None)
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(1000):
        a0 = float(rng.uniform(-1, 1))
        a = tuple(rng.uniform(-0.5, 0.5, size=6))
        b = tuple(rng.uniform(-0.5, 0.5, size=6))
        theta0 = float(rng.uniform(0.0, 2.0 * math.pi))
        f = fourier_field(a0, a, b)
        frame = make_frame([math.cos(theta0), math.sin(theta0)], seed=_FRAME_SEED)
        got = equator_transform(f, frame, rule)
        worst = max(worst, abs(got - fourier_check_n2(a0, a, b, theta0)))
    _report(5, worst <= 1e-10,
            f"worst |transform - closed form| = {worst:.3e} over 1000 draws")


def test_criterion_6_monte_carlo_cross_check():
    t0 = time.perf_counter()
    pool = [body_ball(3, 1.2),
            body_shifted_ball(3, 1.0, (0.2, -0.1, 0.1)),
            body_shifted_ball(3, 1.0, (0.0, 0.25, -0.05)),
            body_ellipsoid(3, (1.3, 1.0, 0.8)),
            body_shifted_ball(2, 1.0, (0.15, -0.1)),
            body_ellipsoid(2, (1.2, 0.9)),
            body_ball(4, 1.0)]
    rng = np.random.default_rng(6)
    delta, samples = 0.015, 1_200_000
    failures = []
    for t in range(20):
        body = pool[int(rng.integers(len(pool)))]
        n = body.dim
        xi = random_directions(n, 1, seed=600 + t)[0]
        z = float(rng.uniform(-0.4, 0.4))
        frame = make_frame(xi, seed=_FRAME_SEED)
        rule = equator_rule(n, None)
        quad_h = hyperplane_section(body, frame, z, rule)
        quad_c = conical_section(body, frame, z, rule)
        mc_h = mc_hyperplane_section(body, xi, z, delta=delta, samples=samples,
                                     seed=6000 + t)
        mc_c = mc_cone_section(body, xi, z, delta=delta, samples=samples,
                               seed=7000 + t)
        for kind, quad, mc in (("hyperplane", quad_h, mc_h),
                               ("cone", quad_c, mc_c)):
            allow = max(3.0 * mc.std_error, 0.01 * abs(quad))
            if abs(mc.value - quad) > allow:
                failures.append((t, kind, body.label, quad, mc.value))
    # self-validation on the unit ball against closed forms
    ball = body_ball(3, 1.0)
    self_worst = 0.0
    for i, z in enumerate((0.0, 0.3)):
        want_h = math.pi * (1.0 - z * z)
        want_c = math.pi * math.sqrt(1.0 - z * z)
        got_h = mc_hyperplane_section(ball, [0, 0, 1], z, delta=delta,
                                      samples=3_000_000, seed=60 + i).value
        got_c = mc_cone_section(ball, [0, 0, 1], z, delta=delta,
                                samples=3_000_000, seed=70 + i).value
        self_worst = max(self_worst, abs(got_h - want_h) / want_h,
                         abs(got_c - want_c) / want_c)
    elapsed = time.perf_counter() - t0
    ok = not failures and self_worst < 0.01 and elapsed < 300.0
    _report(6, ok, f"40 cross-checks within max(3 sigma, 1%), "
                   f"ball self-validation {self_worst:.2%}, {elapsed:.1f}s"
                   + (f"; failures: {failures}" if failures else ""))


def test_criterion_7_majorant_bound():
    rng = np.random.default_rng(7)
    probes = 0
    violations = 0
    bodies = _library(2) + _library(3)
    for body in bodies:
        f = to_scalar_field(body)
        c = f.lipschitz_bound * math.pi / 2.0
        n = f.dim
        for k in range(72):
            frame = make_frame(rng.standard_normal(n), seed=_FRAME_SEED)
            eta = rng.standard_normal((128, n - 1))
            eta /= np.linalg.norm(eta, axis=1, keepdims=True)
            psi = rng.uniform(-math.pi / 2 + 1e-3, math.pi / 2 - 1e-3, size=128)
            psi[np.abs(psi) < 1e-6] = 1e-6
            f0 = f.evaluate(embed(frame, eta, np.zeros(128)))
            fp = f.evaluate(embed(frame, eta, psi))
            quot = np.abs(fp - f0) / np.abs(np.sin(psi))
            violations += int(np.count_nonzero(quot > c))
            probes += quot.size
    ok = probes >= 100_000 and violations == 0
    _report(7, ok, f"{violations} violations of L*pi/2 over {probes} probes")


def test_criterion_8_structural_invariants():
    rule = equator_rule(3, None)
    frames = _frames(3, 6, seed=8)
    f = harmonic_field({(1, 0): 0.4, (2, 1): 0.3, (3, -2): 0.25, (4, 4): 0.2})
    g = harmonic_field({(1, 1): 0.3, (3, 0): 0.35, (5, 2): 0.15})
    fl = to_scalar_field(body_shifted_ball(3, 1.0, (0.15, -0.1, 0.2)))

    def lin_comb(al, be):
        from starsym import ScalarField
        return ScalarField(
            dim=3,
            evaluate=lambda u: al * f.evaluate(u) + be * g.evaluate(u),
            gradient=lambda u: al * f.gradient(u) + be * g.gradient(u),
            lipschitz_bound=abs(al) * f.lipschitz_bound + abs(be) * g.lipschitz_bound)

    worst = dict(linearity=0.0, odd=0.0, antisym=0.0, rotation=0.0,
                 scaling=0.0, z0=0.0)
    rot = random_rotation(3, seed=80)
    body = body_shifted_ball(3, 1.0, (0.12, 0.08, -0.1))
    body_rot = rotate_body(body, rot)
    body_scaled = scale_body(body, 1.7)
    fb, fb_rot, fb_scaled = (to_scalar_field(b)
                             for b in (body, body_rot, body_scaled))
    for frame in frames:
        af = equator_transform(f, frame, rule)
        ag = equator_transform(g, frame, rule)
        combo = equator_transform(lin_comb(0.7, -1.3), frame, rule)
        worst["linearity"] = max(worst["linearity"],
                                 abs(combo - (0.7 * af - 1.3 * ag)))
        worst["odd"] = max(worst["odd"], abs(
            equator_transform(fl, frame, rule)
            - equator_transform(odd_part(fl), frame, rule)))
        anti = make_frame(-frame.pole, seed=_FRAME_SEED)
        worst["antisym"] = max(worst["antisym"], abs(
            equator_transform(fl, frame, rule)
            + equator_transform(fl, anti, rule)))
        rframe = make_frame(rot @ frame.pole, seed=_FRAME_SEED)
        worst["rotation"] = max(worst["rotation"], abs(
            equator_transform(fb_rot, rframe, rule)
            - equator_transform(fb, frame, rule)))
        a1 = equator_transform(fb, frame, rule)
        a2 = equator_transform(fb_scaled, frame, rule)
        worst["scaling"] = max(worst["scaling"],
                               abs(a2 - 1.7 ** 2 * a1) / abs(a2))
        cs = conical_section(body, frame, 0.0, rule)
        hs = hyperplane_section(body, frame, 0.0, rule)
        worst["z0"] = max(worst["z0"], abs(cs - hs))
    tols = dict(linearity=1e-10, odd=1e-8, antisym=1e-8, rotation=1e-8,
                scaling=1e-8, z0=1e-10)
    ok = all(worst[k] <= tols[k] for k in tols)
    _report(8, ok, ", ".join(f"{k} {worst[k]:.2e}<={tols[k]:.0e}"
                             for k in tols))


def test_criterion_9_cli_contract(tmp_path, capsys):
    outs = [tmp_path / name for name in ("a", "b", "coarse")]
    code_a = main(["verify", "--out", str(outs[0])])
    code_b = main(["verify", "--out", str(outs[1])])
    code_coarse = main(["verify", "--out", str(outs[2]), "--resolution", "8"])
    capsys.readouterr()
    same = ((outs[0] / "verify.json").read_bytes()
            == (outs[1] / "verify.json").read_bytes())
    ok = code_a == 0 and code_b == 0 and code_coarse == 1 and same
    _report(9, ok, f"defaults exit {code_a}, resolution=8 exit {code_coarse}, "
                   f"byte-identical reruns: {same}")
