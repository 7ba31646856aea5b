"""Named machine checks for the identities behind the transform.

Every step of the derivation chain gets a check: the latitude-sphere
set identity, the difference-quotient decomposition of section curves,
the z = 0 coincidence of conical and hyperplane sections, agreement of
curve slopes with the transform, the majorant and tail bounds used to
justify the limit, structural properties of A (oddness in xi,
linearity, rotation and scaling equivariance, annihilation of even
fields), the spherical-harmonic multipliers, the exact two-point
formula on the circle, Monte Carlo cross-checks, and a detector round
trip.

The slope checks differentiate curves sampled at a fixed reference
resolution and compare against the transform at the configured
resolution, so running with a deliberately coarse resolution surfaces
real quadrature error instead of letting the two sides alias together.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from .sphere_geom import (
    check_dim,
    embed,
    equator_rule,
    make_frame,
    random_directions,
    random_rotation,
    vol_sphere,
)
from .star_body import (
    ScalarField,
    _linear,
    body_ball,
    body_ellipsoid,
    body_harmonic_perturbed_ball,
    body_shifted_ball,
    linear_field,
    odd_part,
    rotate_body,
    scale_body,
    to_scalar_field,
)
from .slice_transforms import (
    conical_section,
    derivative_at_zero,
    equator_transform,
    hyperplane_section,
    slice_integral,
    transform_sweep,
)
from .harmonics import (
    fourier_check_n2,
    fourier_field,
    harmonic_field,
    multiplier_table,
    zonal_field,
)
from .symmetry_detector import detect
from . import oracle


# the n = 3 rule resolution behind the finite-difference side of the
# slope checks
REFERENCE_RESOLUTION = 512


@dataclass(frozen=True)
class VerifyConfig:
    """Knobs shared by all checks.

    resolution is passed unchanged to every `equator_rule` the checks
    build, so None means each dimension's default.
    """

    resolution: Optional[int] = None
    seed: int = 7
    num_xi: int = 4
    mc_samples: int = 300_000

    def __post_init__(self):
        equator_rule(2, self.resolution)  # refuses a resolution below 2
        if self.num_xi < 1:
            raise ValueError("num_xi must be positive")
        if self.mc_samples < 1000:
            raise ValueError("mc_samples must be at least 1000")


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    residual: float
    tolerance: float
    detail: str = ""


@lru_cache(maxsize=None)
def _bodies(n):
    n = check_dim(n)
    bodies = [body_ball(n, 1.0),
              body_shifted_ball(n, 1.0, (0.12, -0.07) + (0.05,) * (n - 2)),
              # the large shift keeps slowly decaying even content on the
              # equator, which coarse rules cannot integrate silently
              body_shifted_ball(n, 1.0, (0.6,) + (0.0,) * (n - 1)),
              body_ellipsoid(n, tuple(np.linspace(1.5, 0.7, n)))]
    if n == 3:
        bodies.append(body_harmonic_perturbed_ball(0.08, 3, 1))
    return tuple(bodies)


def _poles(n, cfg):
    return random_directions(n, cfg.num_xi, seed=cfg.seed)


def _lin_comb(alpha, f, beta, g):
    evaluate, gradient = _linear([(alpha, f, None), (beta, g, None)])
    return ScalarField(dim=f.dim, evaluate=evaluate, gradient=gradient,
                       label="combo")


@lru_cache(maxsize=16)
def _table(lmax, num_xi, resolution, seed):
    return multiplier_table(lmax, num_xi=num_xi, resolution=resolution, seed=seed)


# ---------------------------------------------------------------------------
# individual checks, by name in registration order

_CHECKS = {}


def _check(name, tolerance):
    # register a check returning (residual, detail) under `name`; it
    # passes when residual <= tolerance
    def register(fn):
        def run(cfg):
            residual, detail = fn(cfg)
            return CheckResult(name, residual <= tolerance, residual, tolerance, detail)

        _CHECKS[name] = run
        return run

    return register


@_check("rule_mass", 1e-10)
def _check_rule_mass(cfg):
    worst = 0.0
    for n in (2, 3, 4, 5):
        rule = equator_rule(n, cfg.resolution)
        worst = max(worst, abs(float(np.sum(rule.weights)) - vol_sphere(n - 2)))
    return worst, "quadrature weights sum to the equator sphere measure"


@_check("set_identity", 1e-12)
def _check_set_identity(cfg):
    worst = 0.0
    for n in (2, 3, 4):
        rule = equator_rule(n, min(equator_rule(n, cfg.resolution).resolution, 64))
        frame = make_frame(_poles(n, cfg)[0])
        for z in (-0.9, -0.3, 0.0, 0.45, 0.95):
            psi = math.asin(z)
            u = embed(frame, rule.nodes, psi)
            worst = max(worst, float(np.max(np.abs(np.linalg.norm(u, axis=-1) - 1.0))))
            worst = max(worst, float(np.max(np.abs(u @ frame.pole - z))))
    return worst, "latitude points lie on the sphere and on the plane <u,xi> = z"


@_check("slope_decomposition", 1e-10)
def _check_slope_decomposition(cfg):
    worst = 0.0
    for n in (2, 3):
        rule = equator_rule(n, cfg.resolution)
        for body in (_bodies(n)[1], _bodies(n)[-1]):
            f = to_scalar_field(body)
            frame = make_frame(_poles(n, cfg)[0])
            f0 = f.evaluate(embed(frame, rule.nodes, 0.0))
            for z in (-0.45, 0.08, 0.3):
                psi = math.asin(z)
                fp = f.evaluate(embed(frame, rule.nodes, psi))
                lhs = (slice_integral(f, frame, z, rule)
                       - slice_integral(f, frame, 0.0, rule)) / z
                t1 = float(rule.weights @ (fp - f0)) / z
                t2 = (math.cos(psi) ** (n - 2) - 1.0) / z * float(rule.weights @ fp)
                worst = max(worst, abs(lhs - t1 - t2) / max(1.0, abs(lhs)))
    return worst, "difference quotient splits into variation and tail terms"


@_check("z0_coincidence", 1e-10)
def _check_z0_coincidence(cfg):
    worst = 0.0
    for n in (2, 3):
        rule = equator_rule(n, cfg.resolution)
        for body in _bodies(n):
            for xi in _poles(n, cfg):
                frame = make_frame(xi)
                c = conical_section(body, frame, 0.0, rule)
                h = hyperplane_section(body, frame, 0.0, rule)
                worst = max(worst, abs(c - h) / max(1.0, abs(c)))
    return worst, "conical and hyperplane sections agree through the origin"


@_check("slope_agreement", 1e-6)
def _check_slope_agreement(cfg):
    worst = 0.0
    detail = ""
    for n in (2, 3):
        ref = equator_rule(n, REFERENCE_RESOLUTION)
        cur = equator_rule(n, cfg.resolution)
        for body in _bodies(n):
            for xi in _poles(n, cfg):
                frame = make_frame(xi)
                d = derivative_at_zero("conical", body, frame, ref,
                                       transform_rule=cur)
                if d.agreement_residual > worst:
                    worst = d.agreement_residual
                    detail = f"conical {body.label} n={n}"
        for body in (_bodies(n)[1], _bodies(n)[2]):
            for xi in _poles(n, cfg)[:2]:
                frame = make_frame(xi)
                d = derivative_at_zero("hyperplane", body, frame, ref,
                                       transform_rule=cur)
                if d.agreement_residual > worst:
                    worst = d.agreement_residual
                    detail = f"hyperplane {body.label} n={n}"
    fields = [harmonic_field({(3, 1): 0.5, (1, -1): 0.2, (2, 2): 0.4}),
              linear_field(3, (0.0, 0.0, 1.0))]
    ref = equator_rule(3, REFERENCE_RESOLUTION)
    cur = equator_rule(3, cfg.resolution)
    for f in fields:
        frame = make_frame(_poles(3, cfg)[0])
        d = derivative_at_zero("slice", f, frame, ref, transform_rule=cur)
        if d.agreement_residual > worst:
            worst = d.agreement_residual
            detail = f"slice {f.label}"
    return worst, (f"curve slopes at z=0 match the transform ({detail})" if detail
                   else "curve slopes at z=0 match the transform")


def _psi_probe_grid():
    mags = np.geomspace(1e-3, 1.0, 12)
    return np.concatenate([-mags[::-1], mags])


def _majorant_fields():
    fields = []
    for n in (2, 3):
        for body in _bodies(n):
            fields.append(to_scalar_field(body))
    fields.append(harmonic_field({(3, 1): 0.3, (4, 0): 0.2}))
    fields.append(fourier_field(0.5, (0.3, 0.1), (0.0, 0.2)))
    return fields


@_check("majorant", 1e-12)
def _check_majorant(cfg):
    worst = -math.inf
    psis = _psi_probe_grid()
    for f in _majorant_fields():
        c = f.lipschitz_bound * math.pi / 2.0
        nodes = equator_rule(f.dim, 16).nodes
        for k in range(4):
            frame = make_frame(random_directions(f.dim, 1, seed=cfg.seed + k)[0])
            f0 = f.evaluate(frame.embed(nodes, np.zeros(len(nodes))))
            for psi in psis:
                fp = f.evaluate(frame.embed(nodes, np.full(len(nodes), psi)))
                quot = np.abs(fp - f0) / abs(math.sin(psi))
                worst = max(worst, float(np.max(quot)) - c)
    return worst, "sinpsi-normalized increments stay below the Lipschitz majorant"


@_check("tail_term", 1e-12)
def _check_tail_term(cfg):
    worst = 0.0
    psis = _psi_probe_grid()
    for n in (2, 3, 4):
        rule = equator_rule(n, min(equator_rule(n, cfg.resolution).resolution, 64))
        body = _bodies(n)[1]
        f = to_scalar_field(body)
        cbound = vol_sphere(n - 2) * f.sup_bound * (n - 2) * math.pi / 4.0
        frame = make_frame(_poles(n, cfg)[0])
        for psi in psis:
            fp = f.evaluate(embed(frame, rule.nodes, psi))
            actual = abs((math.cos(psi) ** (n - 2) - 1.0) / math.sin(psi)
                         * float(rule.weights @ fp))
            if cbound == 0.0:
                worst = max(worst, actual)
            else:
                worst = max(worst, actual / (cbound * abs(psi)) - 1.0)
    return worst, "the cos-power tail term obeys its linear-in-psi bound"


@_check("xi_oddness", 1e-8)
def _check_xi_oddness(cfg):
    worst = 0.0
    for n in (2, 3):
        rule = equator_rule(n, cfg.resolution)
        f = to_scalar_field(_bodies(n)[1])
        xis = _poles(n, cfg)
        a = transform_sweep(f, xis, rule)
        b = transform_sweep(f, -xis, rule)
        worst = max(worst, float(np.max(np.abs(a + b))))
    return worst, "A(-xi) = -A(xi)"


@_check("odd_part", 1e-8)
def _check_odd_part(cfg):
    worst = 0.0
    for n in (2, 3):
        rule = equator_rule(n, cfg.resolution)
        f = to_scalar_field(_bodies(n)[1])
        xis = _poles(n, cfg)
        diff = transform_sweep(f, xis, rule) - transform_sweep(odd_part(f), xis, rule)
        worst = max(worst, float(np.max(np.abs(diff))))
    return worst, "the transform only sees the odd part of the field"


@_check("linearity", 1e-10)
def _check_linearity(cfg):
    rule = equator_rule(3, cfg.resolution)
    f = to_scalar_field(_bodies(3)[1])
    g = harmonic_field({(1, 0): 0.4, (3, -2): 0.3})
    combo = _lin_comb(0.7, f, -1.3, g)
    xis = _poles(3, cfg)
    lhs = transform_sweep(combo, xis, rule)
    rhs = 0.7 * transform_sweep(f, xis, rule) - 1.3 * transform_sweep(g, xis, rule)
    worst = float(np.max(np.abs(lhs - rhs) / np.maximum(1.0, np.abs(lhs))))
    return worst, "A is linear in the field"


@_check("rotation", 1e-8)
def _check_rotation(cfg):
    worst = 0.0
    for n in (2, 3):
        rule = equator_rule(n, cfg.resolution)
        body = _bodies(n)[1]
        rot = random_rotation(n, seed=cfg.seed)
        rbody = rotate_body(body, rot)
        f = to_scalar_field(body)
        rf = to_scalar_field(rbody)
        xis = _poles(n, cfg)
        a = transform_sweep(f, xis, rule)
        b = transform_sweep(rf, [rot @ xi for xi in xis], rule)
        worst = max(worst, float(np.max(np.abs(a - b))))
    return worst, "A(R K, R xi) = A(K, xi)"


@_check("scaling", 1e-8)
def _check_scaling(cfg):
    worst = 0.0
    lam = 1.7
    for n in (2, 3):
        rule = equator_rule(n, cfg.resolution)
        body = _bodies(n)[1]
        f = to_scalar_field(body)
        g = to_scalar_field(scale_body(body, lam))
        xis = _poles(n, cfg)
        a = lam ** (n - 1) * transform_sweep(f, xis, rule)
        b = transform_sweep(g, xis, rule)
        worst = max(worst, float(np.max(np.abs(a - b) / np.maximum(np.abs(a), 1e-12))))
    return worst, "scaling the body by t scales A by t^(n-1)"


@_check("even_annihilation", 1e-8)
def _check_even_annihilation(cfg):
    worst = 0.0
    for n in (2, 3):
        rule = equator_rule(n, cfg.resolution)
        for l in (0, 2, 4, 6):
            f = zonal_field(n, l, np.arange(1.0, n + 1.0))
            values = transform_sweep(f, _poles(n, cfg), rule)
            worst = max(worst, float(np.max(np.abs(values))))
    return worst, "even fields are sent to zero"


@_check("odd_multipliers", 1e-7)
def _check_odd_multipliers(cfg):
    t = _table(7, 16, cfg.resolution, cfg.seed)
    worst = max(r for l, r in zip(t.degrees, t.residuals) if l % 2 == 1)
    return worst, "odd harmonics are eigenfunctions up to degree 7"


@_check("lambda1", 1e-6)
def _check_lambda1(cfg):
    t = _table(7, 16, cfg.resolution, cfg.seed)
    lam = dict(zip(t.degrees, t.multipliers))[1]
    err = abs(lam - 2.0 * math.pi)
    return err, f"degree-1 multiplier is 2 pi (estimate {lam:.12g})"


@_check("odd_nondegeneracy", 0.0)
def _check_odd_nondegeneracy(cfg):
    t = _table(7, 16, cfg.resolution, cfg.seed)
    smallest = min(abs(m) for l, m in zip(t.degrees, t.multipliers) if l % 2 == 1)
    residual = max(0.0, 1e-3 - smallest)
    return residual, f"no odd multiplier below 1e-3 (min {smallest:.6g})"


@_check("n2_oracle", 1e-10)
def _check_n2_oracle(cfg):
    rng = np.random.default_rng(cfg.seed + 5)
    rule = equator_rule(2, cfg.resolution)
    worst = 0.0
    for _ in range(40):
        a0 = float(rng.uniform(-1, 1))
        a = tuple(rng.uniform(-0.5, 0.5, size=5))
        b = tuple(rng.uniform(-0.5, 0.5, size=5))
        theta0 = float(rng.uniform(0, 2 * math.pi))
        xi = np.array([math.cos(theta0), math.sin(theta0)])
        f = fourier_field(a0, a, b)
        got = equator_transform(f, make_frame(xi), rule)
        want = fourier_check_n2(a0, a, b, theta0)
        worst = max(worst, abs(got - want))
    return worst, "two-point transform matches the closed Fourier form"


@_check("mc_agreement", 0.0)
def _check_mc_agreement(cfg):
    worst = -math.inf
    detail = ""
    queries = [(_bodies(3)[1], (0.0, 0.0, 1.0), 0.25),
               (_bodies(3)[3], (0.6, 0.8, 0.0), -0.4)]
    rule = equator_rule(3, cfg.resolution)
    for i, (body, xi, z) in enumerate(queries):
        frame = make_frame(np.asarray(xi))
        hq = hyperplane_section(body, frame, z, rule)
        hm = oracle.mc_hyperplane_section(body, xi, z, delta=0.02,
                                          samples=cfg.mc_samples, seed=cfg.seed + i)
        allow = max(3.0 * hm.std_error, 0.01 * abs(hq))
        excess = abs(hq - hm.value) - allow
        if excess > worst:
            worst, detail = excess, f"hyperplane {body.label} z={z}"
        cq = conical_section(body, frame, z, rule)
        cm = oracle.mc_cone_section(body, xi, z, delta=0.02,
                                    samples=cfg.mc_samples, seed=cfg.seed + 10 + i)
        allow = max(3.0 * cm.std_error, 0.01 * abs(cq))
        excess = abs(cq - cm.value) - allow
        if excess > worst:
            worst, detail = excess, f"cone {body.label} z={z}"
    return worst, f"quadrature sections sit inside Monte Carlo error bars ({detail})"


@_check("detector", 0.0)
def _check_detector(cfg):
    wrong = 0
    # ball, two shifted balls and an ellipsoid in each dimension
    wanted = ("symmetric", "asymmetric", "asymmetric", "symmetric")
    cases = [(body, want) for n in (2, 3) for body, want in zip(_bodies(n), wanted)]
    cases += [(_bodies(3)[4], "asymmetric"),
              (body_harmonic_perturbed_ball(0.05, 2, 1), "symmetric")]
    notes = []
    for body, want in cases:
        rep = detect(body, num_dirs=32, seed=cfg.seed,
                     rule_resolution=cfg.resolution)
        if rep.verdict != want:
            wrong += 1
            notes.append(f"{body.label}: got {rep.verdict}, wanted {want}")
    return float(wrong), ("; ".join(notes) if notes
                          else f"all {len(cases)} verdicts correct")


def check_names():
    return tuple(_CHECKS)


def run_checks(config=None, only=None):
    """Run the registry and return a list of CheckResult.

    only: optional iterable of check names; an empty selection or an
    unknown name raises ValueError.
    """
    cfg = config or VerifyConfig()
    if only is None:
        names = list(_CHECKS)
    else:
        names = [str(x) for x in only]
        if not names:
            raise ValueError(f"no check names given; known: {', '.join(_CHECKS)}")
        unknown = [x for x in names if x not in _CHECKS]
        if unknown:
            raise ValueError(f"unknown check name(s): {', '.join(unknown)}; "
                             f"known: {', '.join(_CHECKS)}")
    return [_CHECKS[name](cfg) for name in names]
