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
resolution and compare against the transform at the requested
resolution, so running with a deliberately coarse resolution surfaces
real quadrature error instead of letting the two sides alias together.

A check is a generator of residuals registered with `_check`, which
declares its tolerance, its detail and the dimensions it runs in.  The
registry runs the dimension loop and reports the worst residual; a NaN
residual, or a check that measures nothing, fails (`starsym verify`
writes a NaN residual as null).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .sphere_geom import (
    _family,
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
    hyperplane_profile_field,
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
# the battery's sampling, which its tolerances were set at: the seed of
# its random poles, rotations and Monte Carlo draws, the poles per check
# and the Monte Carlo samples per section
SEED = 7
NUM_XI = 4
MC_SAMPLES = 300_000


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


def _poles(n):
    return random_directions(n, NUM_XI, seed=SEED)


# node cap of the rules behind the pointwise checks (set_identity,
# tail_term): the size of the default n = 4 rule
_POINTWISE_NODES = 2048


def _pointwise_rule(n, resolution):
    return next(rule for rule in _family(equator_rule(n, resolution))
                if rule.size <= _POINTWISE_NODES)


@lru_cache(maxsize=None)
def _frames(n):
    # the completed frames of the verify poles in dimension n
    return tuple(make_frame(xi) for xi in _poles(n))


def _lin_comb(alpha, f, beta, g):
    evaluate, gradient = _linear([(alpha, f, None), (beta, g, None)])
    return ScalarField(dim=f.dim, evaluate=evaluate, gradient=gradient,
                       label="combo")


@lru_cache(maxsize=16)
def _table(resolution):
    # the n = 3 table of degrees 0..7 behind the three multiplier checks
    return multiplier_table(7, num_xi=16, resolution=resolution, seed=SEED)


# ---------------------------------------------------------------------------
# individual checks, by name in registration order

_CHECKS = {}


def _check(name, tolerance, detail="", dims=(None,)):
    # register fn(resolution, n), run once per n in dims, yielding residuals or
    # (residual, detail) pairs; the check passes when the worst residual
    # is <= tolerance, and a NaN residual or none at all fails it
    def register(fn):
        def run(resolution):
            worst, note = -math.inf, detail
            for n in dims:
                for item in fn(resolution, n):
                    r, d = item if isinstance(item, tuple) else (item, detail)
                    r = float(r)
                    if not math.isnan(worst) and (math.isnan(r) or r > worst):
                        worst, note = r, d
            if worst == -math.inf:
                worst, note = math.nan, "no residual measured"
            return CheckResult(name, worst <= tolerance, worst, tolerance, note)

        _CHECKS[name] = run
        return run

    return register


@_check("rule_mass", 1e-10, "quadrature weights sum to the equator sphere measure",
        dims=(2, 3, 4, 5, 6))
def _check_rule_mass(resolution, n):
    rule = equator_rule(n, resolution)
    yield abs(float(np.sum(rule.weights)) - vol_sphere(n - 2))


@_check("set_identity", 1e-12,
        "latitude points lie on the sphere and on the plane <u,xi> = z",
        dims=(2, 3, 4, 5, 6))
def _check_set_identity(resolution, n):
    rule = _pointwise_rule(n, resolution)
    frame = _frames(n)[0]
    for z in (-0.9, -0.3, 0.0, 0.45, 0.95):
        u = embed(frame, rule.nodes, math.asin(z))
        yield np.max(np.abs(np.linalg.norm(u, axis=-1) - 1.0))
        yield np.max(np.abs(u @ frame.pole - z))


@_check("slope_decomposition", 1e-10,
        "difference quotient splits into variation and tail terms", dims=(2, 3))
def _check_slope_decomposition(resolution, n):
    rule = equator_rule(n, resolution)
    frame = _frames(n)[0]
    for body in (_bodies(n)[1], _bodies(n)[-1]):
        f = to_scalar_field(body)
        f0 = f.evaluate(embed(frame, rule.nodes, 0.0))
        for z in (-0.45, 0.08, 0.3):
            psi = math.asin(z)
            fp = f.evaluate(embed(frame, rule.nodes, psi))
            lhs = (slice_integral(f, frame, z, rule)
                   - slice_integral(f, frame, 0.0, rule)) / z
            t1 = float(np.sum(rule.weights * (fp - f0))) / z
            t2 = (math.cos(psi) ** (n - 2) - 1.0) / z * float(np.sum(rule.weights * fp))
            yield abs(lhs - t1 - t2) / max(1.0, abs(lhs))


@_check("z0_coincidence", 1e-10,
        "conical and hyperplane sections agree through the origin", dims=(2, 3))
def _check_z0_coincidence(resolution, n):
    # below the normal range hyperplane_section returns the conical value itself
    rule = equator_rule(n, resolution)
    for body in _bodies(n):
        scanned = replace(body, convex=False)
        for frame in _frames(n):
            c = conical_section(body, frame, 0.0, rule)
            h = hyperplane_section(scanned, frame, 2.0 ** -500 * body.radius_floor, rule)
            yield abs(c - h) / max(1.0, abs(c))


@_check("slope_agreement", 1e-6, "curve slopes at z=0 match the transform",
        dims=(2, 3))
def _check_slope_agreement(resolution, n):
    # finite-difference slopes on the reference rule, transforms on the checked one
    ref = equator_rule(n, REFERENCE_RESOLUTION)
    cur = equator_rule(n, resolution)
    frames = _frames(n)
    cases = [("conical", b, to_scalar_field(b), frame) for b in _bodies(n) for frame in frames]
    cases += [("hyperplane", b, hyperplane_profile_field(b), frame)
              for b in (_bodies(n)[1], _bodies(n)[2]) for frame in frames[:2]]
    if n == 3:
        cases += [("slice", f, f, frames[0])
                  for f in (harmonic_field({(3, 1): 0.5, (1, -1): 0.2, (2, 2): 0.4}),
                            zonal_field(3, 1, (0.0, 0.0, 1.0)))]
    for kind, obj, f, frame in cases:
        d = derivative_at_zero(kind, obj, frame, ref).fd_value - equator_transform(f, frame, cur)
        case = f"slice {obj.label}" if kind == "slice" else f"{kind} {obj.label} n={n}"
        yield abs(d), f"curve slopes at z=0 match the transform ({case})"


def _psi_probe_grid():
    mags = np.geomspace(1e-3, 1.0, 12)
    return np.concatenate([-mags[::-1], mags])


@_check("majorant", 1e-12,
        "sinpsi-normalized increments stay below the Lipschitz majorant")
def _check_majorant(resolution, _):
    psis = _psi_probe_grid()
    fields = [to_scalar_field(body) for body in _bodies(2) + _bodies(3)]
    fields += [harmonic_field({(3, 1): 0.3, (4, 0): 0.2}),
               fourier_field(0.5, (0.3, 0.1), (0.0, 0.2))]
    for f in fields:
        c = f.lipschitz_bound * math.pi / 2.0
        nodes = equator_rule(f.dim, 16).nodes
        for k in range(4):
            frame = make_frame(random_directions(f.dim, 1, seed=SEED + k)[0])
            f0 = f.evaluate(embed(frame, nodes, np.zeros(len(nodes))))
            for psi in psis:
                fp = f.evaluate(embed(frame, nodes, np.full(len(nodes), psi)))
                yield np.max(np.abs(fp - f0) / abs(math.sin(psi))) - c


@_check("tail_term", 1e-12, "the cos-power tail term obeys its linear-in-psi bound",
        dims=(2, 3, 4, 5, 6))
def _check_tail_term(resolution, n):
    rule = _pointwise_rule(n, resolution)
    f = to_scalar_field(_bodies(n)[1])
    cbound = vol_sphere(n - 2) * f.sup_bound * (n - 2) * math.pi / 4.0
    frame = _frames(n)[0]
    for psi in _psi_probe_grid():
        fp = f.evaluate(embed(frame, rule.nodes, psi))
        actual = abs((math.cos(psi) ** (n - 2) - 1.0) / math.sin(psi)
                     * float(np.sum(rule.weights * fp)))
        yield actual if cbound == 0.0 else actual / (cbound * abs(psi)) - 1.0


@_check("xi_oddness", 1e-8, "A(-xi) = -A(xi)", dims=(2, 3))
def _check_xi_oddness(resolution, n):
    # a second completion: on make_frame(-xi), with xi's basis, the sum is 0.0 node by node
    rule = equator_rule(n, resolution)
    f = to_scalar_field(_bodies(n)[1])
    negated = [make_frame(-xi, seed=SEED) for xi in _poles(n)]
    yield np.max(np.abs(transform_sweep(f, _frames(n), rule) + transform_sweep(f, negated, rule)))


@_check("odd_part", 1e-8, "the transform only sees the odd part of the field",
        dims=(2, 3))
def _check_odd_part(resolution, n):
    rule = equator_rule(n, resolution)
    f = to_scalar_field(_bodies(n)[1])
    frames = _frames(n)
    yield np.max(np.abs(transform_sweep(f, frames, rule)
                        - transform_sweep(odd_part(f), frames, rule)))


@_check("linearity", 1e-10, "A is linear in the field")
def _check_linearity(resolution, _):
    rule = equator_rule(3, resolution)
    f = to_scalar_field(_bodies(3)[1])
    g = harmonic_field({(1, 0): 0.4, (3, -2): 0.3})
    combo = _lin_comb(0.7, f, -1.3, g)
    frames = _frames(3)
    lhs = transform_sweep(combo, frames, rule)
    rhs = 0.7 * transform_sweep(f, frames, rule) - 1.3 * transform_sweep(g, frames, rule)
    yield np.max(np.abs(lhs - rhs) / np.maximum(1.0, np.abs(lhs)))


@_check("rotation", 1e-8, "A(R K, R xi) = A(K, xi)", dims=(2, 3))
def _check_rotation(resolution, n):
    rule = equator_rule(n, resolution)
    body = _bodies(n)[1]
    rot = random_rotation(n, seed=SEED)
    a = transform_sweep(to_scalar_field(body), _frames(n), rule)
    b = transform_sweep(to_scalar_field(rotate_body(body, rot)),
                        [rot @ xi for xi in _poles(n)], rule)
    yield np.max(np.abs(a - b))


@_check("scaling", 1e-8, "scaling the body by t scales A by t^(n-1)", dims=(2, 3))
def _check_scaling(resolution, n):
    lam = 1.7
    rule = equator_rule(n, resolution)
    body = _bodies(n)[1]
    frames = _frames(n)
    a = lam ** (n - 1) * transform_sweep(to_scalar_field(body), frames, rule)
    b = transform_sweep(to_scalar_field(scale_body(body, lam)), frames, rule)
    yield np.max(np.abs(a - b) / np.maximum(np.abs(a), 1e-12))


@_check("even_annihilation", 1e-8, "even fields are sent to zero", dims=(2, 3))
def _check_even_annihilation(resolution, n):
    rule = equator_rule(n, resolution)
    for l in (0, 2, 4, 6):
        f = zonal_field(n, l, np.arange(1.0, n + 1.0))
        yield np.max(np.abs(transform_sweep(f, _frames(n), rule)))


@_check("odd_multipliers", 1e-7, "odd harmonics are eigenfunctions up to degree 7")
def _check_odd_multipliers(resolution, _):
    t = _table(resolution)
    yield from (r for l, r in zip(t.degrees, t.residuals) if l % 2 == 1)


@_check("lambda1", 1e-6)
def _check_lambda1(resolution, _):
    t = _table(resolution)
    lam = dict(zip(t.degrees, t.multipliers))[1]
    yield abs(lam - 2.0 * math.pi), f"degree-1 multiplier is 2 pi (estimate {lam:.12g})"


@_check("odd_nondegeneracy", 0.0)
def _check_odd_nondegeneracy(resolution, _):
    t = _table(resolution)
    smallest = min(abs(m) for l, m in zip(t.degrees, t.multipliers) if l % 2 == 1)
    yield max(0.0, 1e-3 - smallest), f"no odd multiplier below 1e-3 (min {smallest:.6g})"


@_check("n2_oracle", 1e-10, "two-point transform matches the closed Fourier form")
def _check_n2_oracle(resolution, _):
    rng = np.random.default_rng(SEED + 5)
    rule = equator_rule(2, resolution)
    for _ in range(40):
        a0 = float(rng.uniform(-1, 1))
        a = tuple(rng.uniform(-0.5, 0.5, size=5))
        b = tuple(rng.uniform(-0.5, 0.5, size=5))
        theta0 = float(rng.uniform(0, 2 * math.pi))
        xi = np.array([math.cos(theta0), math.sin(theta0)])
        got = equator_transform(fourier_field(a0, a, b), make_frame(xi), rule)
        yield abs(got - fourier_check_n2(a0, a, b, theta0))


@_check("mc_agreement", 0.0)
def _check_mc_agreement(resolution, _):
    queries = [(_bodies(3)[1], (0.0, 0.0, 1.0), 0.25),
               (_bodies(3)[3], (0.6, 0.8, 0.0), -0.4)]
    rule = equator_rule(3, resolution)
    for i, (body, xi, z) in enumerate(queries):
        frame = make_frame(np.asarray(xi))
        for kind, section, mc, seed in (
                ("hyperplane", hyperplane_section, oracle.mc_hyperplane_section, SEED + i),
                ("cone", conical_section, oracle.mc_cone_section, SEED + 10 + i)):
            q = section(body, frame, z, rule)
            m = mc(body, xi, z, delta=0.02, samples=MC_SAMPLES, seed=seed)
            allow = max(3.0 * m.std_error, 0.01 * abs(q))
            yield (abs(q - m.value) - allow,
                   f"quadrature sections sit inside Monte Carlo error bars "
                   f"({kind} {body.label} z={z})")


@_check("detector", 0.0)
def _check_detector(resolution, _):
    # ball, two shifted balls and an ellipsoid in n = 2, then the same
    # four and the odd harmonic ball in n = 3, then an even harmonic ball
    wanted = ("symmetric", "asymmetric", "asymmetric", "symmetric") * 2 + ("asymmetric",)
    cases = list(zip(_bodies(2) + _bodies(3), wanted))
    cases.append((body_harmonic_perturbed_ball(0.05, 2, 1), "symmetric"))
    notes = []
    for body, want in cases:
        rep = detect(body, num_dirs=32, seed=SEED,
                     rule_resolution=resolution)
        if rep.verdict != want:
            notes.append(f"{body.label}: got {rep.verdict}, wanted {want}")
    yield float(len(notes)), ("; ".join(notes) if notes
                              else f"all {len(cases)} verdicts correct")


def check_names():
    return tuple(_CHECKS)


def run_checks(resolution=None, only=None):
    """Run the registry and return a list of CheckResult.

    resolution is passed unchanged to the `equator_rule` of each check,
    so None means each dimension's default, except in four checks:
    `majorant` always uses the resolution-16 rule, `set_identity` and
    `tail_term` the largest rule of the resolution's family with at most
    2048 nodes (`sphere_geom._family`), and `slope_agreement` takes its
    curve slopes on the REFERENCE_RESOLUTION = 512 rule against transforms
    on the resolution's rule.  `z0_coincidence` compares the cone at z = 0
    with the latitude scan's flat cut at height 2^-500 radius_floor, and
    `xi_oddness` adds A(-xi) on make_frame(-xi, seed=SEED) to A(xi).  A
    resolution below 2, or one whose n = 6 rule (which rule_mass builds) has
    more nodes than equator_rule allows, raises ValueError before any check runs.
    only: optional iterable of check names; an empty selection, an
    unknown name or a repeated one raises ValueError.
    """
    equator_rule(6, resolution)
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
        repeated = [x for x in dict.fromkeys(names) if names.count(x) > 1]
        if repeated:
            raise ValueError(f"repeated check name(s): {', '.join(repeated)}")
    return [_CHECKS[name](resolution) for name in names]
