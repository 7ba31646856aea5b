"""Detecting central asymmetry of star bodies from equatorial transforms.

The transform A(xi) vanishes identically when the section density is
even; sweeping poles and comparing max |A| against the rounding floor
of the sweep's own sums therefore separates "asymmetry detected" from
"no asymmetry visible at this resolution".
A verdict of symmetric is NOT a proof of symmetry; it only reports that
the sweep saw nothing above the floor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

# probe_directions and odd_part are used by nothing here; they stay
# imported because perfbench's tracer rebinds both names on this module
from .sphere_geom import (
    check_dim,
    equator_rule,
    fibonacci_sphere,
    make_frame,
    probe_directions,
    random_directions,
)
from .star_body import odd_part, to_scalar_field
from .slice_transforms import _pole_transforms

_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True, eq=False)
class AsymmetryReport:
    """Result of a pole sweep of the equatorial transform.

    values[i] = A(xis[i]); verdict is 'asymmetric' iff max_abs exceeds
    threshold, the sweep's floor C eps max s (see `sweep`).  note spells
    out what a symmetric verdict does and does not mean.  resolution is
    the rule the values come from; a default sweep in n >= 4 may stop below `equator_rule(n)` (see `sweep`).  ladder holds
    one (resolution, nodes, max move, floor) tuple per rule the sweep
    visited, coarsest first: max move is the largest change of a swept
    value since the level before (None on the first level) and floor is
    C eps max s on that level.  It is a diagnostic: the CLI's report.json
    and values.csv leave it out.
    """

    body_id: str
    dim: int
    num_dirs: int
    resolution: int
    seed: int
    threshold: float
    xis: np.ndarray
    values: np.ndarray
    max_abs: float
    l2_mean: float
    verdict: str
    note: str
    ladder: tuple = ()

    def __post_init__(self):
        if self.verdict not in ("symmetric", "asymmetric"):
            raise ValueError("verdict must be 'symmetric' or 'asymmetric'")
        if self.xis.shape[0] != self.values.shape[0]:
            raise ValueError("xis and values must have matching lengths")


def sample_poles(n, count, seed=0):
    """The detector's antipodal pole set: m base poles, then their negatives.

    m = max(1, count // 2) base poles (Fibonacci for n=3, seeded-random
    otherwise) are followed by their negatives, 2m in all:
    sample_poles(3, 1) has 2 poles and sample_poles(n, 37) has 36.
    A(-xi) = -A(xi), so the negatives add no information; `sweep`
    computes the base poles alone and reads each negative's value off
    its base pole.
    """
    n = check_dim(n)
    count = int(count)
    if count < 1:
        raise ValueError("count must be positive")
    half = max(1, count // 2)
    base = fibonacci_sphere(half) if n == 3 else random_directions(n, half, seed=seed)
    return np.vstack([base, -base])


@lru_cache(maxsize=64)
def _pole_frames(n, num_dirs, seed):
    # sample_poles is deterministic, so each pole set and the seeded
    # frames of its base half are built once per process and shared by
    # every sweep
    xis = sample_poles(n, num_dirs, seed=seed)
    xis.setflags(write=False)
    return xis, tuple(make_frame(xi) for xi in xis[:len(xis) // 2])


@lru_cache(maxsize=2)
def calibrate(gradient_path):
    """Floor constant C of `sweep` for one meridian-derivative path.

    On an even field A is rounding alone, and `sweep` compares max |A|
    with C eps max s, s the roundoff scale of each `TransformValue`.  On
    even bodies (ellipsoids, near-round too, at scales 1e-2..1e2, even
    harmonic bumps; n = 2..6, default and coarse rules) |A| / (eps s)
    measured at most 0.93 with a gradient and 9.7 without, so C keeps
    them ten times below the floor.  Cached only so that
    `calibrate.cache_info()` counts the calls.
    """
    return 32.0 if gradient_path else 128.0


# A default rule with at least this many nodes is swept on a ladder of
# coarser rules first; below it the two extra sweeps cost more than a
# coarse level saves (n = 2, 3).  Measured with grouped pole sweeps, an
# n = 3 ladder (128, 256, 512 nodes) stopped every detect_mixed stratum
# at 256 and still ran 9-29% slower
_LADDER_NODES = 2048


def _rule_ladder(n, rule_resolution):
    # the rules a sweep may visit, coarsest first: an explicit rule or one
    # below _LADDER_NODES alone, else resolution // 4, // 2 and the rule
    rule = equator_rule(n, rule_resolution)
    if rule_resolution is not None or rule.size < _LADDER_NODES:
        return (rule,)
    return (equator_rule(n, rule.resolution // 4),
            equator_rule(n, rule.resolution // 2), rule)


def sweep(f, num_dirs=100, seed=0, rule_resolution=None, body_id=None):
    """Evaluate the transform over the antipodal pole set and classify the field.

    The verdict compares max |A| with the sweep's own floor C eps max s,
    with C = `calibrate(f.gradient is not None)` and s the roundoff scale
    of each swept transform (`TransformValue`); the report's threshold
    is that floor.

    Parameters
    ----------
    f : ScalarField
    num_dirs : poles requested; the sweep covers 2 * max(1, num_dirs // 2)
        (see `sample_poles`), and the report's num_dirs is the swept count
    rule_resolution : an explicit rule is swept once, as given

    The base poles are computed by `transform_sweep`'s kernel, in groups
    of up to 8192 lifted nodes per evaluate or gradient call (all 50
    default base poles in one call at n = 2, 16 per call at n = 3, 4 at
    the n = 4 default, one at the 8192-node defaults of n = 5, 6), each
    value equal to its own `equator_transform` bit for bit.  Each
    negative gets 0.0 - A: make_frame(-xi) has the basis of
    make_frame(xi), so both frames lift the same equator nodes, every
    per-node derivative flips sign exactly (the +-h latitude points of
    the finite-difference path swap places) and the value is the one a
    fresh transform would return, bit for bit; 0.0 - A keeps an exact
    zero at +0.0 as the fresh sum does.  The negative's roundoff scale
    is its base pole's, so the floor's max s runs over the base poles.

    Without `rule_resolution`, a default rule of at least 2048 nodes
    (n >= 4) is reached on a ladder: the base poles are swept at
    resolutions r // 4, r // 2 and r of `equator_rule(n)`.  The sweep
    stops at r // 2 only when no value moved by more than that level's
    floor C eps max s since r // 4, and its verdict stands under the
    default rule with that move as margin: max |A| - move above twice
    the floor, or max |A| + move at most the floor times |w_r| / |w_r//2|
    (the default rule's floor on the finite-difference path; on the
    gradient path the scale does not fall with the nodes, so there the
    bound is conservative).  A sweep that reaches r returns what a
    one-level sweep of equator_rule(n) returns, bit for bit.  The
    report's `resolution` is the rule the values come from, and its
    `ladder` lists every level visited.

    Returns
    -------
    AsymmetryReport
    """
    n = f.dim
    xis, frames = _pole_frames(n, num_dirs, seed)
    xis = xis.copy()
    constant = calibrate(f.gradient is not None) * _EPS
    rules = _rule_ladder(n, rule_resolution)
    ladder, base = [], None
    for rule in rules:
        coarser, base = base, _pole_transforms(f, frames, rule)
        floor = constant * max(value.scale for value in base)
        move = None if coarser is None else float(np.max(np.abs(np.subtract(base, coarser))))
        ladder.append((rule.resolution, rule.size, move, floor))
        if move is not None and rule is not rules[-1] and move <= floor:
            # settled; a margin of `move` keeps the verdict on its side of
            # the default rule's floor, taken as twice this one above and
            # as this one times |w_default| / |w_level| below
            finest = rules[-1].weights
            ratio = math.sqrt(float(finest @ finest) / float(rule.weights @ rule.weights))
            peak = float(np.max(np.abs(base)))
            if peak - move > 2.0 * floor or peak + move <= floor * ratio:
                break
    values = np.array(base + [0.0 - value for value in base], dtype=float)
    max_abs = float(np.max(np.abs(values)))
    l2_mean = float(math.sqrt(float(np.mean(values ** 2))))
    if max_abs > floor:
        verdict = "asymmetric"
        top = xis[int(np.argmax(np.abs(values)))]
        note = ("asymmetry detected: max |A| = {:.6g} exceeds threshold {:.6g} "
                "near pole [{}]").format(
                    max_abs, floor, ", ".join(f"{c:.4f}" for c in top))
    else:
        verdict = "symmetric"
        note = ("no asymmetry detected at this resolution (max |A| = {:.6g}, "
                "threshold {:.6g}); this certifies nothing beyond the sweep, "
                "it is not a proof of symmetry").format(max_abs, floor)
    return AsymmetryReport(
        body_id=body_id or f.label or "field",
        dim=n, num_dirs=int(xis.shape[0]),
        resolution=rule.resolution, seed=int(seed), threshold=float(floor),
        xis=xis, values=values, max_abs=max_abs, l2_mean=l2_mean,
        verdict=verdict, note=note, ladder=tuple(ladder))


def detect(body, num_dirs=100, seed=0, rule_resolution=None):
    """Sweep a star body's section density for central asymmetry; see `sweep`.

    `detect(body, num_dirs=37)` sweeps and reports 36 poles, 18 antipodal
    pairs, at the cost of 18 base-pole transforms per rule it visits (in
    ceil(18 / G) field calls, G = max(1, 8192 // nodes)).  A default
    detect in n >= 4 may stop at half the default resolution, and the
    report's `resolution` records the rule its values come from.
    """
    return sweep(to_scalar_field(body), num_dirs=num_dirs, seed=seed,
                 rule_resolution=rule_resolution, body_id=body.label)
