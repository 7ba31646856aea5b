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
from typing import Optional

import numpy as np

from .sphere_geom import (
    check_dim,
    equator_rule,
    fibonacci_sphere,
    make_frame,
    probe_directions,
    random_directions,
)
from .star_body import odd_part, to_scalar_field
from .slice_transforms import _pole_values

_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True, eq=False)
class AsymmetryReport:
    """Result of a pole sweep of the equatorial transform.

    values[i] = A(xis[i]); verdict is 'asymmetric' iff max_abs exceeds
    the threshold.  note spells out what a symmetric verdict does and
    does not mean.  ground_truth_odd_sup, when present, is the probed
    sup-norm of the odd part of the swept field (diagnostic only).
    """

    body_id: str
    dim: int
    sampler: str
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
    ground_truth_odd_sup: Optional[float] = None

    def __post_init__(self):
        if self.verdict not in ("symmetric", "asymmetric"):
            raise ValueError("verdict must be 'symmetric' or 'asymmetric'")
        if self.xis.shape[0] != self.values.shape[0]:
            raise ValueError("xis and values must have matching lengths")


def sample_poles(n, count, sampler="antipodal", seed=0):
    """Pole sets for sweeps: 'fibonacci' (n=3), 'random', 'antipodal'.

    'antipodal' returns m = max(1, count // 2) poles (Fibonacci-based
    for n=3, seeded-random otherwise) followed by their negatives, 2m in
    all: sample_poles(3, 1) has 2 poles and sample_poles(n, 37) has 36.
    The pairs make A(-xi) = -A(xi) visible, and `transform_sweep` reads
    each negative's value off its twin, so N poles cost N/2 transforms.
    """
    n = check_dim(n)
    count = int(count)
    if count < 1:
        raise ValueError("count must be positive")
    if sampler == "fibonacci":
        if n != 3:
            raise ValueError("fibonacci sampler is specific to n=3")
        return fibonacci_sphere(count)
    if sampler == "random":
        return random_directions(n, count, seed=seed)
    if sampler == "antipodal":
        half = max(1, count // 2)
        base = fibonacci_sphere(half) if n == 3 else random_directions(n, half, seed=seed)
        return np.vstack([base, -base])
    raise ValueError(f"unknown sampler {sampler!r}")


@lru_cache(maxsize=64)
def _pole_frames(n, num_dirs, sampler, seed):
    # sample_poles is deterministic, so each pole set and its seeded
    # frames are built once per process and shared by every sweep
    xis = sample_poles(n, num_dirs, sampler=sampler, seed=seed)
    xis.setflags(write=False)
    return xis, tuple(make_frame(xi) for xi in xis)


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


def sweep(f, num_dirs=100, sampler="antipodal", seed=0, rule_resolution=None,
          threshold=None, body_id=None):
    """Evaluate the transform over a pole sample and classify the field.

    Parameters
    ----------
    f : ScalarField
    num_dirs : poles requested; 'antipodal' sweeps 2 * max(1, num_dirs // 2)
        (see `sample_poles`), and the report's num_dirs is the swept count
    sampler : 'antipodal' (default), 'fibonacci', or 'random'
    threshold : absolute threshold on max |A|; by default
        C eps max s, with C = `calibrate(f.gradient is not None)` and s
        the roundoff scale of each swept transform (`TransformValue`)

    Returns
    -------
    AsymmetryReport
    """
    n = f.dim
    rule = equator_rule(n, rule_resolution)
    xis, frames = _pole_frames(n, num_dirs, sampler, seed)
    xis = xis.copy()
    computed = _pole_values(f, frames, rule)
    values = np.array(computed, dtype=float)
    max_abs = float(np.max(np.abs(values)))
    l2_mean = float(math.sqrt(float(np.mean(values ** 2))))
    odd_sup = float(np.max(np.abs(odd_part(f).evaluate(probe_directions(n, 2000)))))
    if threshold is None:
        scale = max(value.scale for value in computed)
        threshold = calibrate(f.gradient is not None) * _EPS * scale
    if max_abs > threshold:
        verdict = "asymmetric"
        top = xis[int(np.argmax(np.abs(values)))]
        note = ("asymmetry detected: max |A| = {:.6g} exceeds threshold {:.6g} "
                "near pole [{}]").format(
                    max_abs, threshold, ", ".join(f"{c:.4f}" for c in top))
    else:
        verdict = "symmetric"
        note = ("no asymmetry detected at this resolution (max |A| = {:.6g}, "
                "threshold {:.6g}); this certifies nothing beyond the sweep, "
                "it is not a proof of symmetry").format(max_abs, threshold)
    return AsymmetryReport(
        body_id=body_id or f.label or "field",
        dim=n, sampler=sampler, num_dirs=int(xis.shape[0]),
        resolution=rule.resolution, seed=int(seed), threshold=float(threshold),
        xis=xis, values=values, max_abs=max_abs, l2_mean=l2_mean,
        verdict=verdict, note=note, ground_truth_odd_sup=odd_sup)


def detect(body, num_dirs=100, sampler="antipodal", seed=0, rule_resolution=None,
           threshold=None):
    """Sweep a star body's section density for central asymmetry; see `sweep`.

    An antipodal `detect(body, num_dirs=37)` sweeps and reports 36 poles.
    """
    return sweep(to_scalar_field(body), num_dirs=num_dirs, sampler=sampler,
                 seed=seed, rule_resolution=rule_resolution, threshold=threshold,
                 body_id=body.label)
