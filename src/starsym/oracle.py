"""Monte Carlo slab estimators for section volumes.

These estimators share no code with the quadrature path in
slice_transforms and serve as independent cross-checks.  Both measure a
thin slab of half-width delta around the target level and carry an
O(delta^2) smoothing bias on top of the reported sampling error.

Hyperplane slabs: points drawn uniformly from the bounding ball; the
accepted fraction estimates vol(slab cap K) and dividing by the slab
thickness 2*delta recovers the (n-1)-volume of the section.

Cone slabs: directions u drawn uniformly on the sphere and kept when
<u, xi> lies in (z - delta, z + delta); radii drawn with density
proportional to r^(n-2) on [0, R_b] so that the accepted fraction
estimates the motion integral of the latitude band, and dividing by the
band's psi-width recovers the conical section value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .sphere_geom import unit_vector, vol_sphere
from .star_body import RadialField

_CHUNK = 1 << 19


@dataclass(frozen=True)
class SlabEstimate:
    """A Monte Carlo section estimate with its binomial error bar.

    std_error covers sampling noise only; the slab geometry adds a
    deterministic bias of order slab_half_width**2.
    """

    value: float
    std_error: float
    samples: int
    slab_half_width: float
    seed: int


def _check_body(body):
    if not isinstance(body, RadialField):
        raise TypeError("oracle estimators expect a RadialField")
    return body


def _slab_estimate(body, xi, z, delta, samples, seed, scale_of, hits_in):
    # input checks, chunks of uniform directions g on S^(n-1) and the
    # binomial estimate.  scale_of(n, rb, z, delta) runs between the delta
    # and sample-count checks and may refuse its inputs; hits_in(rng, g,
    # xi, z, delta, rb) counts a chunk's hits, drawing its radii after g
    body = _check_body(body)
    n = body.dim
    xi = unit_vector(xi, n)
    z, delta, samples = float(z), float(delta), int(samples)
    if delta <= 0.0:
        raise ValueError("delta must be positive")
    rb = body.radius_bound
    scale = scale_of(n, rb, z, delta)
    if samples < 1000:
        raise ValueError("samples must be at least 1000")
    rng = np.random.default_rng(seed)
    hits = 0
    done = 0
    while done < samples:
        count = min(_CHUNK, samples - done)
        g = rng.standard_normal((count, n))
        g /= np.linalg.norm(g, axis=1, keepdims=True)
        hits += hits_in(rng, g, xi, z, delta, rb)
        done += count
    p = hits / samples
    return SlabEstimate(value=scale * p, std_error=scale * math.sqrt(p * (1.0 - p) / samples),
                        samples=samples, slab_half_width=delta, seed=int(seed))


def mc_hyperplane_section(body, xi, z, delta=0.01, samples=1_000_000, seed=0):
    """Estimate the hyperplane section volume at level z by slab counting.

    Samples points uniformly in the bounding ball of radius
    body.radius_bound, counts those inside the body whose xi-coordinate
    lies within delta of z, and scales by ball volume over slab
    thickness.
    """
    def scale_of(n, rb, z, delta):
        return vol_sphere(n - 1) / n * rb ** n / (2.0 * delta)

    def hits_in(rng, g, xi, z, delta, rb):
        r = rb * rng.uniform(size=g.shape[0]) ** (1.0 / g.shape[1])
        keep = np.abs(r * (g @ xi) - z) < delta
        if not np.any(keep):
            return 0
        return int(np.count_nonzero(r[keep] <= body.evaluate(g[keep])))

    return _slab_estimate(body, xi, z, delta, samples, seed, scale_of, hits_in)


def mc_cone_section(body, xi, z, delta=0.01, samples=1_000_000, seed=0):
    """Estimate the conical section value at level z by band counting.

    The latitude band z - delta < <u, xi> < z + delta corresponds to a
    psi-interval of width arcsin(z + delta) - arcsin(z - delta); radii
    are drawn with density r^(n-2) so the acceptance probability equals
    the band's section-density integral divided by the importance mass
    vol(S^(n-1)) * R_b^(n-1) / (n-1).
    """
    def scale_of(n, rb, z, delta):
        if abs(z) + delta >= 1.0:
            raise ValueError("need |z| + delta < 1 so the band stays on the sphere")
        psi_width = math.asin(z + delta) - math.asin(z - delta)
        return vol_sphere(n - 1) * rb ** (n - 1) / ((n - 1) * psi_width)

    def hits_in(rng, g, xi, z, delta, rb):
        kept = g[np.abs(g @ xi - z) < delta]
        if not kept.shape[0]:
            return 0
        r = rb * rng.uniform(size=kept.shape[0]) ** (1.0 / (g.shape[1] - 1))
        return int(np.count_nonzero(r <= body.evaluate(kept)))

    return _slab_estimate(body, xi, z, delta, samples, seed, scale_of, hits_in)
