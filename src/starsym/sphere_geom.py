"""Geometry of unit spheres: frames, latitude parameterization, quadrature.

Every direction on S^{n-1} is written relative to a pole xi as

    x = xi * sin(psi) + eta * cos(psi),

where eta is a unit vector in the equator S^{n-1} & xi-perp and
psi in [-pi/2, pi/2] is the geographic latitude.  Frames fix an
orthonormal basis of xi-perp so that equator points have coordinates
eta in R^{n-1}; quadrature rules on the equator are expressed in those
coordinates and reused across frames.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

DIM_MIN = 2
DIM_MAX = 6

_DEFAULT_RESOLUTION = {2: 2, 3: 512, 4: 64, 5: 32, 6: 16}

# seed of the frame completion behind every pole sweep, so that sweeps,
# CLI artifacts and verify checks agree on the basis of each xi-perp
FRAME_SEED = 101


def check_dim(n):
    if not (DIM_MIN <= int(n) <= DIM_MAX):
        raise ValueError(f"dimension {n} outside supported window [{DIM_MIN}, {DIM_MAX}]")
    return int(n)


def default_resolution(n):
    """Default equator-rule resolution for ambient dimension n."""
    return _DEFAULT_RESOLUTION[check_dim(n)]


def vol_sphere(m):
    """Surface measure of the unit sphere S^m (m = 0 gives counting measure 2)."""
    if m < 0:
        raise ValueError("sphere dimension must be nonnegative")
    return 2.0 * math.pi ** ((m + 1) / 2.0) / math.gamma((m + 1) / 2.0)


def unit_vector(v, dim=None):
    """Coerce an array-like v to a unit vector, validating length.

    v is first divided by the power of two above max |v|, which is exact:
    any finite nonzero v has a direction, with the bits of v / |v|.
    """
    out = np.asarray(v, dtype=float)
    if out.ndim != 1:
        raise ValueError("direction must be a 1-d vector")
    if not np.all(np.isfinite(out)):
        raise ValueError("direction has non-finite components")
    if dim is not None and out.shape[0] != dim:
        raise ValueError(f"direction has dimension {out.shape[0]}, expected {dim}")
    check_dim(out.shape[0])
    top = float(np.max(np.abs(out)))
    if top == 0.0:
        raise ValueError("direction is the zero vector")
    out = np.ldexp(out, -math.frexp(top)[1])
    return out / float(np.linalg.norm(out))


@dataclass(frozen=True, eq=False)
class EquatorFrame:
    """Pole xi plus an orthonormal basis of the hyperplane xi-perp.

    Attributes
    ----------
    pole : (n,) ndarray
        The unit pole xi.
    basis : (n-1, n) ndarray
        Orthonormal rows spanning xi-perp.  Equator coordinates eta in
        R^{n-1} refer to this basis.
    """

    pole: np.ndarray
    basis: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.pole, dtype=float)
        b = np.asarray(self.basis, dtype=float)
        n = check_dim(p.shape[0])
        if b.shape != (n - 1, n):
            raise ValueError(f"basis must have shape {(n - 1, n)}, got {b.shape}")
        gram = np.vstack([p, b]) @ np.vstack([p, b]).T
        if not np.allclose(gram, np.eye(n), atol=1e-10):
            raise ValueError("pole and basis rows are not orthonormal")
        object.__setattr__(self, "pole", p)
        object.__setattr__(self, "basis", b)
        self.pole.setflags(write=False)
        self.basis.setflags(write=False)

    @property
    def dim(self):
        return self.pole.shape[0]


def make_frame(pole, seed=FRAME_SEED):
    """Complete a pole to an orthonormal frame of its orthocomplement.

    The completion is deterministic for fixed (pole, seed): candidate
    vectors are drawn from a seeded generator and Gram-Schmidt
    orthogonalized; degenerate candidates are discarded and the next
    draw is used.

    Parameters
    ----------
    pole : array-like
    seed : int, default FRAME_SEED, the completion that every pole
        sweep, CLI artifact and verify check uses; a default detector
        sweep's r // 2 check adds a second one (see `sweep`)

    Returns
    -------
    EquatorFrame
    """
    p = unit_vector(pole)
    n = p.shape[0]
    rng = np.random.default_rng(seed)
    rows = []
    attempts = 0
    while len(rows) < n - 1:
        attempts += 1
        if attempts > 64 * n:
            raise RuntimeError("frame completion failed to converge")
        v = rng.standard_normal(n)
        v = v - (v @ p) * p
        for b in rows:
            v = v - (v @ b) * b
        norm = float(np.linalg.norm(v))
        if norm < 1e-6:
            continue
        rows.append(v / norm)
    return EquatorFrame(pole=p, basis=np.array(rows))


def embed(frame, eta, psi):
    """Latitude parameterization: xi sin(psi) + (eta @ basis) cos(psi).

    Validates its input: raises ValueError for a latitude outside
    [-pi/2, pi/2] or equator coordinates that are not unit vectors.
    The internal callers (`equator_derivative` and so every pole sweep,
    the section functions in `slice_transforms`) lift the trusted rule
    nodes once and skip these checks; their points are bit-identical to
    those of the private `_latitude_points`, which this function returns
    (the latitude scan of a flat cut also sums them coordinate-major).

    Parameters
    ----------
    frame : EquatorFrame
    eta : (..., n-1) array of unit equator coordinates
    psi : scalar or (...) array, latitude in [-pi/2, pi/2]

    Returns
    -------
    (..., n) ndarray of unit vectors on the latitude sphere at psi.
    """
    eta = np.asarray(eta, dtype=float)
    psi = np.asarray(psi, dtype=float)
    if np.any(np.abs(psi) > math.pi / 2 + 1e-12):
        raise ValueError("latitude psi outside [-pi/2, pi/2]")
    norms = np.linalg.norm(eta, axis=-1)
    if np.any(np.abs(norms - 1.0) > 1e-8):
        raise ValueError("equator coordinates must be unit vectors")
    return _latitude_points(frame.pole, eta @ frame.basis, psi)


def _latitude_points(pole, lifted, psi, out=None):
    # embed() without its checks, for equator points already lifted into
    # the frame (lifted = eta @ basis).  A pole tiled to the shape of lifted
    # makes both products whole-array loops; the sum, taken in place, has
    # the bits of sin(psi) pole + cos(psi) lifted, as addition commutes.
    # `out`, an array of the points' shape, receives them
    psi = np.asarray(psi, dtype=float)
    points = np.multiply(np.cos(psi)[..., None], lifted, out=out)
    points += np.sin(psi)[..., None] * pole
    return points


@dataclass(frozen=True, eq=False)
class EquatorQuadrature:
    """Quadrature rule on the unit sphere S^{d-1} of R^d.

    Used as an equator rule through frame coordinates: for a frame in
    ambient dimension n the nodes live on S^{n-2} subset R^{n-1}.
    Weights sum to the exact surface measure vol(S^{d-1}); `degree` is
    the declared polynomial exactness and `resolution` the node budget
    the rule was built with.
    """

    nodes: np.ndarray
    weights: np.ndarray
    degree: int
    resolution: int

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        if nodes.ndim != 2 or nodes.shape[0] != weights.shape[0]:
            raise ValueError("nodes and weights are inconsistent")
        if np.any(weights <= 0):
            raise ValueError("weights must be positive")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)
        self.nodes.setflags(write=False)
        self.weights.setflags(write=False)

    @property
    def size(self):
        return self.nodes.shape[0]

    @property
    def sphere_dim(self):  # d: nodes are unit vectors in R^d
        return self.nodes.shape[1]


def _polar_rule(sine_power, count):
    # Nodes and weights in t = cos(theta) for the measure sin^j(theta) dtheta.
    # Odd j folds the polynomial factor (1-t^2)^{(j-1)/2} into Gauss-Legendre
    # weights.  Even j needs the half-integer weight; spheres up to S^4 only
    # meet j = 2, which is Gauss-Chebyshev of the second kind in closed form:
    # t_k = cos(k pi/(m+1)), w_k = pi/(m+1) sin^2(k pi/(m+1)), written as
    # sine and cosine of pi (m+1-2k) / (2(m+1)) so that the nodes come out
    # ascending and exactly antisymmetric.
    j = int(sine_power)
    if j % 2 == 1:
        t, w = np.polynomial.legendre.leggauss(count)
        w = w * (1.0 - t * t) ** ((j - 1) // 2)
        exact = 2 * count - j
    elif j == 2:
        a = math.pi * np.arange(1 - count, count, 2) / (2 * (count + 1))
        t = np.sin(a)
        w = math.pi / (count + 1) * np.cos(a) ** 2
        exact = 2 * count - 1
    else:
        raise ValueError(f"no polar rule for the even sine power {j}: only "
                         f"j = 2 (spheres up to S^4) has a closed form here")
    return t, w, exact


def _lift(points, t):
    # points p on S^{m-1} to (p sqrt(1 - t^2), t) on S^m, for every polar
    # value t in turn: the block of t runs over all of points
    s = np.sqrt(np.clip(1.0 - t * t, 0.0, None))
    return np.concatenate(
        [points[None, :, :] * s[:, None, None],
         np.broadcast_to(t[:, None, None], (t.size, points.shape[0], 1))],
        axis=2,
    ).reshape(-1, points.shape[1] + 1)


@lru_cache(maxsize=64)
def sphere_rule(d, resolution):
    """Product quadrature on S^{d-1} subset R^d.

    `resolution` must be an integer (a numpy one too), at least 2 for
    every d, and the rule records it.  d = 1 is the two-point counting
    measure on S^0.  d = 2 is the uniform circle rule with `resolution`
    nodes.  For d >= 3 the rule is a product of the uniform circle rule
    in the periodic angle with Gauss rules in the polar angles (counts
    max(2, resolution // 2) each), so resolution * count^(d-2) nodes;
    weights are normalized to the exact surface measure.  A rule holds
    at most 2^21 = 2097152 nodes (d = 5 at resolution 64): a larger one
    is refused before any node is allocated.
    """
    d = int(d)
    if not (1 <= d <= DIM_MAX - 1):
        raise ValueError(f"sphere_rule supports 1 <= d <= {DIM_MAX - 1}, got {d}")
    if int(resolution) != resolution:
        raise ValueError(f"resolution must be an integer, got {resolution!r}")
    resolution = int(resolution)
    if resolution < 2:
        raise ValueError("resolution must be at least 2")
    count = max(2, resolution // 2)
    size = 2 if d == 1 else resolution * count ** (d - 2)
    if size > 2 ** 21:
        raise ValueError(f"resolution {resolution} on S^{d - 1} gives a rule of {size} "
                         f"nodes; at most 2097152 are allowed")
    if d == 1:
        nodes = np.array([[1.0], [-1.0]])
        weights = np.array([1.0, 1.0])
        return EquatorQuadrature(nodes=nodes, weights=weights,
                                 degree=10 ** 6, resolution=resolution)
    angles = 2.0 * math.pi * np.arange(resolution) / resolution
    nodes = np.column_stack([np.cos(angles), np.sin(angles)])
    weights = np.full(resolution, 2.0 * math.pi / resolution)
    degree = resolution - 1
    for j in range(1, d - 1):
        t, tw, exact = _polar_rule(j, count)
        nodes = _lift(nodes, t)
        weights = (tw[:, None] * weights[None, :]).reshape(-1)
        degree = min(degree, exact)
    weights = weights * (vol_sphere(d - 1) / weights.sum())
    return EquatorQuadrature(nodes=nodes, weights=weights, degree=degree, resolution=resolution)


def _family(rule):
    # The one walk over a rule's sphere_rule family: rule, then the cached
    # rules at r // 2, r // 4, ... down to resolution 2, each built as the
    # walk reaches it; a rule sphere_rule did not build (n = 2, other nodes
    # or weights, a size or resolution it would not give) walks alone.  Cuts
    # and default sweeps take its `_rungs`; verify's pointwise checks its first
    # rule of at most 2048 nodes, as a resolution cap leaves n = 5, 6 defaults whole.
    yield rule
    d, r = rule.sphere_dim, rule.resolution
    try:  # the size first, so that a declared resolution builds no larger rule
        own = d > 1 and r >= 4 and rule.size == r * max(2, r // 2) ** (d - 2) and sphere_rule(d, r)
    except ValueError:  # a rule past sphere_rule's node cap
        return
    if own and np.array_equal(own.nodes, rule.nodes) and np.array_equal(own.weights, rule.weights):
        for k in range(1, int(r).bit_length() - 1):
            yield sphere_rule(d, r // 2 ** k)


def _rungs(rule):
    # the r // 4 and r // 2 rungs of rule's family, then rule; rule alone without them
    rungs = list(itertools.islice(_family(rule), 3))
    return rungs[::-1] if len(rungs) == 3 else [rule]


def equator_rule(n, resolution=None):
    """Quadrature on the equator S^{n-2} of S^{n-1}, in frame coordinates.

    Parameters
    ----------
    n : ambient dimension (window [2, 6])
    resolution : int, optional
        Node budget for the periodic angle, at least 2; polar angles use
        half of it, and the rule holds at most 2^21 = 2097152 nodes
        (n = 6 at resolution 64; see `sphere_rule`).  None means the
        per-dimension default of `default_resolution`: 2 (n=2), 512
        (n=3), 64 (n=4), 32 (n=5), 16 (n=6).  This is the only place
        that default is applied: every layer above passes its
        resolution through unchanged and reports the returned rule's
        `resolution`.  Coarser rules come from this rule's family
        (`_family`): a default detector sweep in n >= 4 reads its ladder
        levels (resolution // 4 and // 2) off it, and may stop at one of
        them; its report records the rule it stopped at.
    """
    n = check_dim(n)
    if resolution is None:
        resolution = default_resolution(n)
    return sphere_rule(n - 1, resolution)


def fibonacci_sphere(count):
    """Golden-angle lattice of `count` quasi-uniform points on S^2."""
    count = int(count)
    if count < 1:
        raise ValueError("count must be positive")
    i = np.arange(count)
    z = 1.0 - (2.0 * i + 1.0) / count
    r = np.sqrt(np.clip(1.0 - z * z, 0.0, None))
    golden = math.pi * (3.0 - math.sqrt(5.0))
    theta = golden * i
    return np.column_stack([r * np.cos(theta), r * np.sin(theta), z])


def probe_directions(n, count=2000):
    """Quasi-uniform probe grid on S^{n-1}.

    A Fibonacci lattice for n=3 and midpoint product grids in spherical
    angles otherwise (uniform angles for n=2).  Returns at least `count`
    directions: exactly `count` at n=2 when it is even and at least 4.
    """
    n = check_dim(n)
    count = int(count)
    if n == 3:
        return fibonacci_sphere(count)
    k = max(2, math.ceil((count / 2.0) ** (1.0 / (n - 1))))
    ang = 2.0 * math.pi * (np.arange(2 * k) + 0.5) / (2 * k)
    pts = np.column_stack([np.cos(ang), np.sin(ang)])
    for _ in range(n - 2):
        pts = _lift(pts, -1.0 + 2.0 * (np.arange(k) + 0.5) / k)
    return pts


def random_directions(n, count, seed=0):
    """Seeded uniform directions on S^{n-1} (Gaussian normalization)."""
    n = check_dim(n)
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    v = rng.standard_normal((int(count), n))
    norms = np.linalg.norm(v, axis=1, keepdims=True)
    bad = norms[:, 0] < 1e-12
    while np.any(bad):
        v[bad] = rng.standard_normal((int(bad.sum()), n))
        norms = np.linalg.norm(v, axis=1, keepdims=True)
        bad = norms[:, 0] < 1e-12
    return v / norms


def random_rotation(n, seed=0):
    """Seeded Haar-ish rotation matrix in SO(n) via QR with sign fixing."""
    n = check_dim(n)
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    q, r = np.linalg.qr(a)
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def geodesic_distance(u, v):
    """Great-circle distance between unit vectors (robust near 0 and pi)."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    chord = np.linalg.norm(u - v, axis=-1)
    return 2.0 * np.arcsin(np.clip(chord / 2.0, 0.0, 1.0))
