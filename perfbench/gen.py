"""Seeded workload generators.

Each workload is a stream of cycles; a cycle is a fixed list of strata
(dimension, body kind, path) whose parameters are drawn afresh, so every
run sees the same mix whatever the seed.  The parameters that decide
whether a known defect shows (body scale, centre offset, axis ratio) come from a
rotated Kronecker sequence per stratum: each draw is still uniform,
but any run of k visits covers the range evenly, so the number of
failing operations moves little from seed to seed.  Nothing is narrowed
to avoid a defect: scales span 1e-2..1e2 and every height of the
default grid at which a cut exists is kept.
"""

from __future__ import annotations

import math

import numpy as np

from oracles import Body, real_harmonic_sup

DIMS = (2, 3, 4, 5, 6)
SHAPES = ("ball", "ellipsoid", "shifted_ball")
# the CLI's default height grid -0.8:0.8:0.1, built the same way
HEIGHTS = -0.8 + 0.1 * np.arange(17)
FRAME_SEED = 101  # the pole-frame seed the CLI uses
# conical operations per hyperplane one, by dimension; see sections_cycle
CONICAL_PER_CUT = {2: 1, 3: 1, 4: 1, 5: 5, 6: 5}
# one irrational step per drawn quantity, so that quantities drawn
# together for one stratum do not fall on a line
_STEPS = {"scale": (math.sqrt(5.0) - 1.0) / 2.0, "offset": math.sqrt(2.0) - 1.0,
          "angle": math.sqrt(7.0) - 2.0, "ratio": math.sqrt(3.0) - 1.0}


class Spec:
    """One generated input: the closed-form body plus how to run it."""

    def __init__(self, body, xi=None, section=None, fd=False, heights=None):
        self.body = body
        self.xi = xi
        self.section = section
        self.fd = fd
        self.heights = heights

    @property
    def dim(self):
        return self.body.dim

    def cli_json(self):
        """The body as a `starsym` CLI spec (balls, shifted balls, ellipsoids)."""
        p = {k: (v.tolist() if isinstance(v, np.ndarray) else v)
             for k, v in self.body.params.items()}
        return {"kind": self.body.kind, "dim": self.body.dim, "params": p}


class Generator:
    def __init__(self, seed, stream):
        self.rng = np.random.default_rng([int(seed), stream])
        self._offsets = {}
        self._visits = {}

    def even_draw(self, key):
        """u in [0, 1): the next point of a rotated Kronecker sequence.

        key[0] names the quantity; the rest names the stratum."""
        if key not in self._offsets:
            self._offsets[key] = self.rng.uniform()
            self._visits[key] = 0
        j = self._visits[key]
        self._visits[key] = j + 1
        return (self._offsets[key] + j * _STEPS[key[0]]) % 1.0

    def direction(self, n):
        v = self.rng.standard_normal(n)
        return v / np.linalg.norm(v)

    def body(self, kind, n, scale, key, xi=None):
        """A body of the given shape; with a pole xi, a shifted ball's centre
        makes an evenly drawn angle with it, since that angle and the offset
        decide which cuts exist."""
        if kind == "ball":
            return Body("ball", n, radius=scale)
        if kind == "ellipsoid":
            # axes log-spaced over a ratio of 1..3 between longest and shortest
            spread = 0.5 * math.log(3.0) * self.even_draw(("ratio",) + key)
            logs = self.rng.permutation(np.linspace(-spread, spread, n))
            return Body("ellipsoid", n, semiaxes=scale * np.exp(logs))
        if kind == "shifted_ball":
            offset = 0.1 + 0.5 * self.even_draw(("offset",) + key)
            direction = self.direction(n)
            if xi is not None:
                cos = 2.0 * self.even_draw(("angle",) + key) - 1.0
                side = direction - (direction @ xi) * xi
                direction = cos * xi + math.sqrt(1.0 - cos * cos) * side / np.linalg.norm(side)
            return Body("shifted_ball", n, radius=scale,
                        center=scale * offset * direction)
        raise ValueError(kind)

    def harmonic_body(self, odd, scale):
        degree = int(self.rng.choice((1, 3, 5) if odd else (2, 4)))
        order = int(self.rng.integers(-degree, degree + 1))
        eps = (self.rng.choice((-1.0, 1.0)) * 0.3 * self.rng.uniform(0.2, 1.0)
               / real_harmonic_sup(degree))
        return Body("harmonic_ball", 3, epsilon=float(eps), degree=degree,
                    order=order, scale=scale)

    def log_scale(self, key):
        """Log-uniform in 1e-2..1e2: the detector's scale range."""
        return 10.0 ** (-2.0 + 4.0 * self.even_draw(("scale",) + key))

    def unit_scale(self, key):
        """Log-uniform in 10^-0.1..10^0.1, so the height grid spans the body."""
        return 10.0 ** (0.1 * (2.0 * self.even_draw(("scale",) + key) - 1.0))


def detect_cycle(gen, k):
    """22 bodies: ball, ellipsoid, shifted ball and one finite-difference body
    per dimension, plus odd and even harmonic balls in n = 3."""
    specs = []
    for n in DIMS:
        fd_shape = SHAPES[(n + k) % 3]
        for shape, fd in [(s, False) for s in SHAPES] + [(fd_shape, True)]:
            key = (n, shape, fd)
            specs.append(Spec(gen.body(shape, n, gen.log_scale(key), key), fd=fd))
        if n == 3:
            for odd in (True, False):
                scale = gen.log_scale((3, "harmonic", odd))
                specs.append(Spec(gen.harmonic_body(odd, scale)))
    gen.rng.shuffle(specs)
    return specs


def section_spec(gen, n, shape, section, xi=None, reach=None):
    """A section operation; heights are the grid points where the cut exists.

    reach, for shifted balls and ellipsoids, asks for a body whose cuts do
    (True) or do not (False) reach past its smallest equatorial radius, the
    case ROADMAP item 2(b) is about.  Fixing it per stratum keeps the share
    of such cuts, and of the slow root-solving ones, the same in every run.
    """
    key = (n, shape, section)
    for _ in range(1000):
        pole = gen.direction(n) if xi is None else xi
        body = gen.body(shape, n, gen.unit_scale(key), key, pole)
        heights = HEIGHTS
        if section != "conical":
            lo, hi = body.support(pole)
            heights = HEIGHTS[(HEIGHTS > lo) & (HEIGHTS < hi)]
        if reach is None or shape == "ball":
            return Spec(body, xi=pole, section=section, heights=heights)
        if (np.max(np.abs(heights)) >= body.equator_min_radius(pole)) == reach:
            return Spec(body, xi=pole, section=section, heights=heights)
    raise RuntimeError(f"no {shape} in n={n} with reach={reach}")


def sections_cycle(gen, k):
    """Every (dimension, shape) pair: one hyperplane operation and
    CONICAL_PER_CUT[n] conical ones.  Latencies fall into clusters: refused
    and low-n conical cuts (a few ms), n = 5, 6 conical cuts (about 15 ms,
    spent in evaluations over thousands of nodes) and hyperplane curves
    (0.05-2 s).  The weights put the median inside the middle cluster, not
    at a gap between two; hyperplane operations still take most of the
    time, and the n = 6 ellipsoids the default rule under-resolves get
    five draws a cycle.  At each dimension one of the shifted ball and
    the ellipsoid has cuts reaching past the equatorial radius,
    alternating from cycle to cycle."""
    specs = []
    for n in DIMS:
        for shape in SHAPES:
            reach = (n + k + (shape == "ellipsoid")) % 2 == 0
            specs.append(section_spec(gen, n, shape, "hyperplane", reach=reach))
            specs += [section_spec(gen, n, shape, "conical")
                      for _ in range(CONICAL_PER_CUT[n])]
    gen.rng.shuffle(specs)
    return specs


def cli_cycle(gen, k):
    """verify, analyze at n = 3 and 5, sections at n = 3, harmonics --dim 3.

    Bodies are drawn near unit scale like sections_grid's; detect_mixed
    covers the detector's scale range.  The sections cut reaches past the
    equatorial radius on odd cycles only, so a run of whole pairs of
    cycles always holds the same mix (CLI_PERIOD)."""
    shape = SHAPES[k % 3]
    analyze = [Spec(gen.body(shape, n, gen.unit_scale((n, shape, "analyze")),
                             (n, shape, "analyze")))
               for n in (3, 5)]
    pole = np.zeros(3)
    pole[-1] = 1.0
    reach = k % 2 == 1
    cut = SHAPES[1 + k // 2 % 2] if reach else SHAPES[k // 2 % 3]
    sections = section_spec(gen, 3, cut, "both", xi=pole, reach=reach)
    return [("verify", None), ("analyze", analyze[0]), ("analyze", analyze[1]),
            ("sections", sections), ("harmonics", None)]


CLI_PERIOD = 2
