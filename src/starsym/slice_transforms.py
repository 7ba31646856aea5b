"""Section functions of star bodies and the equatorial derivative transform.

Three curves in the height variable z share machinery here.  With
psi = arcsin(z) and f = rho^{n-1}/(n-1):

* slice_integral: integral of a field over the latitude sphere
  { x in S^{n-1} : <x, xi> = z }, which is the same point set as the
  intersection of the sphere with the cone of opening cosine z.
* conical_section: (n-1)-measure of the body carved out along that
  cone, equal to the slice integral of f.
* hyperplane_section: (n-1)-volume of the flat cut { <x, xi> = z },
  computed from the polar profile of the cut around its foot point.

The equatorial transform A(xi) integrates the meridian derivative of a
field over the equator of xi.  Each curve's derivative at z = 0 equals
the transform of a matching field (f itself for the first two kinds,
rho^{n-2}/(n-2), or log rho when n = 2, for flat cuts); vanishing of
A(xi) for almost every pole forces the field to be even.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .sphere_geom import EquatorFrame, make_frame
from .star_body import (
    FD_STEP,
    RadialField,
    ScalarField,
    _meridian_terms,
    hyperplane_profile_field,
    to_scalar_field,
)

_SCAN_POINTS = 64
_ROOT_WIDTH = 1e-12
_MAX_REFINE = 100
# slope ladder of derivative_at_zero: steps _LADDER_H0 / 2^k, k < _LADDER_LEVELS
_LADDER_H0 = 1e-2
_LADDER_LEVELS = 4


@dataclass(frozen=True, eq=False)
class SectionCurve:
    """Sampled section curve z -> value for one body/field and pole."""

    kind: str
    xi: np.ndarray
    zs: np.ndarray
    values: np.ndarray
    label: str = ""

    def __post_init__(self):
        zs = np.asarray(self.zs, dtype=float)
        vals = np.asarray(self.values, dtype=float)
        if zs.ndim != 1 or zs.shape != vals.shape:
            raise ValueError("zs and values must be matching 1-d arrays")
        if np.any(np.diff(zs) <= 0):
            raise ValueError("zs must be strictly increasing")
        if not np.all(np.isfinite(vals)):
            raise ValueError("curve values must be finite")
        if self.kind in ("conical", "hyperplane") and np.any(vals < -1e-12):
            raise ValueError("section measures must be nonnegative")
        object.__setattr__(self, "zs", zs)
        object.__setattr__(self, "values", vals)


@dataclass(frozen=True, eq=False)
class DerivativeAtZero:
    """Finite-difference slope of a section curve at z = 0 vs the transform.

    fd_steps holds the raw central-difference ladder as (h, estimate)
    pairs; fd_value is its Richardson limit and agreement_residual is
    |fd_value - transform_value|.  ladder_monotone records whether the
    extrapolation corrections shrank monotonically (a coarse stability
    diagnostic for the ladder).
    """

    kind: str
    xi: np.ndarray
    fd_value: float
    transform_value: float
    fd_steps: tuple
    agreement_residual: float
    ladder_monotone: bool


def richardson_limit(pairs):
    """Richardson extrapolation of central differences on a halving ladder.

    pairs: sequence of (h, estimate) with each h half the previous one.
    Error orders are even powers of h, so each level multiplies the
    elimination factor by 4.  Returns (limit, diagonal) where diagonal
    holds the successive extrapants.
    """
    hs = [h for h, _ in pairs]
    for a, b in zip(hs, hs[1:]):
        if abs(b - a / 2.0) > 1e-12 * a:
            raise ValueError("ladder steps must halve")
    col = [est for _, est in pairs]
    diag = [col[0]]
    level = 0
    while len(col) > 1:
        level += 1
        factor = 4.0 ** level
        col = [(factor * b - a) / (factor - 1.0) for a, b in zip(col, col[1:])]
        diag.append(col[0])
    return col[0], diag


def _check_rule(frame, rule):
    if rule.sphere_dim != frame.dim - 1:
        raise ValueError("quadrature rule dimension does not match the frame")


def _heights(z):
    # a scalar height is a batch of one; returns the 1-d batch and
    # whether the caller passed a scalar
    zs = np.asarray(z, dtype=float)
    if zs.ndim > 1:
        raise ValueError("heights must be a scalar or a 1-d array")
    return zs.reshape(-1), zs.ndim == 0


def _shaped(values, scalar):
    return float(values[0]) if scalar else values


def _ring_points(tiled, lifted, psi):
    # the points at one latitude psi, sin(psi) pole + cos(psi) lifted,
    # with the pole tiled to the (N, n) shape of `lifted`, so that both
    # products and the sum run as whole-array loops, not as broadcasts
    # over the n <= 6 coordinates; the values are `_latitude_points`' own
    return np.sin(psi) * tiled + np.cos(psi) * lifted


def _node_points(pole, lifted_t, sin, cos):
    # the points at per-node latitudes, sin_i pole + cos_i lifted_i, built
    # coordinate-major from the (n, N) transpose of the lifted nodes so
    # that the inner loops run over the nodes, then copied once to C
    # order: bodies always receive C-contiguous points, since a
    # Fortran-ordered array changes BLAS's matrix-vector rounding
    return np.ascontiguousarray((sin * pole[:, None] + cos * lifted_t).T)


def slice_integral(f, frame, z, rule):
    """Integral of a field over the latitude sphere at height z.

    Computes cos^{n-2}(psi) * sum_i w_i f(embed(eta_i, psi)) with
    psi = arcsin(z); the cosine power is the measure ratio between the
    latitude sphere of radius cos(psi) and the unit equator carrying the
    rule.  The rule nodes are lifted once, without `embed`'s checks, the
    pole is tiled once to the nodes' (N, n) shape, and the heights are
    integrated one at a time; the field receives C-contiguous points
    bit-identical to `embed`'s.

    Parameters
    ----------
    f : ScalarField
    frame : EquatorFrame
    z : height in (-1, 1), or a 1-d array of heights
    rule : EquatorQuadrature on S^{n-2}

    Returns a float for a scalar z and an array shaped like z otherwise.
    """
    _check_rule(frame, rule)
    zs, scalar = _heights(z)
    if not np.all(np.abs(zs) < 1.0):
        raise ValueError("height z must lie in (-1, 1)")
    lifted = rule.nodes @ frame.basis
    tiled = np.tile(frame.pole, (lifted.shape[0], 1))
    values = np.empty(zs.shape)
    for j, z in enumerate(zs):
        psi = math.asin(z)
        vals = f.evaluate(_ring_points(tiled, lifted, psi))
        values[j] = math.cos(psi) ** (frame.dim - 2) * float(rule.weights @ vals)
    return _shaped(values, scalar)


def conical_section(body, frame, z, rule):
    """(n-1)-measure of the body along the cone of opening cosine z.

    The cone with apex 0 whose rays make angle arccos(z) with the pole
    meets the unit sphere in the latitude sphere at psi = arcsin(z), so
    this is the slice integral of the body's section density.  Takes a
    scalar height or a 1-d array of heights, like `slice_integral`.
    """
    return slice_integral(to_scalar_field(body), frame, z, rule)


def _scan_side(body, tiled, lifted, zs, psi_lo, psi_hi):
    """Bracket the cut boundary of heights on one side of the equator.

    Tabulates rho(eta, psi) sin(psi) on a uniform 64-point latitude grid,
    one row per grid latitude, from C-contiguous `_ring_points`.  The
    table does not depend on the height, so every height on the side
    reads its g = table - z from it; `_crossings` returns, per height and
    node, the grid index of the first sign change of g, and whether some
    height has a node with no sign change or with more than one (the
    multi-root probe).  Rising-column shortcut: in a column whose table
    never falls, the rows with g >= 0 form a suffix, so one count of
    them gives the node's crossing; only the other columns pay for the
    sign-change table, its count and its argmax.
    """
    grid = np.linspace(psi_lo, psi_hi, _SCAN_POINTS)
    table = np.empty((_SCAN_POINTS, lifted.shape[0]))
    for i, psi in enumerate(grid):
        table[i] = body.evaluate(_ring_points(tiled, lifted, psi)) * math.sin(psi)
    return (grid, table) + _crossings(table, zs)


def _crossings(table, zs):
    # firsts (uint8 holds the 63 scan intervals), missed and multiple of
    # `_scan_side`.  g = 0 counts as positive, and g >= 0 exactly when
    # table >= z.  In a rising column with k rows at or above z the node
    # has one sign change iff 0 < k < 64, at index 63 - k, and none
    # otherwise; its first index is then 0, as argmax reads a column
    # without one.  k <= 64 fits a uint8 sum, which is much faster than
    # an intp one.
    rising = np.all(table[1:] >= table[:-1], axis=0)
    other = np.flatnonzero(~rising)
    rest = table[:, other]
    firsts = np.empty((zs.size, table.shape[1]), dtype=np.uint8)
    missed = multiple = False
    for j, z in enumerate(zs):
        k = np.add.reduce((table >= z).view(np.uint8), axis=0, dtype=np.uint8)
        one = (k > 0) & (k < _SCAN_POINTS)
        firsts[j] = np.where(one, _SCAN_POINTS - 1 - k, 0)
        missed |= bool(np.any(rising & ~one))
        if other.size:
            above = rest >= z
            flips = above[:-1] != above[1:]
            counts = flips.sum(axis=0)
            firsts[j, other] = np.argmax(flips, axis=0)
            missed |= bool(np.any(counts == 0))
            multiple |= bool(np.any(counts > 1))
    return firsts, missed, multiple


def _illinois(g, a, b, ga, gb):
    # Vectorised Illinois (modified regula falsi, Dowell & Jarratt 1971)
    # on per-node brackets [a, b] with ga * gb <= 0: an end kept twice in
    # a row has its value halved.  Stops when every bracket is narrower
    # than _ROOT_WIDTH or has hit an exact zero, and returns the brackets
    # with their unscaled end values; raises at the iteration cap.
    fa, fb = ga, gb
    kept = np.zeros(a.shape)  # -1: a was kept last, +1: b was kept last
    done = (b - a <= _ROOT_WIDTH) | (ga == 0.0) | (gb == 0.0)
    for _ in range(_MAX_REFINE):
        if done.all():
            return a, b, ga, gb
        with np.errstate(divide="ignore", invalid="ignore"):
            c = b - fb * (b - a) / (fb - fa)
        # a false-position point outside the bracket (or undefined) is
        # replaced by the midpoint; one on or within half the target width
        # of an end moves that far inside, so that an end already sitting
        # on the root closes the bracket in one step, not a bisection run
        c = np.where((c >= a) & (c <= b), c, 0.5 * (a + b))
        c = np.clip(c, a + _ROOT_WIDTH / 2, b - _ROOT_WIDTH / 2)
        gc = g(c)
        zero = ~done & (gc == 0.0)
        left = ~done & ~zero & ((gc < 0.0) == (ga < 0.0))  # c replaces a
        right = ~done & ~zero & ~left                      # c replaces b
        fa = np.where(right & (kept == -1), 0.5 * fa, fa)
        fb = np.where(left & (kept == 1), 0.5 * fb, fb)
        kept = np.where(left, 1.0, np.where(right, -1.0, kept))
        to_a, to_b = left | zero, right | zero
        a, ga, fa = np.where(to_a, c, a), np.where(to_a, gc, ga), np.where(to_a, gc, fa)
        b, gb, fb = np.where(to_b, c, b), np.where(to_b, gc, gb), np.where(to_b, gc, fb)
        done |= zero | (b - a <= _ROOT_WIDTH)
    raise RuntimeError("hyperplane root refinement did not converge")


def _profile_radii(body, pole, lifted_t, z, a, b, ga, gb, cap):
    # one height's cut boundary: refine the per-node brackets, read psi*
    # off one secant step on the final bracket, and return the profile
    # radii rho cos(psi*) about the foot point; each step's sin(psi)
    # serves both its points and its g
    def g(psi):
        sin = np.sin(psi)
        return body.evaluate(_node_points(pole, lifted_t, sin, np.cos(psi))) * sin - z

    a, b, ga, gb = _illinois(g, a, b, ga, gb)
    denom = gb - ga
    safe = np.abs(denom) > 1e-300
    psi_star = np.where(safe, b - gb * (b - a) / np.where(safe, denom, 1.0),
                        0.5 * (a + b))
    psi_star = np.clip(psi_star, -cap, cap)
    cos = np.cos(psi_star)
    return body.evaluate(_node_points(pole, lifted_t, np.sin(psi_star), cos)) * cos


def _side_radii(body, pole, lifted, zs, cap):
    # profile radii for heights all on one side of the equator, one
    # height at a time; the scan range is sized by the largest |z|
    floor = max(body.radius_floor, 1e-12)
    psi_max = min(math.asin(min(1.0, float(np.abs(zs).max()) / floor)) + 0.1, cap)
    up = zs[0] > 0.0
    lo, hi = (0.0, psi_max) if up else (-psi_max, 0.0)
    tiled = np.tile(pole, (lifted.shape[0], 1))
    grid, table, firsts, missed, multiple = _scan_side(body, tiled, lifted, zs, lo, hi)
    if missed:
        # widen once to the full quarter before giving up
        lo, hi = (0.0, cap) if up else (-cap, 0.0)
        grid, table, firsts, missed, multiple = _scan_side(body, tiled, lifted, zs, lo, hi)
        if missed:
            raise ValueError("root bracketing failed: the cut misses some meridians")
    if multiple:
        raise ValueError("multiple boundary crossings: cut is not star-shaped "
                         "about its foot point")
    cols = np.arange(lifted.shape[0])
    lifted_t = np.ascontiguousarray(lifted.T)
    for z, first in zip(zs, firsts):
        yield _profile_radii(body, pole, lifted_t, z, grid[first], grid[first + 1],
                              table[first, cols] - z, table[first + 1, cols] - z, cap)


def hyperplane_section(body, frame, z, rule):
    """(n-1)-volume of the flat cut { x : <x, xi> = z } through the body.

    For each equator node the meridian latitude psi* solving
    rho(eta, psi) sin(psi) = z locates the cut boundary; the profile
    radius about the foot point z xi is r = rho cos(psi*), and the cut
    volume is sum_i w_i r_i^{n-1} / (n-1).  The foot point must lie in
    the body, -rho(-xi) < z < rho(xi), and the cut must be star-shaped
    about it.  |z| must also stay below the smallest equator radius:
    past it, heights between rho(xi) and the support h(xi) cut the body
    out of reach of any ray from the foot point.  The root is bracketed
    by a 64-point scan (which doubles as a multi-root probe), refined
    by Illinois steps inside that bracket to width 1e-12, and read off
    one secant step on the final bracket.  Only values of rho are used,
    so bodies with and without a gradient take the same path, and the
    body always receives C-contiguous (N, n) points: scan points from
    the tiled pole, per-node points built coordinate-major and copied
    once to C order.  The scan reads each node whose tabulated
    rho sin(psi) never falls along the grid (the rising-column shortcut
    of `_scan_side`) from one count of grid points at or above z; only
    the other nodes are searched for their first sign change.

    z may be a scalar or a 1-d array of heights.  The scan values
    rho sin(psi) do not depend on z, so all heights on one side of the
    equator share one scan, sized by their largest |z|; a single height
    scans exactly the grid it would scan alone.  Every height is
    checked, foot point first, before any scan.  Returns a float for a
    scalar z and an array shaped like z otherwise.
    """
    _check_rule(frame, rule)
    zs, scalar = _heights(z)
    n = frame.dim
    pole = frame.pole
    top, bottom = body.evaluate(np.stack([pole, -pole]))
    outside = ~((-bottom < zs) & (zs < top))
    if np.any(outside):
        raise ValueError(f"the foot point z xi of the cut at z = {zs[outside][0]:g} lies "
                         f"outside the body: rho(xi) = {top:g}, rho(-xi) = {bottom:g}, and "
                         "hyperplane cuts need -rho(-xi) < z < rho(xi)")
    lifted = rule.nodes @ frame.basis
    rho_eq = body.evaluate(lifted)
    if not np.all(np.abs(zs) < float(rho_eq.min())):
        raise ValueError("height |z| must stay below the equator radius of the body")
    values = np.empty(zs.shape)
    values[zs == 0.0] = float(rule.weights @ (rho_eq ** (n - 1))) / (n - 1)
    cap = math.pi / 2 - 1e-9
    for side in (zs > 0.0, zs < 0.0):
        index = np.flatnonzero(side)
        if index.size:
            for j, r in zip(index, _side_radii(body, pole, lifted, zs[index], cap)):
                values[j] = float(rule.weights @ (r ** (n - 1))) / (n - 1)
    return _shaped(values, scalar)


class TransformValue(float):
    """A(xi) as a float; `scale` is the roundoff scale s of its sum."""

    __slots__ = ("scale",)

    def __new__(cls, value, scale):
        self = super().__new__(cls, value)
        self.scale = scale
        return self

    def __getnewargs__(self):
        # lets pickle and copy rebuild the value with its scale
        return float(self), self.scale


def equator_transform(f, frame, rule):
    """A(xi): integral of the meridian derivative of f over the equator.

    The rule nodes are lifted into the frame once and handed to
    `equator_derivative`, the one meridian-derivative routine: the
    field's gradient along the pole, or without one central differences
    at latitudes +-FD_STEP and +-FD_STEP/2 with one Richardson level.
    Only the rule's dimension is validated against the frame; the nodes
    of an EquatorQuadrature are unit vectors by construction, so
    `embed`'s checks are skipped.  Returns a `TransformValue`: on an
    even field A is rounding alone, of the order of eps * scale (see
    `calibrate`), and the scale is read off arrays the derivative holds.
    """
    _check_rule(frame, rule)
    lifted = rule.nodes @ frame.basis
    d, held = _meridian_terms(f.evaluate, f.gradient, frame.pole, lifted)
    w = rule.weights
    if f.gradient is not None:
        # |w| |g| >= sum_i w_i |g_i|: antipodal nodes are negatives only
        # to within rounding, so the noise of the whole gradient reaches d
        scale = math.sqrt(float(w @ w) * float((held * held).sum()))
    else:
        # held is f at latitude +FD_STEP; its noise, as independent errors
        wf = w * held
        scale = math.sqrt(float(wf @ wf)) / FD_STEP
    return TransformValue(float(w @ d), scale)


def transform_sweep(f, frames, rule):
    """A(xi) for a sequence of poles, one `equator_transform` each.

    `frames` holds EquatorFrame objects or bare poles; a bare pole is
    completed with make_frame(pole), the frame every sweep in the
    package uses.  Returns the values as a 1-d array.
    """
    frames = [fr if isinstance(fr, EquatorFrame) else make_frame(fr) for fr in frames]
    return np.array([equator_transform(f, frame, rule) for frame in frames], dtype=float)


_KINDS = ("slice", "conical", "hyperplane")


def _curve_function(kind, obj):
    # the section function of a curve kind, called as fn(obj, frame, zs,
    # rule), and the field whose transform is the curve's slope at z = 0
    if kind == "slice":
        if not isinstance(obj, ScalarField):
            raise TypeError("slice curves take a ScalarField")
        return slice_integral, obj
    if not isinstance(obj, RadialField):
        raise TypeError(f"{kind} curves take a RadialField")
    if kind == "conical":
        return conical_section, to_scalar_field(obj)
    if kind == "hyperplane":
        return hyperplane_section, hyperplane_profile_field(obj)
    raise ValueError(f"unknown curve kind {kind!r}; expected one of {_KINDS}")


def section_curve(kind, obj, frame, zs, rule):
    """Sample a section curve on a grid of heights.

    kind is one of 'slice', 'conical', 'hyperplane'; obj is a
    ScalarField for 'slice' and a RadialField otherwise.  All heights
    go to the section function in one call.
    """
    fn, _ = _curve_function(kind, obj)
    zs = np.asarray(zs, dtype=float)
    values = fn(obj, frame, zs, rule)
    label = getattr(obj, "label", "")
    return SectionCurve(kind=kind, xi=frame.pole.copy(), zs=zs, values=values,
                        label=label)


def derivative_at_zero(kind, obj, frame, rule, transform_rule=None):
    """Slope of a section curve at z = 0, checked against the transform.

    The finite-difference side differentiates the sampled curve with a
    central-difference ladder of steps h0 / 2^k, k < _LADDER_LEVELS = 4,
    with h0 = 1e-2 (times radius_floor for hyperplane heights, which
    scale with the body), and Richardson extrapolation, all eight
    ladder heights going to the section function in one call;
    the transform side applies the equatorial transform to the curve's
    matching field (the section density for slice/conical curves, the
    flat-cut slope density for hyperplane curves).  `transform_rule`
    overrides the rule used on the transform side only.
    """
    fn, match = _curve_function(kind, obj)
    h0 = _LADDER_H0 * obj.radius_floor if kind == "hyperplane" else _LADDER_H0
    hs = [h0 / 2.0 ** k for k in range(_LADDER_LEVELS)]
    values = fn(obj, frame, np.array(hs + [-h for h in hs]), rule)
    steps = [(h, float((up - down) / (2.0 * h)))
             for h, up, down in zip(hs, values[:_LADDER_LEVELS], values[_LADDER_LEVELS:])]
    fd_value, diag = richardson_limit(steps)
    corrections = [abs(b - a) for a, b in zip(diag, diag[1:])]
    monotone = all(b <= a * 1.5 + 1e-14 for a, b in zip(corrections, corrections[1:]))
    t_value = equator_transform(match, frame, transform_rule or rule)
    return DerivativeAtZero(kind=kind, xi=frame.pole.copy(),
                            fd_value=float(fd_value),
                            transform_value=float(t_value),
                            fd_steps=tuple(steps),
                            agreement_residual=float(abs(fd_value - t_value)),
                            ladder_monotone=bool(monotone))
