"""Section functions of star bodies and the equatorial derivative transform.

Three curves in the height variable z share machinery here.  With
psi = arcsin(z) and f = rho^{n-1}/(n-1):

* slice_integral: integral of a field over the latitude sphere
  { x in S^{n-1} : <x, xi> = z }, which is the same point set as the
  intersection of the sphere with the cone of opening cosine z.
* conical_section: (n-1)-measure of the body carved out along that
  cone, equal to the slice integral of f.
* hyperplane_section: (n-1)-volume of the flat cut { <x, xi> = z },
  computed from the polar profile of the cut around a point inside it.

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
# points per body or field call in `_side_radii`'s scan rows and refined
# heights (all 64 rows and a side's heights at n = 2, one row or height at
# n = 5, 6) and in the pole groups of `transform_sweep` (50 poles of the
# n = 2 default rule per call, 16 at n = 3, 4 at n = 4, one at n = 5, 6)
_GROUP_POINTS = 8192
# compass search of `_summit`: first step in its chart, final step, step cap
_SUMMIT_STEP = 0.5
_SUMMIT_WIDTH = 1e-9
_MAX_SUMMIT = 400
# slope ladder of derivative_at_zero: steps _LADDER_H0 / 2^k, k < _LADDER_LEVELS
_LADDER_H0 = 1e-2
_LADDER_LEVELS = 4


def _height_grid(zs):
    # a curve's heights, which `section_curve` checks before it solves any cut
    zs = np.asarray(zs, dtype=float)
    if zs.ndim != 1 or np.any(np.diff(zs) <= 0):
        raise ValueError("zs must be a strictly increasing 1-d array")
    return zs


@dataclass(frozen=True, eq=False)
class SectionCurve:
    """Sampled section curve z -> value for one body/field and pole."""

    kind: str
    zs: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        zs = _height_grid(self.zs)
        vals = np.asarray(self.values, dtype=float)
        if zs.shape != vals.shape:
            raise ValueError("zs and values must be matching 1-d arrays")
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
    # the points at one latitude psi, or at (G, 1, 1) latitudes, one per
    # row, sin(psi) pole + cos(psi) lifted, with the pole tiled to the
    # (N, n) shape of `lifted`, so that both products and the sum run as
    # whole-array loops, not as broadcasts over the n <= 6 coordinates;
    # the sum is taken in place, which saves a temporary as large as the
    # points; the values are `_latitude_points`' own
    points = np.sin(psi) * tiled
    points += np.cos(psi) * lifted
    return points


def _node_points(poles_t, lifted_t, sin, cos):
    # the points at per-node latitudes, sin_i pole_i + cos_i lifted_i, for
    # (N,) or (G, N) latitudes, built coordinate-major from the (n, N)
    # transpose of the lifted nodes and the (n, 1) or (n, N) poles, so that
    # the inner loops run over the nodes, then copied once to C order as
    # (N, n) or (G N, n): bodies always receive C-contiguous points, since
    # a Fortran-ordered array changes BLAS's matrix-vector rounding
    points = sin[..., None, :] * poles_t + cos[..., None, :] * lifted_t
    return np.ascontiguousarray(np.moveaxis(points, -2, -1)).reshape(-1, len(lifted_t))


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


def _crossings(table, zs):
    # the scan's multi-root probe: per height and node, the row of the
    # first sign change of g = table - z (uint8 holds the 63 scan
    # intervals), and whether some node has none (missed) or more than
    # one (multiple).  g = 0 counts as positive, and g >= 0 exactly when
    # table >= z.  In a rising column with k rows at or above z the node
    # has one sign change iff 0 < k < 64, at index 63 - k, and none
    # otherwise; its first index is then 0, as argmax reads a column
    # without one.  k <= 64 fits a uint8 sum, which is much faster than
    # an intp one; only the other columns pay for the sign-change table.
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
    kept_a = kept_b = np.zeros(a.shape, dtype=bool)  # that end was kept last
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
        zero = gc == 0.0
        left = (gc < 0.0) == (ga < 0.0)  # c replaces a
        left &= ~(zero | done)
        right = ~(left | zero | done)    # c replaces b
        zero &= ~done
        fa = np.where(right & kept_a, 0.5 * fa, fa)
        fb = np.where(left & kept_b, 0.5 * fb, fb)
        kept_a, kept_b = right | (kept_a & ~left), left | (kept_b & ~right)
        to_a, to_b = left | zero, right | zero
        a, ga, fa = np.where(to_a, c, a), np.where(to_a, gc, ga), np.where(to_a, gc, fa)
        b, gb, fb = np.where(to_b, c, b), np.where(to_b, gc, gb), np.where(to_b, gc, fb)
        done |= zero | (b - a <= _ROOT_WIDTH)
    raise RuntimeError("hyperplane root refinement did not converge")


def _arc_heights(body, poles, lifted, rise, psi):
    # rise sin(psi) rho(u) at the points u = sin(psi) pole + cos(psi)
    # lifted: the height of the boundary point rho(u) u along the side's
    # pole when <u, pole> = rise sin(psi); each sin(psi) serves both.
    # (G, 1) latitudes, one per row for all the nodes, take the tiled
    # (N, n) pole and nodes of `_ring_points` and give (G, N) heights;
    # per-node (N,) or (G, N) latitudes take the (n, 1) or (n, N) poles
    # and (n, N) nodes of `_node_points`
    sin = np.sin(psi)
    if psi.shape[-1] == 1:
        points = _ring_points(poles, lifted, psi[..., None]).reshape(-1, lifted.shape[1])
    else:
        points = _node_points(poles, lifted, sin, np.cos(psi))
    return body.evaluate(points).reshape(psi.shape[:-1] + (-1,)) * sin * rise


def _profile_radii(body, poles_t, lifted_t, rise, z, a, b, ga, gb):
    # one height's cut boundary: refine the per-node brackets, then read
    # rho cos(psi) = (g + z) / (rise tan(psi)) off the final bracket's
    # ends by one secant step
    def g(psi):
        return _arc_heights(body, poles_t, lifted_t, rise, psi) - z

    a, b, ga, gb = _illinois(g, a, b, ga, gb)
    # ga and gb differ in sign, so t lies in [0, 1]; both are 0 only at an exact root
    t = np.divide(-ga, gb - ga, out=np.full(a.shape, 0.5), where=gb != ga)
    ra, rb = (ga + z) / (rise * np.tan(a)), (gb + z) / (rise * np.tan(b))
    return ra + t * (rb - ra)


def _summit(body, pole, basis):
    # the direction u whose boundary point rho(u) u rises highest along
    # `pole`, with that height rho(u) <u, pole>.  A compass search from
    # the pole in the chart x = pole + y @ basis, u = x / |x|, where the
    # height is rho(u) / |x|: it moves to the best of the 2(n-1)
    # neighbours at the current step while one rises, and halves the
    # step otherwise.  The segment from 0 to the boundary point lies in
    # the body, so every height below the one found has a point inside
    # its cut on that segment.
    steps = np.concatenate([basis, -basis])
    x, height, step = pole, float(body.evaluate(pole[None])[0]), _SUMMIT_STEP
    for _ in range(_MAX_SUMMIT):
        if step < _SUMMIT_WIDTH:
            break
        near = x + step * steps
        norms = np.linalg.norm(near, axis=1)
        heights = body.evaluate(near / norms[:, None]) / norms
        k = int(np.argmax(heights))
        if heights[k] > height:
            x, height = near[k], float(heights[k])
        else:
            step *= 0.5
    return x / np.linalg.norm(x), height


def _side_radii(body, e, lifted, size, u):
    # profile radii of the cuts at heights size > 0 along the side's pole
    # e = +-xi, yielded one height at a time, about the point size u /
    # <u, e> where the ray through u meets each cut (the foot point when
    # u = e).  Node theta's ray leaves along the great-circle arc
    # cos(psi) theta + sin(psi) v from theta to u, v the unit part of u
    # normal to theta; there <x, e> = rise sin(psi), rise = <u, e> / |v|,
    # and the radius is rho cos(psi) less the offset size <u, theta> / <u, e>
    lifted_t = np.ascontiguousarray(lifted.T)
    cols = np.arange(lifted.shape[0])
    if u is e:
        # theta is normal to xi by construction, so <u, theta> = 0, v = e
        # and every scan row is one latitude shared by all the nodes, which
        # the scan reads with e tiled to the nodes' shape; lifted @ e would
        # return rounding noise and make each row per-node
        c, up, normal, poles_t = 0.0, 1.0, 1.0, e[:, None]
        arcs = np.tile(e, (cols.size, 1)), lifted
    else:
        c, up = lifted @ u, u @ e
        normal = np.sqrt(1.0 - c * c)
        poles_t = (u[:, None] - c * lifted_t) / normal
        arcs = poles_t, lifted_t
    rise, end = up / normal, np.arctan2(normal, c)
    # the boundary point rises to rise sin(psi) rho, and above every
    # height at u, the arc's end.  radius_floor <= rho <= radius_bound
    # puts every crossing in [asin(size / (radius_bound rise)),
    # asin(size / (radius_floor rise))], or in its mirror about pi/2 on an
    # arc ending past it.  Each node's scan spans those intervals for all
    # the heights, up to u at most, each end moved out by a relative 1e-3
    # so that a ball's equal bounds still bracket; a node it misses breaks
    # the bounds
    lo = np.arcsin(size.min() / (body.radius_bound * rise)) * (1.0 - 1e-3)
    with np.errstate(divide="ignore"):
        top = np.arcsin(np.minimum(1.0, size.max() / (body.radius_floor * rise)))
    span = np.where(end < np.pi - top, np.minimum(end, top * (1.0 + 1e-3)), end) - lo
    steps = np.linspace(0.0, 1.0, _SCAN_POINTS)

    def latitudes(rows):  # scan rows, computed where they are read
        return lo + span * steps[rows]

    # scan rows and heights go to the body in groups of up to
    # _GROUP_POINTS points, so that small rules do not pay numpy's
    # per-call overhead once per row or height
    group = max(1, _GROUP_POINTS // cols.size)
    table = np.empty((_SCAN_POINTS, cols.size))
    for start in range(0, _SCAN_POINTS, group):
        rows = np.arange(start, min(start + group, _SCAN_POINTS))
        table[rows] = _arc_heights(body, *arcs, rise, latitudes(rows[:, None]))
    firsts, missed, multiple = _crossings(table, size)
    if missed:
        raise ValueError("root bracketing failed: the cut misses some meridians between "
                         "the latitudes the body's radius bounds allow, so its declared "
                         f"radius_floor = {body.radius_floor:g} and radius_bound = "
                         f"{body.radius_bound:g} do not bound rho")
    if multiple:
        about = ("its foot point" if u is e else
                 "the point where the ray through its summit meets it")
        raise ValueError(f"multiple boundary crossings: cut is not star-shaped about {about}")
    shift = c / up
    for start in range(0, size.size, group):
        z, first = size[start:start + group, None], firsts[start:start + group]
        r = _profile_radii(body, poles_t, lifted_t, rise, z, latitudes(first),
                           latitudes(first + 1), table[first, cols] - z,
                           table[first + 1, cols] - z)
        yield from r - z * shift


def hyperplane_section(body, frame, z, rule):
    """(n-1)-volume of the flat cut { x : <x, xi> = z } through the body.

    The cut is solved about a point inside it, along rays in the
    directions of the lifted equator nodes theta, and its volume is
    sum_i w_i r_i^{n-1} / (n-1) over the profile radii r_i.  Each side of
    the equator, mirrored onto its pole e = +-xi, is solved about the
    point where the ray through a direction u meets each cut
    (`_side_radii`): u = e, the foot point, while every foot point on the
    side lies inside the body, and otherwise the side's summit, the
    direction found by `_summit` whose boundary point rises highest along
    e.  Node theta's ray leaves along the great-circle arc from theta to
    u (the meridian of e when u = e); the latitude on it where the
    boundary point rises to |z| is bracketed by a 64-point scan of the
    latitudes where the body's radius bounds allow a crossing, which
    doubles as a multi-root probe, refined by Illinois steps to width
    1e-12, and read off the final bracket's ends by one secant step.
    Only values of rho are used, so bodies with and without a gradient
    take the same path, and the body always receives C-contiguous
    (N, n) points.  A cut at |z| >= radius_bound is empty, since the
    body lies in that ball: it is 0.0 and takes no part in the summit
    search or the scan.  The cut at z = 0 is `conical_section`'s there,
    bit for bit.  Non-finite heights raise, and so does a body that
    `to_scalar_field` refuses.  Three cuts are
    refused: one above the summit found (the compass search is local, so
    only radius_bound certifies an empty cut; every height is checked
    before any scan), one that crosses a ray more than once (it is not
    star-shaped about the point it is solved about), and one whose root
    refinement does not converge.

    z may be a scalar or a 1-d array of heights.  The scan values do not
    depend on z, so all heights on one side of the equator share one
    scan.  Returns a float for a scalar z and an array shaped like z
    otherwise.
    """
    _check_rule(frame, rule)
    zs, scalar = _heights(z)
    n = frame.dim
    pole = frame.pole
    if not np.all(np.isfinite(zs)):
        raise ValueError("heights must be finite")
    inside = np.abs(zs) < body.radius_bound
    values = np.zeros(zs.shape)
    if not np.any(inside):
        return _shaped(values, scalar)
    to_scalar_field(body)  # refuses a density outside the normal double range
    top, bottom = body.evaluate(np.stack([pole, -pole]))
    lifted = rule.nodes @ frame.basis
    # below the normal range V(z) equals V(0) to double precision, while
    # the scan's latitudes would lose their digits
    flat = np.abs(zs) < np.finfo(float).tiny
    if np.any(flat):
        values[flat] = conical_section(body, frame, 0.0, rule)
    sides = []
    for sign, foot in ((1.0, top), (-1.0, bottom)):
        index = np.flatnonzero((sign * zs > 0.0) & ~flat & inside)
        e = u = sign * pole
        if index.size and np.max(sign * zs[index]) >= foot:
            u, height = _summit(body, e, frame.basis)
            above = sign * zs[index] >= height
            if np.any(above):
                raise ValueError(f"the cut at z = {zs[index][above][0]:g} misses the body: "
                                 f"rho(xi) = {top:g}, rho(-xi) = {bottom:g}, and no boundary "
                                 f"point was found above height {height:g} on its side")
        sides.append((index, e, u))
    for index, e, u in sides:
        if index.size:
            for j, r in zip(index, _side_radii(body, e, lifted, np.abs(zs[index]), u)):
                values[j] = float(rule.weights @ (r ** (n - 1))) / (n - 1)
    return _shaped(values, scalar)


def _pole_transforms(f, frames, rule):
    # A(xi) of each frame and the roundoff scale s of its sum, as two float
    # arrays.  The frames reach the field in groups of G = _GROUP_POINTS // N,
    # at least one: each frame's own product nodes @ basis makes its own rows
    # of one C-contiguous (G N, n) array, next to its pole repeated over
    # them, so one evaluate or gradient call serves the group; each value
    # and scale is read off the frame's own contiguous rows, the reductions
    # of a group of one, bit for bit.  A group of one keeps the (n,) pole.
    # For a field whose sup bound lies outside [2^-400, 2^400] the squares
    # behind s would leave the double range, so they are taken of the held
    # terms over 2^shift, 2^shift at or above the bound, and s is multiplied
    # back; powers of two scale exactly, so s has the bits of a wider exponent
    shift = 0
    if f.sup_bound and not 2.0 ** -400 <= f.sup_bound <= 2.0 ** 400:
        shift = math.frexp(f.sup_bound)[1]
    size, w = rule.size, rule.weights
    group = max(1, _GROUP_POINTS // size)
    values, scales = np.empty(len(frames)), np.empty(len(frames))
    for start in range(0, len(frames), group):
        chunk = frames[start:start + group]
        for frame in chunk:
            _check_rule(frame, rule)
        if len(chunk) == 1:
            pole, lifted = chunk[0].pole, rule.nodes @ chunk[0].basis
        else:
            lifted = np.concatenate([rule.nodes @ frame.basis for frame in chunk])
            pole = np.repeat([frame.pole for frame in chunk], size, axis=0)
        d, held = _meridian_terms(f.evaluate, f.gradient, pole, lifted)
        if shift:
            held = np.ldexp(held, -shift)
        for k in range(len(chunk)):
            rows = slice(k * size, (k + 1) * size)
            if f.gradient is not None:
                # |w| |g| >= sum_i w_i |g_i|: antipodal nodes are negatives only
                # to within rounding, so the noise of the whole gradient reaches d
                g = held[rows]
                scales[start + k] = math.sqrt(float(w @ w) * float((g * g).sum()))
            else:
                # held is f at latitude +FD_STEP; its noise, as independent errors
                wf = w * held[rows]
                scales[start + k] = math.sqrt(float(wf @ wf)) / FD_STEP
            values[start + k] = float(w @ d[rows])
    return values, np.ldexp(scales, shift)


def equator_transform(f, frame, rule):
    """A(xi): integral of the meridian derivative of f over the equator.

    The rule nodes are lifted into the frame once and handed to
    `equator_derivative`, the one meridian-derivative routine: the
    field's gradient along the pole, or without one central differences
    at latitudes +-FD_STEP and +-FD_STEP/2 with one Richardson level.
    Only the rule's dimension is validated against the frame; the nodes
    of an EquatorQuadrature are unit vectors by construction, so
    `embed`'s checks are skipped.  Returns a float: the value of
    `transform_sweep`'s kernel on a group of one pole, which also returns
    the roundoff scale s of the sum that `sweep`'s floor reads.
    """
    return float(_pole_transforms(f, (frame,), rule)[0][0])


def transform_sweep(f, frames, rule):
    """A(xi) for a sequence of poles, equal to `equator_transform` on each.

    `frames` holds EquatorFrame objects or bare poles; a bare pole is
    completed with make_frame(pole), the frame every sweep in the
    package uses.  The poles reach the field in groups of up to
    _GROUP_POINTS = 8192 lifted nodes per evaluate or gradient call
    (50 poles of the n = 2 default rule in one call, one pole per call
    for an 8192-node rule), and each value is read off its own pole's
    rows, so the values are the per-pole ones bit for bit.  Returns the
    values as a 1-d float array.
    """
    frames = [fr if isinstance(fr, EquatorFrame) else make_frame(fr) for fr in frames]
    return _pole_transforms(f, frames, rule)[0]


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
    ScalarField for 'slice' and a RadialField otherwise.  zs must be a
    strictly increasing 1-d grid; it is checked before any cut is
    solved.  All heights go to the section function in one call.
    """
    fn, _ = _curve_function(kind, obj)
    zs = _height_grid(zs)
    return SectionCurve(kind=kind, zs=zs, values=fn(obj, frame, zs, rule))


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
    return DerivativeAtZero(fd_value=float(fd_value),
                            transform_value=float(t_value),
                            fd_steps=tuple(steps),
                            agreement_residual=float(abs(fd_value - t_value)),
                            ladder_monotone=bool(monotone))
