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
from types import SimpleNamespace

import numpy as np

from .sphere_geom import EquatorFrame, _latitude_points, _rungs, make_frame, sphere_rule
from .star_body import (
    _BOUND_SLACK,
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
# points per body call in `_solve` and in `_scan`'s row groups
_GROUP_POINTS = 8192
# 128 KiB in doubles, where glibc's mmap threshold starts: each (points, n)
# array of a field call of `_pole_transforms` stays below it, since larger
# ones are mmapped, or trimmed off the heap after each call, and fault back
# in on the next.  A call takes P points, the largest power of two with P n
# below it (4096 at n = 2, 3 and 2048 at n = 4, 5, 6): floor(P / N) whole
# frames of an N-node rule, or one frame in ceil(N / P) node slices.  Each
# frame's terms fill a row of a buffer that one pairwise np.sum reads, so
# its value has the bits of a one-frame call
_CALL_DOUBLES = 16384
# the two centroid passes of a cut: the first on the rule of resolution 6
# (6, 18, 54, 162 nodes at n = 3..6), the coarsest whose boundary points
# identify every coefficient of the quadric (at n = 4, 5, 6 the fit's design
# matrix has rank 7/9, 11/14, 16/20 at resolution 4 and 8/9, 12/14, 17/20 at
# 5), the second on resolution 8 (32, 128, 512 nodes), whose fit gives the
# map and root predictions of the rungs; and the relative agreement of the
# r // 4 and r // 2 rungs that ends a cut
_FIRST_RESOLUTION = 6
_FIT_RESOLUTION = 8
_RUNG_AGREEMENT = 1e-13
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
    holds the successive extrapants.  An empty ladder is refused.
    """
    hs = [h for h, _ in pairs]
    if not hs:
        raise ValueError("the Richardson ladder is empty: it needs one (h, estimate) pair or more")
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


def _check_rule(frames, rule):
    if any(frame.dim != rule.sphere_dim + 1 for frame in frames):
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


def slice_integral(f, frame, z, rule):
    """Integral of a field over the latitude sphere at height z.

    Computes cos^{n-2}(psi) * sum_i w_i f(embed(eta_i, psi)) with
    psi = arcsin(z); the cosine power is the measure ratio between the
    latitude sphere of radius cos(psi) and the unit equator carrying the
    rule.  The rule nodes are lifted once, without `embed`'s checks, the
    pole is tiled once to the nodes' (N, n) shape, and the heights are
    integrated one at a time, each refilling one (N, n) point buffer; the
    field receives C-contiguous points bit-identical to `embed`'s, and
    each sum is a pairwise np.sum.

    Parameters
    ----------
    f : ScalarField
    frame : EquatorFrame
    z : height in (-1, 1), or a 1-d array of heights
    rule : EquatorQuadrature on S^{n-2}

    Returns a float for a scalar z and an array shaped like z otherwise.
    """
    _check_rule((frame,), rule)
    zs, scalar = _heights(z)
    if not np.all(np.abs(zs) < 1.0):
        raise ValueError("height z must lie in (-1, 1)")
    lifted = rule.nodes @ frame.basis
    tiled = np.tile(frame.pole, (lifted.shape[0], 1))
    values, terms, points = np.empty(zs.shape), np.empty(rule.size), np.empty_like(lifted)
    for j, z in enumerate(zs):
        psi = math.asin(z)
        _latitude_points(tiled, lifted, psi, out=points)
        np.multiply(f.evaluate(points), rule.weights, out=terms)
        values[j] = math.cos(psi) ** (frame.dim - 2) * float(np.sum(terms))
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


def _bounds_error(body):
    return ValueError("root bracketing failed: the cut misses some rays between the radii the "
                      "body's radius bounds allow, so its declared radius_floor = "
                      f"{body.radius_floor:g} and radius_bound = {body.radius_bound:g} do not "
                      "bound rho")


def _scan(body, lifted, e, u, size):
    # the profile radii of a body not declared convex at heights size > 0
    # along e = +-xi, about the points where the ray through u meets the
    # cuts (u is e: their foot points), one height at a time.  Node theta's
    # ray at height s lies on the arc cos(psi) theta + sin(psi) v toward u,
    # v the unit part of u normal to theta, at radius s (cot(psi) / rise -
    # <u, theta> / <u, e>), rise = <u, e> / |v|, where the boundary point
    # rises to rise sin(psi) rho whatever s is.  So one 64-row table of
    # latitudes probes every height's rays; it spans the latitudes where
    # radius_floor <= rho <= radius_bound allows a crossing, up to u, each
    # end moved out by 1e-3 so that a ball's equal bounds still bracket
    foot = u is e  # theta is normal to e, so <u, theta> = 0 and v = e
    c = 0.0 if foot else lifted @ u
    normal = np.sqrt(1.0 - c * c)
    lifted_t = np.ascontiguousarray(lifted.T)  # (n, N): the inner loops run over nodes
    arcs_t = e[:, None] if foot else (u[:, None] - c * lifted_t) / normal
    rise, end = u @ e / normal, np.arctan2(normal, c)
    lo = np.arcsin(size.min() / (body.radius_bound * rise)) * (1.0 - 1e-3)
    with np.errstate(divide="ignore"):
        top = np.arcsin(np.minimum(1.0, size.max() / (body.radius_floor * rise)))
    span = np.where(end < np.pi - top, np.minimum(end, top * (1.0 + 1e-3)), end) - lo
    psi = lo + span * np.linspace(0.0, 1.0, _SCAN_POINTS)[:, None]  # one row per latitude
    group = max(1, _GROUP_POINTS // len(lifted))
    tiled = np.tile(e, (len(lifted), 1)) if foot else None

    def heights(psi):  # rise sin(psi) rho along the arcs, for (G, N) or (G, 1) latitudes
        if psi.shape[1] == 1:  # a foot scan row's one latitude: whole-array products
            points = _latitude_points(tiled, lifted, psi)
        else:  # coordinate-major, so the loops run over nodes, then in the C order bodies get
            points = np.cos(psi)[:, None] * lifted_t
            points += np.sin(psi)[:, None] * arcs_t
            points = np.ascontiguousarray(points.transpose(0, 2, 1))
        return rise * np.sin(psi) * body.evaluate(points.reshape(-1, len(e))).reshape(len(psi), -1)

    # filled in place: a list of row groups, joined, would grow the heap by a
    # table's size and let glibc trim it again on every call
    table = np.empty((_SCAN_POINTS, len(lifted)))
    for k in range(0, _SCAN_POINTS, group):
        table[k:k + group] = heights(psi[k:k + group])
    firsts, missed, multiple = _crossings(table, size)
    if missed:
        raise _bounds_error(body)
    if multiple:
        about = "its foot point" if foot else "the point where the ray through its summit meets it"
        raise ValueError(f"multiple boundary crossings: cut is not star-shaped about {about}")
    psi, cols = np.broadcast_to(psi, table.shape), np.arange(len(lifted))
    for start in range(0, size.size, group):
        s, first = size[start:start + group, None], firsts[start:start + group]
        p = _illinois(lambda p: heights(p) - s, psi[first, cols], psi[first + 1, cols],
                      table[first, cols] - s, table[first + 1, cols] - s)
        yield from s * (1.0 / np.tan(p) / rise - c / (u @ e))


def _illinois(g, a, b, ga, gb):
    # Vectorised Illinois (modified regula falsi, Dowell & Jarratt 1971)
    # on per-node brackets [a, b] with ga * gb <= 0: an end kept twice in
    # a row has its value halved.  Stops when every bracket is narrower
    # than _ROOT_WIDTH or has hit an exact zero, and returns the roots, read
    # off the last brackets by a secant through the unscaled end values (the
    # midpoint where they are equal); raises at the iteration cap.
    fa, fb = ga, gb
    kept_a = kept_b = np.zeros(a.shape, dtype=bool)  # that end was kept last
    done = (b - a <= _ROOT_WIDTH) | (ga == 0.0) | (gb == 0.0)
    for _ in range(_MAX_REFINE):
        if done.all():
            return a + np.divide(-ga, gb - ga, out=np.full(a.shape, 0.5), where=gb != ga) * (b - a)
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


def _quadric_fit(theta, t, shift):
    # the least-squares quadric y^T A y + b^T y = 1 through the points t theta
    # of (G, N) rays, exact on an ellipsoidal cut: the map L = A^(-1/2) (the
    # identity where A is not positive definite), the fit's largest residual,
    # and A and b rewritten about the ray origin moved by `shift`, (G, m)
    m = theta.shape[2]
    i, j = np.triu_indices(m)
    y = theta * t[..., None]
    terms = np.concatenate([y[..., i] * y[..., j], y], axis=2)
    coef = np.linalg.solve(terms.transpose(0, 2, 1) @ terms, np.sum(terms, axis=1)[..., None])
    quad = np.zeros((len(t), m, m))
    quad[:, i, j] = quad[:, j, i] = coef[:, :i.size, 0] / np.where(i == j, 1.0, 2.0)
    lam, vec = np.linalg.eigh(quad)
    maps = (vec / np.sqrt(np.abs(lam))[:, None, :]) @ vec.transpose(0, 2, 1)
    maps[~(lam[:, 0] > 0.0)] = np.eye(m)
    lin, turn = coef[:, i.size:, 0], (quad @ shift[..., None])[..., 0]
    level = (1.0 - np.sum((turn + lin) * shift, axis=1))[:, None]
    residual = np.max(np.abs(terms @ coef - 1.0), axis=(1, 2))
    return maps, residual, quad / level[..., None], (lin + 2.0 * turn) / level


def _ray_bracket(along, rest, floor):
    # the radii t where |x| = sqrt((t + along)^2 - rest) reaches floor (0 if
    # past it) and 1 + 1e-3, on rays x = (c, p + t theta) with along = <p,
    # theta> and rest = along^2 - |p|^2 - c^2
    low = rest + floor * floor
    lo = np.where(low > 0.0, np.maximum(0.0, np.sqrt(np.abs(low)) - along), 0.0)
    return lo, np.sqrt(rest + (1.0 + 1e-3) ** 2) - along


def _solve(body, frame, cuts, index, rule):
    # (js, theta, w, t) per group of the cuts in index: the rule's nodes
    # under each cut's map, their weights, and the radii t (in radius_bound
    # units) where the rays x = h xi + (p + t theta) @ basis leave the body,
    # h the cut's signed height.  A group keeps one origin row h xi + p @
    # basis per cut, built column by column so that its bits do not depend
    # on the group, and every root step refills one buffer of points that
    # the groups share; |x| comes from the rays' scalars, |x|^2 = (t + <p,
    # theta>)^2 + |p|^2 - <p, theta>^2 + h^2.
    # The rays of a convex body cross its boundary once, bracketed where
    # radius_floor (1 - 1e-3) <= |x| <= radius_bound (1 + 1e-3) and narrowed
    # to the fitted quadric's root +- 8 times its residual where that holds
    # the root; where a prediction misses, its ray goes back to the bounds'
    # bracket and g, deterministic, runs on the whole group again.  Illinois
    # steps refine the root of |x| - rho(x / |x|) to width 1e-12
    bound, size, m = body.radius_bound, rule.size, rule.sphere_dim
    floor = body.radius_floor / bound * (1.0 - 1e-3)
    group = max(1, _GROUP_POINTS // size)
    buffer = np.empty((min(group, len(index)) * size, frame.dim))
    for start in range(0, len(index), group):
        js = index[start:start + group]
        v = rule.nodes @ cuts.maps[js]
        norm = np.linalg.norm(v, axis=2)
        theta = v / norm[..., None]
        w = rule.weights * (np.linalg.det(cuts.maps[js])[:, None] / norm ** m)
        p, heights = cuts.offsets[js], cuts.heights[js]
        origin = heights[:, None] * frame.pole
        for k in range(m):
            origin += p[:, k, None] * frame.basis[k]
        dirs = (theta.reshape(-1, m) @ frame.basis).reshape(len(js), size, -1)
        along = np.sum(theta * p[:, None, :], axis=2)
        rest = along * along - np.sum(p * p, axis=1)[:, None] - (heights ** 2)[:, None]
        points = buffer[:len(js) * size]

        def g(t):  # |x| - rho(x / |x|) on every ray of the group
            rays = np.multiply(t[..., None], dirs, out=points.reshape(dirs.shape))
            rays += origin[:, None]
            reach = np.sqrt((t + along) ** 2 - rest)
            rays /= reach[..., None]
            return reach - body.evaluate(points).reshape(reach.shape) / bound

        lo, hi = _ray_bracket(along, rest, floor)
        a, b = lo.copy(), hi.copy()
        if cuts.fit is not None:
            # t^2 theta^T A theta + t b^T theta = 1 on the fitted quadric
            residual, quad, lin = (q[js] for q in cuts.fit)
            qa = np.sum((theta @ quad) * theta, axis=2)
            qb = (theta @ lin[..., None])[..., 0]
            root = np.sqrt(qb * qb + 4.0 * qa)
            guess = np.where(qb > 0.0, 2.0 / (qb + root), (root - qb) / (2.0 * qa))
            width = 8.0 * residual[:, None] * guess + 1e-13
            known = np.isfinite(guess) & np.isfinite(width)
            a[known] = np.maximum(lo, guess - width)[known]
            b[known] = np.minimum(hi, guess + width)[known]
        ga, gb = g(a), g(b)
        wrong = (ga > 0.0) | (gb < 0.0)
        if np.any(wrong):
            a[wrong], b[wrong] = lo[wrong], hi[wrong]
            ga, gb = g(a), g(b)
            if np.any((ga > 0.0) | (gb < 0.0)):
                raise _bounds_error(body)
        yield js, theta, w, _illinois(g, a, b, ga, gb)


def hyperplane_section(body, frame, z, rule):
    """(n-1)-volume of the flat cut { x : <x, xi> = z } through the body.

    Its volume is sum_i w_i r_i^{n-1} / (n-1) along plane rays x = z xi
    + p + r theta, whose roots Illinois steps refine.  p starts at the
    foot point while |z| < rho(+-xi) on its side, else where the ray
    through the side's summit meets the cut.  On a body declared convex,
    for n >= 3, two passes move p to the cut's centroid and fit a quadric
    with quadratic part A: the first on the resolution-6 rule, the
    coarsest whose boundary points identify the quadric, the second on the
    resolution-8 rule, whose fit the later solves use.  The rays then take
    the directions L theta / |L theta|, L = A^(-1/2), with weights det L /
    |L theta|^{n-1}, so an ellipsoidal cut is a ball there.  The value is
    the r // 2 rung's of the caller's rule family (`sphere_geom._family`)
    when it agrees with the r // 4 rung's to 1e-13 of it, else the caller's
    rule's, the finest any cut uses (the only one where the family is the
    rule alone: at n = 2, or for a rule not built by `sphere_rule`).  A
    body not declared convex keeps p where it starts and the caller's rule,
    and its rays are probed for a second crossing by one 64-row scan per
    side and start point.  Only rho is used.

    rho(+-xi) is checked against radius_bound first.  Cuts at |z| >=
    radius_bound are 0.0, and on a convex body so are those at or above
    the summit found, its support; z = 0 is `conical_section`'s value, bit
    for bit.  Refused: non-finite heights, bodies `to_scalar_field`
    refuses, a cut above the summit of a body not declared convex, a ray
    crossing the boundary twice, bounds a ray contradicts, and a root that
    does not converge.  z is a scalar (returns a float) or a 1-d array.
    """
    _check_rule((frame,), rule)
    zs, scalar = _heights(z)
    n, pole, bound = frame.dim, frame.pole, body.radius_bound
    if not np.all(np.isfinite(zs)):
        raise ValueError("heights must be finite")
    top, bottom = body.evaluate(np.stack([pole, -pole]))
    if max(top, bottom) > bound * (1.0 + _BOUND_SLACK):
        raise ValueError(f"rho(xi) = {top:g} and rho(-xi) = {bottom:g} exceed the declared "
                         f"radius_bound = {bound:g}")
    values, inside = np.zeros(zs.shape), np.abs(zs) < bound
    if not np.any(inside):
        return _shaped(values, scalar)
    to_scalar_field(body)  # refuses a density outside the normal double range
    # below the normal range V(z) equals V(0) to double precision
    flat = np.abs(zs) < np.finfo(float).tiny
    if np.any(flat):
        values[flat] = conical_section(body, frame, 0.0, rule)
    starts, lifted = [], None if body.convex else rule.nodes @ frame.basis
    for sign, foot in ((1.0, top), (-1.0, bottom)):
        side = np.flatnonzero((sign * zs > 0.0) & ~flat & inside)
        e, size, u = sign * pole, sign * zs[side], None
        if np.any(size >= foot):
            u, height = _summit(body, e, frame.basis)
            above = size >= height
            if np.any(above) and not body.convex:
                raise ValueError(f"the cut at z = {zs[side][above][0]:g} is refused: rho(xi) = "
                                 f"{top:g}, rho(-xi) = {bottom:g}, and the compass search found "
                                 f"no boundary point above height {height:g} on its side, but a "
                                 "peak too narrow for the search may still reach the cut")
            side, size = side[~above], size[~above]
        if body.convex:
            starts += [(j, np.zeros(n - 1) if s < foot else s / bound * frame.basis @ u / (u @ e))
                       for j, s in zip(side, size)]
            continue
        # every ray probed, by one shared scan per start point
        low = size < foot
        for side, u, size in ((side[low], e, size[low]), (side[~low], u, size[~low])):
            for j, r in zip(side, _scan(body, lifted, e, u, size) if side.size else ()):
                values[j] = float(np.sum(rule.weights * r ** (n - 1))) / (n - 1)
    if not starts:
        return _shaped(values, scalar)
    index, offsets = map(np.array, zip(*starts))
    count = len(index)
    cuts = SimpleNamespace(heights=zs[index] / bound, offsets=offsets, fit=None,
                           maps=np.tile(np.eye(n - 1), (count, 1, 1)))
    if n > 2:
        # centroid passes, each under the map fitted in the pass before; list()
        # frees `_solve`'s ray arrays before any fit (2 MB of an n = 6 peak)
        for resolution in (_FIRST_RESOLUTION, _FIT_RESOLUTION):
            fits, fit = [], sphere_rule(n - 1, resolution)
            for group, theta, w, t in list(_solve(body, frame, cuts, np.arange(count), fit)):
                moment = w * t ** (n - 1)
                shift = ((moment * t)[:, None, :] @ theta)[:, 0]
                shift *= ((n - 1) / (n * np.sum(moment, axis=1)))[:, None]
                cuts.offsets[group] += shift
                fits.append(_quadric_fit(theta, t, shift))
            cuts.maps, *cuts.fit = map(np.concatenate, zip(*fits))
    todo, previous = np.arange(count), None
    for rung in _rungs(rule):
        current = np.empty(count)
        for group, _, w, t in _solve(body, frame, cuts, todo, rung):
            current[group] = np.sum(w * (bound * t) ** (n - 1), axis=1) / (n - 1)
        values[index[todo]] = current[todo]
        if previous is not None:
            change = np.abs(current[todo] - previous[todo])
            todo = todo[change > _RUNG_AGREEMENT * np.abs(current[todo])]
        previous = current
    return _shaped(values, scalar)


def _pole_transforms(f, frames, rule):
    # A(xi) of each frame and the roundoff scale s of its sum, as two float
    # arrays, in field calls whose arrays stay below _CALL_DOUBLES (its
    # comment gives the layout).  One stacked product nodes @ bases lifts
    # every call's frames, one or many, into their own rows of one
    # C-contiguous (points, n) array, each frame's rows the bits of its own
    # nodes @ basis, next to their poles repeated over them.  Each frame's
    # weighted terms and squared held values fill its rows of `terms` and
    # `squares`, and one pairwise np.sum along each row gives each quantity.
    # For a field whose sup bound lies outside [2^-400, 2^400] the squares
    # behind s would leave the double range, so they are taken of the held
    # terms over 2^shift, 2^shift at or above the bound, and s is multiplied
    # back; powers of two scale exactly, so s has the bits of a wider exponent
    _check_rule(frames, rule)
    shift = 0
    if f.sup_bound and not 2.0 ** -400 <= f.sup_bound <= 2.0 ** 400:
        shift = math.frexp(f.sup_bound)[1]
    size, w, n = rule.size, rule.weights, rule.sphere_dim + 1
    points = 1 << (((_CALL_DOUBLES - 1) // n).bit_length() - 1)
    group, step, norm2 = max(1, points // size), min(size, points), np.sum(w * w)
    wide = 1 if f.gradient is None else n  # squares per node
    most = min(group, len(frames))  # rows of a call
    terms, squares = np.empty((most, size)), np.empty((most, size * wide))
    values, scales = np.empty(len(frames)), np.empty(len(frames))
    poles, bases = np.array([fr.pole for fr in frames]), np.array([fr.basis for fr in frames])
    for start in range(0, len(frames), group):
        rows = min(group, len(frames) - start)
        for lo in range(0, size, step):
            nodes, cols = rule.nodes[lo:lo + step], slice(lo, lo + step)
            lifted = (nodes @ bases[start:start + rows]).reshape(-1, n)
            pole = np.repeat(poles[start:start + rows], len(nodes), axis=0)
            d, held = _meridian_terms(f.evaluate, f.gradient, pole, lifted)
            if shift:
                held = np.ldexp(held, -shift)
            np.multiply(d.reshape(rows, -1), w[cols], out=terms[:rows, cols])
            held = held.reshape(rows, -1)
            if f.gradient is None:
                # held is f at latitude +FD_STEP; its noise, as independent errors
                held = held * w[cols]
            np.multiply(held, held, out=squares[:rows, lo * wide:(lo + step) * wide])
        sums = np.sum(squares[:rows], axis=1)
        # |w| |g| >= sum_i w_i |g_i|: antipodal nodes are negatives only to
        # within rounding, so the noise of the whole gradient reaches d
        scales[start:start + rows] = (np.sqrt(sums) / FD_STEP if f.gradient is None
                                      else np.sqrt(norm2 * sums))
        values[start:start + rows] = np.sum(terms[:rows], axis=1)
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
    package uses.  The poles reach the field in evaluate or gradient
    calls whose arrays stay below 128 KiB (`_CALL_DOUBLES`, whose comment
    gives the poles or node slices per call), and each value is a
    pairwise np.sum over its own pole's row, so the values are the
    per-pole ones bit for bit, at any BLAS thread count.  Returns the
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


def derivative_at_zero(kind, obj, frame, rule):
    """Slope of a section curve at z = 0, checked against the transform.

    The finite-difference side differentiates the sampled curve with a
    central-difference ladder of steps h0 / 2^k, k < _LADDER_LEVELS = 4,
    with h0 = 1e-2 (times radius_floor for hyperplane heights, which
    scale with the body), and Richardson extrapolation, all eight
    ladder heights going to the section function in one call;
    the transform side applies the equatorial transform to the curve's
    matching field (the section density for slice/conical curves, the
    flat-cut slope density for hyperplane curves).  Both sides use `rule`.
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
    t_value = equator_transform(match, frame, rule)
    return DerivativeAtZero(fd_value=float(fd_value),
                            transform_value=float(t_value),
                            fd_steps=tuple(steps),
                            agreement_residual=float(abs(fd_value - t_value)),
                            ladder_monotone=bool(monotone))
