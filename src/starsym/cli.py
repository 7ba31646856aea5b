"""Command line interface.

Subcommands
-----------
analyze    sweep a body for central asymmetry, write report.json + values.csv
sections   sample section curves, write curves.csv and/or sections.svg
verify     run the identity checks, write verify.json, exit 1 on failure
harmonics  fit one multiplier per degree (n = 2..6), write multipliers.csv

Each subcommand reads the parsed argparse namespace directly, so every
option and its default is declared once, in `_build_parser`.  Exit
codes: 0 success, 1 verification failure, 2 usage or input errors.
Each subcommand returns its exit code and its artifacts as text; `main`
alone creates `--out` and writes them, so a run that exits 2 writes
nothing.  All outputs are byte-deterministic for a fixed command line:
JSON floats are written in Python's shortest round-trip form, CSV floats
with 17 significant digits, and every artifact embeds the parameters
that produced it.
"""

from __future__ import annotations

import argparse
import json
import math
import numbers
import os
import sys

import numpy as np

from .sphere_geom import DIM_MAX, DIM_MIN, equator_rule, make_frame, unit_vector
from .star_body import (
    body_ball,
    body_ellipsoid,
    body_harmonic_perturbed_ball,
    body_shifted_ball,
)
from .slice_transforms import derivative_at_zero, section_curve
from .symmetry_detector import detect
from .harmonics import LMAX, funk_hecke_multiplier, multiplier_table
from .verify import MC_SAMPLES, NUM_XI, REFERENCE_RESOLUTION, SEED, run_checks


# ---------------------------------------------------------------------------
# deterministic serialization


def _fmt(x):
    """17-significant-digit decimal form; round-trips any finite double."""
    x = float(x)
    if not math.isfinite(x):
        raise ValueError("cannot serialize a non-finite number")
    return format(x, ".17g")


def _param_line(params):
    # values are strings, ints or a list of strings
    parts = (f"{k}={','.join(v) if isinstance(v, list) else v}" for k, v in params.items())
    return "# parameters: " + " ".join(parts) + "\n"


# ---------------------------------------------------------------------------
# SVG rendering (hand-emitted, deterministic)

_COLORS = ("#1f6fb4", "#c23b22", "#2a9d4e", "#8e5bb8")


def _px(x):
    return format(float(x), ".2f")


def svg_curves(curves, title):
    """Polyline chart for (label, zs, values) triples; returns SVG text."""
    width, height = 640, 420
    left, right, top, bottom = 64, 160, 36, 48
    x0, x1 = left, width - right
    y0, y1 = height - bottom, top
    zs_all = np.concatenate([np.asarray(c[1], dtype=float) for c in curves])
    vs_all = np.concatenate([np.asarray(c[2], dtype=float) for c in curves])
    zmin, zmax = float(zs_all.min()), float(zs_all.max())
    vmin, vmax = min(0.0, float(vs_all.min())), float(vs_all.max())
    if zmax - zmin <= 0 or vmax - vmin <= 0:
        raise ValueError("curve ranges are degenerate; nothing to draw")

    def sx(z):
        return x0 + (z - zmin) / (zmax - zmin) * (x1 - x0)

    def sy(v):
        return y0 + (v - vmin) / (vmax - vmin) * (y1 - y0)

    out = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
           f'height="{height}" viewBox="0 0 {width} {height}">',
           f'<rect width="{width}" height="{height}" fill="white"/>',
           f'<text x="{x0}" y="20" font-family="sans-serif" font-size="14">'
           f'{title}</text>']
    axis = 'stroke="#333" stroke-width="1"'
    out.append(f'<line x1="{x0}" y1="{y0}" x2="{x1}" y2="{y0}" {axis}/>')
    out.append(f'<line x1="{x0}" y1="{y0}" x2="{x0}" y2="{y1}" {axis}/>')
    for i in range(5):
        t = i / 4.0
        z = zmin + t * (zmax - zmin)
        v = vmin + t * (vmax - vmin)
        xp, yp = sx(z), sy(v)
        out.append(f'<line x1="{_px(xp)}" y1="{y0}" x2="{_px(xp)}" '
                   f'y2="{y0 + 5}" {axis}/>')
        out.append(f'<text x="{_px(xp)}" y="{y0 + 18}" font-family="sans-serif" '
                   f'font-size="11" text-anchor="middle">{format(z, ".4g")}</text>')
        out.append(f'<line x1="{x0 - 5}" y1="{_px(yp)}" x2="{x0}" '
                   f'y2="{_px(yp)}" {axis}/>')
        out.append(f'<text x="{x0 - 8}" y="{_px(yp + 4)}" font-family="sans-serif" '
                   f'font-size="11" text-anchor="end">{format(v, ".4g")}</text>')
    out.append(f'<text x="{(x0 + x1) // 2}" y="{height - 10}" '
               f'font-family="sans-serif" font-size="12" text-anchor="middle">'
               f'height z</text>')
    out.append(f'<text x="16" y="{(y0 + y1) // 2}" font-family="sans-serif" '
               f'font-size="12" transform="rotate(-90 16 {(y0 + y1) // 2})" '
               f'text-anchor="middle">section volume</text>')
    for i, (label, zs, vals) in enumerate(curves):
        color = _COLORS[i % len(_COLORS)]
        pts = " ".join(f"{_px(sx(z))},{_px(sy(v))}" for z, v in zip(zs, vals))
        out.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                   f'stroke-width="1.5"/>')
        ly = top + 16 * i
        out.append(f'<line x1="{x1 + 10}" y1="{ly}" x2="{x1 + 30}" y2="{ly}" '
                   f'stroke="{color}" stroke-width="1.5"/>')
        out.append(f'<text x="{x1 + 36}" y="{ly + 4}" font-family="sans-serif" '
                   f'font-size="11">{label}</text>')
    out.append("</svg>")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# body specs and argument plumbing

_BODY_PARAMS = {
    "ball": ("radius",),
    "shifted_ball": ("radius", "center"),
    "ellipsoid": ("semiaxes",),
    "harmonic_ball": ("epsilon", "degree", "order"),
}


def _spec_int(value, field):
    # a JSON integer; 3.7, "3" and true are refused rather than truncated
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"body spec field {field!r} must be an integer")
    return int(value)


def build_body(kind, dim, params):
    """Construct a star body from a parsed spec; raises ValueError on misuse."""
    if kind not in _BODY_PARAMS:
        raise ValueError(f"unknown body kind {kind!r}; expected one of "
                         f"{', '.join(sorted(_BODY_PARAMS))}")
    if not isinstance(params, dict):
        raise ValueError("body spec field 'params' must be an object")
    for name in _BODY_PARAMS[kind]:
        if name not in params:
            raise ValueError(f"body spec missing field 'params.{name}' for kind {kind!r}")
    extra = sorted(set(params) - set(_BODY_PARAMS[kind]))
    if extra:
        raise ValueError(f"unexpected body parameter(s): {', '.join(extra)}")
    dim = _spec_int(dim, "dim")
    if kind == "ball":
        return body_ball(dim, float(params["radius"]))
    if kind == "shifted_ball":
        center = [float(c) for c in params["center"]]
        return body_shifted_ball(dim, float(params["radius"]), center)
    if kind == "ellipsoid":
        return body_ellipsoid(dim, tuple(float(s) for s in params["semiaxes"]))
    if dim != 3:
        raise ValueError("harmonic_ball bodies are only available in dimension 3")
    return body_harmonic_perturbed_ball(float(params["epsilon"]),
                                        _spec_int(params["degree"], "params.degree"),
                                        _spec_int(params["order"], "params.order"))


def load_body_spec(path):
    """Read a body spec JSON file: {"kind", "dim", "params"}."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"body spec {path}: invalid JSON ({exc})") from exc
    if not isinstance(data, dict):
        raise ValueError("body spec must be a JSON object")
    for key in ("kind", "dim", "params"):
        if key not in data:
            raise ValueError(f"body spec missing field {key!r}")
    unknown = sorted(set(data) - {"kind", "dim", "params"})
    if unknown:
        raise ValueError(f"unexpected body spec field(s): {', '.join(unknown)}")
    body = build_body(data["kind"], data["dim"], data["params"])
    return body, data


def parse_z_values(text):
    """Height grid: 'start:stop:step' (inclusive) or a comma list.

    Heights must be finite; each section kind checks its own range.  A
    range holds at most 10000 points, so a tiny step or an overflowing
    point count is refused before any height is allocated.
    """
    text = str(text).strip()
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError("z range must look like start:stop:step")
        start, stop, step = (float(p) for p in parts)
        if not all(math.isfinite(v) for v in (start, stop, step)):
            raise ValueError("heights must be finite")
        if step <= 0 or stop <= start:
            raise ValueError("z range needs stop > start and step > 0")
        steps = (stop - start) / step + 1e-9
        if not steps < 10000.0:
            raise ValueError(f"z range has {steps + 1.0:.6g} points; at most 10000 are allowed")
        count = int(math.floor(steps)) + 1
        zs = start + step * np.arange(count)
        # a grid point within roundoff of zero is +0.0, so its rows read
        # z = 0 and the sections take their exact z = 0 path
        zs[np.abs(zs) <= 1e-9 * step] = 0.0
    else:
        zs = np.array([float(p) for p in text.split(",") if p.strip() != ""])
        if zs.size == 0:
            raise ValueError("empty z list")
    if not np.all(np.isfinite(zs)):
        raise ValueError("heights must be finite")
    # np.unique's own sort and first-of-equal mask, without the lazy
    # import of numpy.ma that np.unique costs a cold process
    zs = np.sort(zs)
    return zs[np.concatenate([[True], zs[1:] != zs[:-1]])]


def _parse_csv_list(text, allowed, what):
    items = tuple(p.strip() for p in str(text).split(",") if p.strip())
    if not items:
        raise ValueError(f"empty {what} list")
    bad = [x for x in items if x not in allowed]
    if bad:
        raise ValueError(f"unknown {what} {', '.join(bad)!s}; "
                         f"expected subset of {{{', '.join(sorted(allowed))}}}")
    repeated = [x for x in dict.fromkeys(items) if items.count(x) > 1]
    if repeated:
        raise ValueError(f"repeated {what} {', '.join(repeated)}")
    return items


# ---------------------------------------------------------------------------
# subcommands


def cmd_analyze(args):
    body, spec = load_body_spec(args.body)
    report = detect(body, num_dirs=args.dirs, seed=args.seed,
                    rule_resolution=args.resolution)
    doc = {
        "parameters": {"command": args.command, "seed": args.seed,
                       "resolution": report.resolution, "dim": body.dim, "body": spec,
                       "dirs": args.dirs},
        "verdict": report.verdict,
        "note": report.note,
        "max_abs_transform": report.max_abs,
        "l2_mean_transform": report.l2_mean,
        "threshold": report.threshold,
        "num_dirs": report.num_dirs,
    }
    head = ",".join([f"xi_{i}" for i in range(body.dim)] + ["transform"])
    lines = [_param_line({"command": args.command, "seed": args.seed,
                          "resolution": report.resolution}), head + "\n"]
    for xi, val in zip(report.xis, report.values):
        lines.append(",".join([_fmt(c) for c in xi] + [_fmt(val)]) + "\n")
    texts = {"report.json": json.dumps(doc, indent=2, allow_nan=False) + "\n",
             "values.csv": "".join(lines)}
    print(f"verdict: {report.verdict}")
    print(f"note: {report.note}")
    print(f"max |A| = {report.max_abs:.6g}, threshold = {report.threshold:.6g} "
          f"over {report.num_dirs} poles")
    return 0, texts


def cmd_sections(args):
    kinds = _parse_csv_list(args.kind, ("conical", "hyperplane"), "section kind")
    formats = _parse_csv_list(args.formats, ("csv", "svg"), "format")
    xi = None
    if args.xi is not None:
        xi = [float(p) for p in str(args.xi).split(",") if p.strip()]
        if not xi:
            raise ValueError("empty --xi")
    body, _ = load_body_spec(args.body)
    n = body.dim
    if xi is None:
        pole = np.eye(n)[-1]
    elif len(xi) != n:
        raise ValueError(f"--xi needs {n} components for this body")
    else:
        pole = unit_vector(xi)
    frame = make_frame(pole)
    rule = equator_rule(n, args.resolution)
    zs = parse_z_values(args.z)
    curves, slopes = [], {}
    for kind in kinds:
        curves.append(section_curve(kind, body, frame, zs, rule))
        slopes[kind] = derivative_at_zero(kind, body, frame, rule)
    texts = {}
    if "csv" in formats:
        lines = [_param_line({"command": args.command, "resolution": rule.resolution,
                              "xi": [format(float(c), ".6g") for c in pole]}),
                 "kind,z,value,slope_at_zero\n"]
        for curve in curves:
            s = slopes[curve.kind].transform_value
            for z, v in zip(curve.zs, curve.values):
                lines.append(f"{curve.kind},{_fmt(z)},{_fmt(v)},{_fmt(s)}\n")
        texts["curves.csv"] = "".join(lines)
    if "svg" in formats:
        texts["sections.svg"] = svg_curves([(c.kind, c.zs, c.values) for c in curves],
                                           f"section curves, {body.label}")
    for kind in kinds:
        d = slopes[kind]
        print(f"{kind}: slope at z=0 = {d.transform_value:.12g} "
              f"(finite differences {d.fd_value:.12g}, "
              f"residual {d.agreement_residual:.3g})")
    return 0, texts


def cmd_verify(args):
    only = None if args.only is None else tuple(
        p.strip() for p in str(args.only).split(",") if p.strip())
    results = run_checks(args.resolution, only=only)
    for r in results:
        flag = "PASS" if r.passed else "FAIL"
        print(f"{flag} {r.name:<20} residual={r.residual:.6e} "
              f"tolerance={r.tolerance:.1e}  {r.detail}")
    num_fail = sum(1 for r in results if not r.passed)
    if num_fail:
        print(f"verify: {num_fail} of {len(results)} checks failed")
    else:
        print(f"verify: all {len(results)} checks passed")
    doc = {
        "parameters": {
            "command": args.command,
            "seed": SEED,
            "resolution": args.resolution,
            "reference_resolution": REFERENCE_RESOLUTION,
            "num_xi": NUM_XI,
            "mc_samples": MC_SAMPLES,
            "only": list(only) if only else None,
        },
        "checks": [{"name": r.name, "passed": bool(r.passed),
                    # JSON has no NaN: a non-finite residual, which fails its
                    # check, is written as null
                    "residual": float(r.residual) if math.isfinite(r.residual) else None,
                    "tolerance": float(r.tolerance), "detail": r.detail}
                   for r in results],
        "num_fail": num_fail,
        "all_pass": num_fail == 0,
    }
    return (0 if num_fail == 0 else 1,
            {"verify.json": json.dumps(doc, indent=2, allow_nan=False) + "\n"})


_MIN_FIT_POLES = 12


def cmd_harmonics(args):
    if not 0 <= args.lmax <= LMAX:
        raise ValueError(f"--lmax must lie in [0, {LMAX}]")
    rule = equator_rule(args.dim, args.resolution)
    if args.lmax > rule.degree + 1:
        raise ValueError(f"--resolution {rule.resolution} integrates degree {rule.degree} "
                         f"exactly, so fits are exact only up to --lmax {rule.degree + 1}; "
                         f"got --lmax {args.lmax}")
    table = multiplier_table(args.lmax, dim=args.dim, num_xi=args.num_xi,
                             resolution=rule.resolution, seed=args.seed)
    lines = [_param_line({"command": args.command, "dim": args.dim,
                          "lmax": args.lmax, "num_xi": args.num_xi,
                          "seed": args.seed, "resolution": table.resolution}),
             "degree,lambda,closed_form,residual\n"]
    for l, lam, res in zip(table.degrees, table.multipliers, table.residuals):
        exact = funk_hecke_multiplier(args.dim, l)
        print(f"degree {l}: lambda = {lam: .12g}, closed form {exact: .12g}  "
              f"(worst fit residual {res:.3e})")
        lines.append(f"{l},{_fmt(lam)},{_fmt(exact)},{_fmt(res)}\n")
    return 0, {"multipliers.csv": "".join(lines)}


# ---------------------------------------------------------------------------
# argument parsing


def _int_at_least(low):
    # argparse type for a bounded int; argparse names the option it refuses
    def parse(text):
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}")
        return value

    parse.__name__ = "int"  # so a non-number still reads "invalid int value"
    return parse


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="starsym",
        description="Section functions, the equatorial derivative transform, "
                    "and symmetry detection for star bodies.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seed_help=None):
        p.add_argument("--out", default=".", help="output directory")
        if seed_help:
            p.add_argument("--seed", type=_int_at_least(0), default=7, help=seed_help)
        p.add_argument("--resolution", type=int, default=None,
                       help="equator quadrature resolution, at least 2 "
                            "(default per dimension)")

    p = sub.add_parser("analyze", help="sweep a body for central asymmetry")
    common(p, "seed of the random poles; at n = 3 the poles are a Fibonacci lattice and "
              "the seed changes nothing, though report.json records it")
    p.add_argument("--body", required=True, help="body spec JSON file")
    p.add_argument("--dirs", type=_int_at_least(1), default=100,
                   help="poles requested; 2 * max(1, dirs // 2) are swept in "
                        "antipodal pairs")

    p = sub.add_parser("sections", help="sample section curves over heights")
    common(p)
    p.add_argument("--body", required=True, help="body spec JSON file")
    p.add_argument("--kind", default="conical,hyperplane",
                   help="comma list from {conical, hyperplane}")
    p.add_argument("--z", default="-0.8:0.8:0.1",
                   help="height grid start:stop:step or comma list")
    p.add_argument("--formats", default="csv", help="comma list from {csv, svg}")
    p.add_argument("--xi", default=None,
                   help="pole as comma-separated components (default last axis)")

    p = sub.add_parser("verify", help="run the identity checks")
    common(p)
    p.add_argument("--only", default=None,
                   help="comma list of check names to run")

    p = sub.add_parser("harmonics", help="estimate transform multipliers")
    common(p, "seed of the poles of each fit")
    p.add_argument("--dim", type=int, default=3, choices=range(DIM_MIN, DIM_MAX + 1))
    p.add_argument("--lmax", type=int, default=8,
                   help=f"largest degree l (0 to {LMAX})")
    p.add_argument("--num-xi", type=_int_at_least(_MIN_FIT_POLES), default=24,
                   dest="num_xi", help=f"poles per fit (at least {_MIN_FIT_POLES})")
    return parser


_DISPATCH = {
    "analyze": cmd_analyze,
    "sections": cmd_sections,
    "verify": cmd_verify,
    "harmonics": cmd_harmonics,
}


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        code, texts = _DISPATCH[args.command](args)
        os.makedirs(args.out, exist_ok=True)
        for name, text in texts.items():
            path = os.path.join(args.out, name)
            with open(path, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
            print(f"wrote {path}")
        return code
    except (ValueError, TypeError, KeyError, OSError) as exc:
        print(f"starsym: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
