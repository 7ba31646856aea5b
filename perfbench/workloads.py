"""Operations of each workload and the checks of their outputs.

An operation returns an Outcome: its dimension, wall seconds, the worst
error against the closed form (normalised by the operation's own scale)
and, if it failed, why: 'exception' (it raised on an input inside the
method's domain), 'out_of_tol' (a value is further than TOLERANCE from
its oracle) or 'wrong_verdict'.
"""

from __future__ import annotations

import csv
import json
import os
import subprocess
import sys
import time

import numpy as np

import gen
from oracles import multiplier_s2

# Normalised error above which a returned value counts as wrong.  The
# default rules reach about 1e-12 on every body here; 1e-8 leaves room
# for the finite-difference meridian path without hiding a real error.
TOLERANCE = 1e-8


class Outcome:
    def __init__(self, dim, seconds, error=None, cause=None):
        self.dim = dim
        self.seconds = seconds
        self.error = error
        self.cause = cause


def classify(error, verdict_ok=True):
    if error is not None and not error <= TOLERANCE:
        return "out_of_tol"
    return None if verdict_ok else "wrong_verdict"


# ---------------------------------------------------------------------------
# bodies


def build_body(S, body):
    """The starsym body for a closed-form description."""
    p = body.params
    if body.kind == "ball":
        return S.body_ball(body.dim, p["radius"])
    if body.kind == "shifted_ball":
        return S.body_shifted_ball(body.dim, p["radius"], p["center"])
    if body.kind == "ellipsoid":
        return S.body_ellipsoid(body.dim, tuple(p["semiaxes"]))
    unit = S.body_harmonic_perturbed_ball(p["epsilon"], p["degree"], p["order"])
    return S.scale_body(unit, p["scale"])


def _make(S, spec, tracer):
    body = build_body(S, spec.body)
    if spec.fd:
        body = S.strip_gradient(body)
    if tracer is not None:
        tracer.instrument_body(body)
    return body


# ---------------------------------------------------------------------------
# warm, in-process operations


def detect_op(S, spec, tracer=None):
    start = time.perf_counter()
    try:
        report = S.detect(_make(S, spec, tracer))
    except Exception as exc:  # a raise inside the domain is a measured failure
        return Outcome(spec.dim, time.perf_counter() - start, cause="exception",
                       error=None), repr(exc)
    seconds = time.perf_counter() - start
    return check_transform(spec, report.xis, report.values, report.verdict, seconds), None


def check_transform(spec, xis, values, verdict, seconds):
    body = spec.body
    want = np.array([body.transform(xi) for xi in xis])
    error = float(np.max(np.abs(np.asarray(values) - want))) / body.density_scale()
    truth = "symmetric" if body.even else "asymmetric"
    return Outcome(spec.dim, seconds, error, classify(error, verdict == truth))


def sections_op(S, spec, tracer=None):
    start = time.perf_counter()
    try:
        body = _make(S, spec, tracer)
        frame = S.make_frame(spec.xi, seed=gen.FRAME_SEED)
        rule = S.equator_rule(spec.dim)
        curve = S.section_curve(spec.section, body, frame, spec.heights, rule)
        slope = S.derivative_at_zero(spec.section, body, frame, rule)
    except Exception as exc:  # e.g. a valid cut the code refuses
        return Outcome(spec.dim, time.perf_counter() - start, cause="exception"), repr(exc)
    seconds = time.perf_counter() - start
    error = section_error(spec.body, spec.xi, spec.section, curve.zs, curve.values,
                          slope.transform_value)
    return Outcome(spec.dim, seconds, error, classify(error)), None


def section_error(body, xi, kind, zs, values, slope):
    """Worst normalised error of a sampled curve and its slope at z = 0."""
    worst = 0.0
    for z, v in zip(zs, values):
        if kind == "hyperplane":
            want = body.hyperplane_section(xi, z)
        else:
            want = body.conical_section(xi, 0.0 if abs(z) < 1e-12 else z)
        if want is not None:
            worst = max(worst, abs(v - want) / body.section_scale())
    if kind == "hyperplane":
        return max(worst, abs(slope - body.hyperplane_slope(xi)) / body.slope_scale())
    return max(worst, abs(slope - body.conical_slope(xi)) / body.density_scale())


# ---------------------------------------------------------------------------
# cold CLI operations: one fresh process each


class CliRunner:
    """Runs `starsym` subcommands as child processes inside the checkout."""

    def __init__(self, root, out_dir):
        self.root = root
        self.out_dir = out_dir
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.peak_rss_kb = 0

    def command(self, args, trace_path):
        if trace_path is None:
            return [sys.executable, "-m", "starsym.cli", *args]
        child = os.path.join(self.root, "perfbench", "child.py")
        return [sys.executable, child, "cli", trace_path, *args]

    def run(self, index, sub, spec, trace_path=None):
        out = os.path.join(self.out_dir, f"op{index}")
        os.makedirs(out, exist_ok=True)
        args = [sub, "--out", out]
        if spec is not None:
            spec_path = os.path.join(out, "body.json")
            with open(spec_path, "w", encoding="utf-8") as fh:
                json.dump(spec.cli_json(), fh)
            args += ["--body", spec_path]
            if sub == "sections":
                # one token, since the list may start with a minus sign
                args.append("--z=" + ",".join(repr(float(z)) for z in spec.heights))
        if sub == "harmonics":
            args += ["--dim", "3"]
        log_path = os.path.join(out, "stdout.txt")
        with open(log_path, "wb") as log:
            start = time.perf_counter()
            proc = subprocess.Popen(self.command(args, trace_path), cwd=self.root,
                                    env=self.env, stdout=log, stderr=subprocess.STDOUT)
            _, status, usage = os.wait4(proc.pid, 0)
            seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        dim = spec.dim if spec is not None else (3 if sub == "harmonics" else 0)
        # verify exits 1 when a check fails; verify.json then says which
        if proc.returncode != 0 and (sub, proc.returncode) != ("verify", 1):
            with open(log_path, encoding="utf-8", errors="replace") as fh:
                last = (fh.read().strip().splitlines() or [""])[-1]
            return Outcome(dim, seconds, cause="exception"), f"{sub} exit {proc.returncode}: {last}"
        check = getattr(self, "_check_" + sub)
        return check(out, spec, dim, seconds), None

    def _check_verify(self, out, spec, dim, seconds):
        with open(os.path.join(out, "verify.json"), encoding="utf-8") as fh:
            ok = json.load(fh)["all_pass"] is True
        return Outcome(dim, seconds, cause=None if ok else "out_of_tol")

    def _check_analyze(self, out, spec, dim, seconds):
        with open(os.path.join(out, "report.json"), encoding="utf-8") as fh:
            verdict = json.load(fh)["verdict"]
        rows = _csv_rows(os.path.join(out, "values.csv"))
        xis = np.array([[float(r[f"xi_{i}"]) for i in range(dim)] for r in rows])
        values = np.array([float(r["transform"]) for r in rows])
        return check_transform(spec, xis, values, verdict, seconds)

    def _check_sections(self, out, spec, dim, seconds):
        rows = _csv_rows(os.path.join(out, "curves.csv"))
        worst = 0.0
        for kind in ("conical", "hyperplane"):
            mine = [r for r in rows if r["kind"] == kind]
            zs = [float(r["z"]) for r in mine]
            values = [float(r["value"]) for r in mine]
            worst = max(worst, section_error(spec.body, spec.xi, kind, zs, values,
                                             float(mine[0]["slope_at_zero"])))
        return Outcome(dim, seconds, worst, classify(worst))

    def _check_harmonics(self, out, spec, dim, seconds):
        worst = 0.0
        for r in _csv_rows(os.path.join(out, "multipliers.csv")):
            l = int(r["degree"])
            worst = max(worst, abs(float(r["lambda"]) - multiplier_s2(l))
                        / (2.0 * np.pi * max(1, l)))
        return Outcome(dim, seconds, worst, classify(worst))


def _csv_rows(path):
    with open(path, encoding="utf-8") as fh:
        lines = [line for line in fh if not line.startswith("#")]
    return list(csv.DictReader(lines))
