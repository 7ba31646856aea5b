"""CLI subcommands: exit codes, artifacts, and deterministic serialization.

scipy is a test-only dependency, and nothing here imports it: CI also runs
this file with scipy blocked, so a stray import on a CLI path fails it.
"""

import csv
import dataclasses
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from starsym import (
    check_names,
    derivative_at_zero,
    detect,
    equator_rule,
    funk_hecke_multiplier,
    make_frame,
    multiplier_table,
    run_checks,
    section_curve,
)
from starsym.cli import (
    build_body,
    load_body_spec,
    main,
    parse_z_values,
    svg_curves,
)

BALL = {"kind": "ball", "dim": 3, "params": {"radius": 1.0}}
SHIFTED = {"kind": "shifted_ball", "dim": 3,
           "params": {"radius": 1.0, "center": [0.2, 0.0, 0.1]}}


def _spec(tmp_path, doc, name="body.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def _read_csv_rows(path):
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# parameters:")
    return lines[1], lines[2:]


def _csv_records(path, kind=None):
    # the data rows as dicts, only those of one section kind if given
    header, rows = _read_csv_rows(path)
    return [r for r in csv.DictReader([header] + rows) if kind is None or r["kind"] == kind]


# ---------------------------------------------------------------------------
# exit codes


def test_no_arguments_is_a_usage_error(capsys):
    assert main([]) == 2
    capsys.readouterr()


def test_unknown_body_kind_exits_2(tmp_path, capsys):
    spec = _spec(tmp_path, {"kind": "torus", "dim": 3, "params": {}})
    assert main(["analyze", "--body", spec, "--out", str(tmp_path)]) == 2
    assert "starsym:" in capsys.readouterr().err


def test_missing_body_file_exits_2(tmp_path, capsys):
    assert main(["analyze", "--body", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path)]) == 2
    capsys.readouterr()


def test_z_range_needs_equals_form_for_leading_minus(tmp_path, capsys):
    # argparse reads a space-separated "-0.5:0.5:0.25" as an unknown
    # option; the --z=... form is the supported spelling
    spec = _spec(tmp_path, BALL)
    code = main(["sections", "--body", spec, "--out", str(tmp_path),
                 "--z", "-0.5:0.5:0.25"])
    assert code == 2
    capsys.readouterr()


# ---------------------------------------------------------------------------
# analyze


def test_analyze_ball_reports_symmetric(tmp_path, capsys):
    spec = _spec(tmp_path, BALL)
    out = tmp_path / "out"
    assert main(["analyze", "--body", spec, "--out", str(out),
                 "--dirs", "16"]) == 0
    screen = capsys.readouterr().out
    assert "verdict: symmetric" in screen
    doc = json.loads((out / "report.json").read_text())
    assert doc["verdict"] == "symmetric"
    assert doc["parameters"]["body"] == BALL
    assert doc["max_abs_transform"] < 1e-7
    header, rows = _read_csv_rows(out / "values.csv")
    assert header == "xi_0,xi_1,xi_2,transform"
    assert len(rows) == 16


def test_analyze_shifted_ball_reports_asymmetric(tmp_path, capsys):
    spec = _spec(tmp_path, SHIFTED)
    out = tmp_path / "out"
    assert main(["analyze", "--body", spec, "--out", str(out),
                 "--dirs", "12"]) == 0
    doc = json.loads((out / "report.json").read_text())
    assert doc["verdict"] == "asymmetric"
    assert doc["max_abs_transform"] > doc["threshold"]
    capsys.readouterr()


_REPORT_KEYS = ["parameters", "verdict", "note", "max_abs_transform",
                "l2_mean_transform", "threshold", "num_dirs"]


def test_analyze_report_keys(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["analyze", "--body", _spec(tmp_path, SHIFTED), "--out", str(out),
                 "--dirs", "8"]) == 0
    capsys.readouterr()
    doc = json.loads((out / "report.json").read_text())
    assert list(doc) == _REPORT_KEYS


@pytest.mark.parametrize("doc, verdict, resolution", [
    ({"kind": "shifted_ball", "dim": 5,
      "params": {"radius": 1.0, "center": [0.2, 0.1, 0.0, 0.0, -0.1]}}, "asymmetric", 16),
    ({"kind": "ellipsoid", "dim": 6,
      "params": {"semiaxes": [0.014, 0.012, 0.01, 0.009, 0.008, 0.011]}}, "symmetric", 8),
    ({"kind": "harmonic_ball", "dim": 3,
      "params": {"epsilon": 0.08, "degree": 3, "order": 1}}, "asymmetric", 512),
    ({"kind": "harmonic_ball", "dim": 3,
      "params": {"epsilon": 0.05, "degree": 2, "order": -1}}, "symmetric", 512),
    ({"kind": "shifted_ball", "dim": 2,
      "params": {"radius": 1.0, "center": [0.2, -0.1]}}, "asymmetric", 2),
    ({"kind": "ellipsoid", "dim": 2, "params": {"semiaxes": [1.3, 0.7]}}, "symmetric", 2),
], ids=["shifted_n5", "small_ellipsoid_n6", "odd_harmonic_3_1", "even_harmonic_2_-1",
        "shifted_n2", "ellipsoid_n2"])
def test_analyze_verdict_and_the_rule_it_records(tmp_path, capsys, doc, verdict, resolution):
    # the detector's floor at default settings, and the rule ladder's
    # stop: the n = 6 ellipsoid at scale 1e-2 settles at resolution 8,
    # half its default; the shifted n = 5 ball does not settle on the
    # r // 4 rung, the second frame completion confirms its r // 2 rung,
    # and it records 16, half its default 32; n = 2, 3 sweep one level
    # at their defaults 2 and 512.  n = 2 takes the same roundoff floor as
    # every other dimension, and the harmonic balls read the real
    # harmonics built on the zonal recurrence
    out = tmp_path / "out"
    assert main(["analyze", "--body", _spec(tmp_path, doc), "--out", str(out)]) == 0
    capsys.readouterr()
    report = json.loads((out / "report.json").read_text())
    assert list(report) == _REPORT_KEYS
    assert report["verdict"] == verdict
    assert report["parameters"]["resolution"] == resolution


def test_analyze_refuses_a_rule_past_the_node_cap(tmp_path, capsys):
    # resolution 66 in n = 6 is a rule of 66 * 33^3 = 2371842 nodes, refused
    # before it is allocated, whatever the body
    ball = {"kind": "ball", "dim": 6, "params": {"radius": 1.0}}
    ellipsoid = {"kind": "ellipsoid", "dim": 6,
                 "params": {"semiaxes": [0.014, 0.012, 0.01, 0.009, 0.008, 0.011]}}
    for doc in (ball, ellipsoid):
        out = tmp_path / "out"
        assert main(["analyze", "--body", _spec(tmp_path, doc), "--out", str(out),
                     "--resolution", "66"]) == 2
        assert capsys.readouterr().err == (
            "starsym: resolution 66 on S^4 gives a rule of 2371842 nodes; "
            "at most 2097152 are allowed\n")
        assert not out.exists()


def test_analyze_is_byte_deterministic(tmp_path, capsys):
    spec = _spec(tmp_path, SHIFTED)
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["analyze", "--body", spec, "--out", str(out),
                     "--dirs", "8"]) == 0
        outs.append(out)
    capsys.readouterr()
    for artifact in ("report.json", "values.csv"):
        assert (outs[0] / artifact).read_bytes() == (outs[1] / artifact).read_bytes()


# ---------------------------------------------------------------------------
# sections


def test_sections_writes_curves_and_svg(tmp_path, capsys):
    spec = _spec(tmp_path, BALL)
    out = tmp_path / "out"
    assert main(["sections", "--body", spec, "--out", str(out),
                 "--z=-0.5:0.5:0.25", "--formats", "csv,svg"]) == 0
    capsys.readouterr()
    header, rows = _read_csv_rows(out / "curves.csv")
    assert header == "kind,z,value,slope_at_zero"
    assert len(rows) == 10  # 5 heights x 2 kinds
    for row in rows:
        kind, z, value, slope = row.split(",")
        assert kind in ("conical", "hyperplane")
        assert abs(float(slope)) < 1e-10  # balls are even
        if kind == "hyperplane":
            want = math.pi * (1.0 - float(z) ** 2)
            assert float(value) == pytest.approx(want, rel=1e-9)
    svg = (out / "sections.svg").read_text()
    assert svg.startswith("<svg")
    assert svg.count("<polyline") == 2
    assert "height z" in svg and "section volume" in svg


@pytest.mark.parametrize("formats, written", [
    ("svg", {"sections.svg"}),
    ("csv", {"curves.csv"}),
    ("csv,svg", {"curves.csv", "sections.svg"}),
], ids=["svg", "csv", "csv+svg"])
def test_sections_writes_only_the_selected_formats(tmp_path, capsys, formats, written):
    spec = _spec(tmp_path, BALL)
    out = tmp_path / "out"
    assert main(["sections", "--body", spec, "--out", str(out), "--z=0,0.5",
                 "--formats", formats, "--resolution", "16"]) == 0
    capsys.readouterr()
    assert {p.name for p in out.iterdir()} == written
    if "csv" in formats:
        first = (out / "curves.csv").read_text().splitlines()[0]
        assert first == "# parameters: command=sections resolution=16 xi=0,0,1"


def test_sections_has_no_seed_option(tmp_path, capsys):
    spec = _spec(tmp_path, BALL)
    out = tmp_path / "out"
    assert main(["sections", "--body", spec, "--out", str(out), "--seed", "1"]) == 2
    assert "--seed" in capsys.readouterr().err
    assert not out.exists()


def test_sections_pole_override_and_validation(tmp_path, capsys):
    spec = _spec(tmp_path, SHIFTED)
    out = tmp_path / "out"
    assert main(["sections", "--body", spec, "--out", str(out),
                 "--xi", "1,0,0", "--z", "0.0,0.2", "--kind", "conical"]) == 0
    _, rows = _read_csv_rows(out / "curves.csv")
    assert len(rows) == 2
    # the pole has the shift in view, so the slope is away from zero
    assert abs(float(rows[0].split(",")[3])) > 1e-3
    assert main(["sections", "--body", spec, "--out", str(out),
                 "--xi", "1,0"]) == 2
    assert main(["sections", "--body", spec, "--out", str(out),
                 "--kind", "wedge"]) == 2
    assert main(["sections", "--body", spec, "--out", str(out),
                 "--z", "0.0,1.5"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("doc, argv, count, want", [
    # the shifted n = 6 ball: omega_5 (r^2 - (z - s)^2)^(5/2), r = 1 and
    # s = <c, e_6> = 0.05
    ({"kind": "shifted_ball", "dim": 6,
      "params": {"radius": 1.0, "center": [0.2, 0.1, 0.0, 0.0, -0.1, 0.05]}},
     ["--kind", "conical,hyperplane", "--z=-0.5:0.5:0.25", "--formats", "csv,svg"], 5,
     lambda z: 8.0 * math.pi ** 2 / 15.0 * (1.0 - (z - 0.05) ** 2) ** 2.5),
    # rho(+-e_3) = 0.65 and 0.55, so the cuts at z = +-0.9 have their foot
    # points outside the body and are solved about the ray through the summit
    ({"kind": "shifted_ball", "dim": 3, "params": {"radius": 1.0, "center": [0.8, 0.0, 0.05]}},
     ["--z=-0.9:0.9:0.3"], 7, lambda z: math.pi * (1.0 - (z - 0.05) ** 2)),
    # the prolate ellipsoid cut across its long axis, past its 0.6 equator radius
    ({"kind": "ellipsoid", "dim": 3, "params": {"semiaxes": [0.6, 0.7, 1.2]}},
     ["--z=-0.9:0.9:0.3"], 7, lambda z: math.pi * 0.6 * 0.7 * (1.0 - z * z / 1.44)),
], ids=["shifted_n6", "off_foot_point", "prolate"])
def test_sections_hyperplane_rows_match_closed_forms(tmp_path, capsys, doc, argv, count,
                                                     want):
    out = tmp_path / "out"
    assert main(["sections", "--body", _spec(tmp_path, doc), "--out", str(out)] + argv) == 0
    capsys.readouterr()
    rows = _csv_records(out / "curves.csv", "hyperplane")
    assert len(rows) == count
    for row in rows:
        assert abs(float(row["value"]) / want(float(row["z"])) - 1.0) <= 1e-10, row


@pytest.mark.parametrize("doc", [
    {"kind": "ellipsoid", "dim": 5, "params": {"semiaxes": [1.5, 1.3, 1.1, 0.9, 0.7]}},
    {"kind": "ellipsoid", "dim": 6, "params": {"semiaxes": [1.5, 1.34, 1.18, 1.02, 0.86, 0.7]}},
    {"kind": "shifted_ball", "dim": 5, "params": {"radius": 1.0,
                                                  "center": [0.3, -0.2, 0.1, 0.15, -0.1]}},
    {"kind": "shifted_ball", "dim": 6, "params": {"radius": 1.0,
                                                  "center": [0.2, 0.1, 0.0, 0.3, -0.1, 0.05]}},
], ids=["ellipsoid_n5", "ellipsoid_n6", "shifted_n5", "shifted_n6"])
def test_sections_n5_n6_rows_match_closed_forms(tmp_path, capsys, doc):
    # every nonzero row of the CLI's default grid, about an off-axis pole,
    # within 1e-12 of omega_{n-1} prod(a) / h (1 - z^2 / h^2)^((n-1)/2), h =
    # |diag(a) xi|, or omega_{n-1} (1 - (z - <c, xi>)^2)^((n-1)/2), normalised
    # by omega_{n-1} times the largest semiaxis or radius to the n - 1; the
    # row at z = 0 is conical_section's value
    n = doc["dim"]
    out = tmp_path / "out"
    xi = np.arange(1.0, n + 1.0)
    assert main(["sections", "--body", _spec(tmp_path, doc), "--out", str(out), "--kind",
                 "hyperplane", "--xi", ",".join(str(c) for c in xi)]) == 0
    capsys.readouterr()
    xi /= np.linalg.norm(xi)
    omega = math.pi ** ((n - 1) / 2) / math.gamma((n + 1) / 2)
    params = doc["params"]
    if doc["kind"] == "ellipsoid":
        a = np.array(params["semiaxes"])
        h = float(np.linalg.norm(a * xi))
        scale = omega * a.max() ** (n - 1)

        def want(z):
            return omega * float(np.prod(a)) / h * max(0.0, 1.0 - (z / h) ** 2) ** ((n - 1) / 2)
    else:
        s = float(np.array(params["center"]) @ xi)
        scale = omega

        def want(z):
            return omega * max(0.0, 1.0 - (z - s) ** 2) ** ((n - 1) / 2)
    rows = _csv_records(out / "curves.csv", "hyperplane")
    assert len(rows) == 17
    errors = [abs(float(r["value"]) - want(float(r["z"]))) / scale
              for r in rows if float(r["z"]) != 0.0]
    assert max(errors) <= 1e-12


def test_sections_range_rows_at_zero_agree(tmp_path, capsys):
    # a range grid whose points reach zero only up to roundoff writes a
    # row at z = 0 exactly for both kinds, where the two values agree
    doc = {"kind": "shifted_ball", "dim": 3,
           "params": {"radius": 1.0, "center": [0.15, -0.1, 0.05]}}
    out = tmp_path / "out"
    assert main(["sections", "--body", _spec(tmp_path, doc), "--out", str(out),
                 "--z=-0.6:0.6:0.2"]) == 0
    capsys.readouterr()
    rows = [r for r in _csv_records(out / "curves.csv") if r["z"] == "0"]
    assert sorted(r["kind"] for r in rows) == ["conical", "hyperplane"]
    assert rows[0]["value"] == rows[1]["value"]


# ---------------------------------------------------------------------------
# verify


def test_verify_default_run_passes_every_check(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["verify", "--out", str(out)]) == 0
    capsys.readouterr()
    doc = json.loads((out / "verify.json").read_text())
    assert doc["all_pass"] is True
    assert tuple(c["name"] for c in doc["checks"]) == check_names()


def test_module_entry_point_returns_the_exit_code(tmp_path):
    # `python -m starsym.cli` runs main() in a fresh interpreter and exits
    # with its code: 0 for a passing check, 2 for an unknown one
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    out = tmp_path / "out"
    for only, code in (("rule_mass", 0), ("bogus", 2)):
        proc = subprocess.run([sys.executable, "-m", "starsym.cli", "verify", "--only", only,
                               "--out", str(out)], env=env, capture_output=True, text=True)
        assert proc.returncode == code, proc.stderr
    doc = json.loads((out / "verify.json").read_text())
    assert [c["name"] for c in doc["checks"]] == ["rule_mass"] and doc["all_pass"] is True


def test_verify_subset_passes_and_reports(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["verify", "--out", str(out),
                 "--only", "rule_mass,set_identity,lambda1"]) == 0
    screen = capsys.readouterr().out
    assert screen.count("PASS") == 3
    assert "all 3 checks passed" in screen
    doc = json.loads((out / "verify.json").read_text())
    assert doc["all_pass"] is True
    assert [c["name"] for c in doc["checks"]] == ["rule_mass", "set_identity",
                                                  "lambda1"]


def test_verify_unknown_check_exits_2(tmp_path, capsys):
    assert main(["verify", "--out", str(tmp_path), "--only", "bogus"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("only", ["", ","])
def test_verify_empty_selection_exits_2_and_writes_nothing(tmp_path, capsys, only):
    out = tmp_path / "out"
    assert main(["verify", "--out", str(out), "--only", only]) == 2
    err = capsys.readouterr().err
    assert err.startswith("starsym: no check names given; known: rule_mass, ")
    assert not out.exists()


def test_verify_repeated_check_exits_2_and_writes_nothing(tmp_path, capsys):
    # a check named twice used to run twice and write two entries
    out = tmp_path / "out"
    assert main(["verify", "--out", str(out), "--only", "rule_mass,rule_mass"]) == 2
    assert capsys.readouterr().err == "starsym: repeated check name(s): rule_mass\n"
    assert not out.exists()


def test_verify_coarse_resolution_exits_1(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["verify", "--out", str(out), "--resolution", "8",
                 "--only", "slope_agreement"]) == 1
    screen = capsys.readouterr().out
    assert "FAIL slope_agreement" in screen
    doc = json.loads((out / "verify.json").read_text())
    assert doc["all_pass"] is False
    assert doc["num_fail"] == 1


def test_verify_json_is_byte_deterministic(tmp_path, capsys):
    blobs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["verify", "--out", str(out),
                     "--only", "rule_mass,z0_coincidence,n2_oracle"]) == 0
        blobs.append((out / "verify.json").read_bytes())
    capsys.readouterr()
    assert blobs[0] == blobs[1]


# ---------------------------------------------------------------------------
# harmonics


def _multiplier_rows(path):
    header, rows = _read_csv_rows(path)
    assert header == "degree,lambda,closed_form,residual"
    return [tuple(float(x) for x in row.split(",")) for row in rows]


@pytest.mark.parametrize("argv", [
    ["--dim", "3"],
    ["--dim", "3", "--lmax", "10", "--num-xi", "12"],
    ["--dim", "2"],
    ["--dim", "6", "--lmax", "5", "--num-xi", "12"],
], ids=["dim3", "dim3_top_degree_fewest_poles", "dim2", "dim6"])
def test_harmonics_fits_match_funk_hecke(tmp_path, capsys, argv):
    # the zonal recurrence and its multiplier fits at n = 2, 3 and 6
    out = tmp_path / "out"
    assert main(["harmonics", "--out", str(out)] + argv) == 0
    capsys.readouterr()
    rows = _multiplier_rows(out / "multipliers.csv")
    assert rows
    for _, value, exact, _ in rows:
        assert abs(value - exact) <= 1e-9 * max(1.0, abs(exact))


def test_harmonics_dim3_table(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["harmonics", "--out", str(out), "--lmax", "4"]) == 0
    capsys.readouterr()
    rows = _multiplier_rows(out / "multipliers.csv")
    assert [int(l) for l, _, _, _ in rows] == [0, 1, 2, 3, 4]
    lam = {int(l): value for l, value, _, _ in rows}
    assert lam[1] == pytest.approx(2.0 * math.pi, abs=1e-8)
    assert abs(lam[2]) < 1e-10
    assert lam[3] == pytest.approx(-3.0 * math.pi, abs=1e-8)
    for _, value, exact, residual in rows:
        assert value == pytest.approx(exact, abs=1e-9) and residual < 1e-9


def test_harmonics_dim2_table(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["harmonics", "--out", str(out), "--dim", "2",
                 "--lmax", "0"]) == 0
    assert main(["harmonics", "--out", str(out), "--dim", "2",
                 "--lmax", "3"]) == 0
    capsys.readouterr()
    rows = _multiplier_rows(out / "multipliers.csv")
    assert [int(k) for k, _, _, _ in rows] == [0, 1, 2, 3]
    for k, value, exact, _ in rows:
        assert exact == pytest.approx(2.0 * k * math.sin(k * math.pi / 2.0), abs=1e-12)
        assert value == pytest.approx(exact, abs=1e-10)


def test_harmonics_dim5_table(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["harmonics", "--out", str(out), "--dim", "5", "--lmax", "3",
                 "--num-xi", "12", "--resolution", "8"]) == 0
    assert "closed form" in capsys.readouterr().out
    rows = _multiplier_rows(out / "multipliers.csv")
    assert [int(l) for l, _, _, _ in rows] == [0, 1, 2, 3]
    assert rows[1][2] == pytest.approx(2.0 * math.pi ** 2)
    for _, value, exact, _ in rows:
        assert value == pytest.approx(exact, abs=1e-9)


@pytest.mark.parametrize("dim, resolution, degree", [("6", "10", 7), ("3", "8", 7)])
def test_harmonics_refuses_too_coarse_resolution(tmp_path, capsys, dim, resolution, degree):
    # fits are exact only up to lmax = rule degree + 1; beyond that they
    # are 13-95% off, so the table is refused rather than written
    out = tmp_path / "out"
    assert main(["harmonics", "--out", str(out), "--dim", dim, "--lmax", "9",
                 "--resolution", resolution]) == 2
    assert capsys.readouterr().err == (
        f"starsym: --resolution {resolution} integrates degree {degree} exactly, so "
        f"fits are exact only up to --lmax {degree + 1}; got --lmax 9\n")
    assert not out.exists()


def test_harmonics_top_degree_at_coarse_resolution(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["harmonics", "--out", str(out), "--dim", "6", "--lmax", "8",
                 "--resolution", "10"]) == 0
    capsys.readouterr()
    rows = _multiplier_rows(out / "multipliers.csv")
    assert [int(l) for l, _, _, _ in rows] == list(range(9))
    for _, value, exact, _ in rows:
        assert value == pytest.approx(exact, abs=1e-9)


def test_harmonics_refuses_dim_7(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["harmonics", "--out", str(out), "--dim", "7"]) == 2
    assert "argument --dim: invalid choice: 7" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("dim", ["2", "3"])
def test_harmonics_records_num_xi_and_refuses_too_few_poles(tmp_path, capsys, dim):
    out = tmp_path / "out"
    assert main(["harmonics", "--out", str(out), "--dim", dim, "--lmax", "2",
                 "--num-xi", "12", "--resolution", "16"]) == 0
    capsys.readouterr()
    first = (out / "multipliers.csv").read_text().splitlines()[0]
    assert first == (f"# parameters: command=harmonics dim={dim} lmax=2 num_xi=12 "
                     "seed=7 resolution=16")
    few = tmp_path / "few"
    assert main(["harmonics", "--out", str(few), "--dim", dim, "--num-xi", "11"]) == 2
    assert capsys.readouterr().err.endswith(
        "starsym harmonics: error: argument --num-xi: must be at least 12\n")
    assert not few.exists()


@pytest.mark.parametrize("dim", ["2", "3", "4", "5", "6"])
def test_harmonics_failure_writes_nothing(tmp_path, capsys, dim):
    out = tmp_path / "out"
    for lmax in ("11", "-1"):
        assert main(["harmonics", "--out", str(out), "--dim", dim, "--lmax", lmax]) == 2
        assert capsys.readouterr().err == "starsym: --lmax must lie in [0, 10]\n"
        assert not out.exists()


def test_sections_refused_cut_writes_nothing(tmp_path, capsys):
    # rho = 1 + 0.1 Y_1^0 peaks at 1.049 on the pole -e_3 and dips to its
    # summit 0.951 on e_3, so the cut at 0.97 along -e_3 (height 0.97 over
    # e_3's side) lies above the summit found and below radius_bound 1.051;
    # a harmonic ball is not declared convex, so no certificate says it is
    # empty, and the refusal names the failed search
    spec = _spec(tmp_path, {"kind": "harmonic_ball", "dim": 3,
                            "params": {"epsilon": 0.1, "degree": 1, "order": 0}})
    out = tmp_path / "out"
    assert main(["sections", "--body", spec, "--out", str(out), "--xi", "0,0,-1",
                 "--z=0.97"]) == 2
    assert capsys.readouterr().err == (
        "starsym: the cut at z = 0.97 is refused: rho(xi) = 0.95114, rho(-xi) = 1.04886, and "
        "the compass search found no boundary point above height 0.95114 on its side, but a "
        "peak too narrow for the search may still reach the cut\n")
    assert not out.exists()


def test_sections_cut_above_a_convex_summit_is_zero(tmp_path, capsys):
    # the oblate ellipsoid is convex, so its summit 0.5 is its support: the
    # cut at 0.6, below its radius_bound 1.2, is empty (this run exited 2)
    spec = _spec(tmp_path, {"kind": "ellipsoid", "dim": 3,
                            "params": {"semiaxes": [1.2, 1.1, 0.5]}})
    out = tmp_path / "out"
    assert main(["sections", "--body", spec, "--out", str(out), "--kind", "hyperplane",
                 "--z=-0.6,0.5,0.6"]) == 0
    capsys.readouterr()
    assert [r["value"] for r in _csv_records(out / "curves.csv", "hyperplane")] == ["0"] * 3


def test_sections_cuts_past_radius_bound_are_zero(tmp_path, capsys):
    spec = _spec(tmp_path, {"kind": "ball", "dim": 3, "params": {"radius": 2.0}})
    out = tmp_path / "out"
    assert main(["sections", "--body", spec, "--out", str(out), "--kind", "hyperplane",
                 "--z=-2.5,-2,0,2,2.5"]) == 0
    capsys.readouterr()
    _, rows = _read_csv_rows(out / "curves.csv")
    values = [row.split(",")[2] for row in rows]
    assert values[:2] == values[3:] == ["0", "0"]
    assert float(values[2]) == pytest.approx(4.0 * math.pi, rel=1e-12)


def test_sections_refuses_a_huge_z_range(tmp_path, capsys):
    # the point count of 0:1e300:1e-300 overflowed into a traceback and
    # exit 1; a range past 10000 points is an input error
    spec = _spec(tmp_path, BALL)
    for grid, count in (("0:1e300:1e-300", "inf"), ("0:1:1e-12", "1e+12")):
        out = tmp_path / "out"
        assert main(["sections", "--body", spec, "--out", str(out), f"--z={grid}"]) == 2
        assert capsys.readouterr().err == (
            f"starsym: z range has {count} points; at most 10000 are allowed\n")
        assert not out.exists()


def test_sections_heights_past_the_unit_sphere(tmp_path, capsys):
    # hyperplane cuts of a radius-2 ball exist up to |z| < 2, while
    # conical heights are cosines and stop below 1
    spec = _spec(tmp_path, {"kind": "ball", "dim": 3, "params": {"radius": 2.0}})
    for zs in ([0.2, 1.0], [-1.5, 0.0, 1.5]):
        text = ",".join(str(z) for z in zs)
        out = tmp_path / text
        assert main(["sections", "--body", spec, "--out", str(out), "--kind", "conical",
                     f"--z={text}"]) == 2
        assert capsys.readouterr().err == "starsym: height z must lie in (-1, 1)\n"
        assert not out.exists()
        assert main(["sections", "--body", spec, "--out", str(out), "--kind", "hyperplane",
                     f"--z={text}"]) == 0
        capsys.readouterr()
        _, rows = _read_csv_rows(out / "curves.csv")
        assert [float(row.split(",")[1]) for row in rows] == zs
        for row in rows:
            z, value = (float(x) for x in row.split(",")[1:3])
            assert value == pytest.approx(math.pi * (4.0 - z * z), rel=1e-10)


@pytest.mark.parametrize("argv", [
    ["analyze", "--body", "{ball}", "--resolution", "0"],
    ["analyze", "--body", "{disk}", "--resolution", "1"],
    ["sections", "--body", "{ball}", "--resolution", "0"],
    ["verify", "--resolution", "0"],
    ["harmonics", "--resolution", "0"],
    ["harmonics", "--dim", "2", "--resolution", "-3"],
], ids=["analyze", "analyze_n2", "sections", "verify", "harmonics", "harmonics_n2"])
def test_resolution_below_two_exits_2_and_writes_nothing(tmp_path, capsys, argv):
    specs = {"ball": _spec(tmp_path, BALL),
             "disk": _spec(tmp_path, {"kind": "ball", "dim": 2,
                                      "params": {"radius": 1.0}}, "disk.json")}
    out = tmp_path / "out"
    assert main([a.format(**specs) for a in argv] + ["--out", str(out)]) == 2
    assert capsys.readouterr().err == "starsym: resolution must be at least 2\n"
    assert not out.exists()


@pytest.mark.parametrize("xi", ["nan,0,1", "inf,0,1", "0,-inf,1"])
def test_sections_refuses_non_finite_pole(tmp_path, capsys, xi):
    out = tmp_path / "out"
    assert main(["sections", "--body", _spec(tmp_path, BALL), "--out", str(out),
                 "--xi", xi]) == 2
    assert capsys.readouterr().err == "starsym: direction has non-finite components\n"
    assert not out.exists()


@pytest.mark.parametrize("xi", ["1e300,0,0", "1e-13,0,0"])
def test_sections_takes_a_pole_of_any_finite_size(tmp_path, capsys, xi):
    # both exited 2 with "direction has near-zero norm": the square of 1e300
    # overflowed, and 1e-13 fell below a fixed cut-off
    spec = _spec(tmp_path, SHIFTED)
    blobs = []
    for name, pole in (("given", xi), ("unit", "1,0,0")):
        out = tmp_path / name
        assert main(["sections", "--body", spec, "--out", str(out), "--xi", pole,
                     "--z=-0.4:0.4:0.4"]) == 0
        blobs.append((out / "curves.csv").read_bytes())
    capsys.readouterr()
    assert blobs[0] == blobs[1]


_SCALE_SPECS = {
    "tiny_ellipsoid": ({"kind": "ellipsoid", "dim": 6,
                        "params": {"semiaxes": list(1e-35 * np.linspace(1.4, 0.8, 6))}},
                       "symmetric"),
    "huge_shifted_ball": ({"kind": "shifted_ball", "dim": 6,
                           "params": {"radius": 1e35, "center": [2e34, 0, 0, 0, 0, 0]}},
                          "asymmetric"),
}


@pytest.mark.parametrize("name", sorted(_SCALE_SPECS))
def test_analyze_reads_the_true_verdict_at_extreme_scales(tmp_path, capsys, name):
    # the tiny even ellipsoid read asymmetric with threshold 0, and the
    # huge shifted ball exited 2 on an infinite l2_mean
    doc, verdict = _SCALE_SPECS[name]
    out = tmp_path / "out"
    assert main(["analyze", "--body", _spec(tmp_path, doc), "--out", str(out)]) == 0
    capsys.readouterr()
    report = json.loads((out / "report.json").read_text())
    assert report["verdict"] == verdict
    assert 0.0 < report["threshold"] < math.inf
    assert 0.0 < report["l2_mean_transform"] <= report["max_abs_transform"]


def test_analyze_reads_a_disk_of_radius_1e300_as_symmetric(tmp_path, capsys):
    # its convexity check squared raw boundary midpoints, which overflowed
    out = tmp_path / "out"
    doc = {"kind": "ball", "dim": 2, "params": {"radius": 1e300}}
    assert main(["analyze", "--body", _spec(tmp_path, doc), "--out", str(out)]) == 0
    capsys.readouterr()
    assert json.loads((out / "report.json").read_text())["verdict"] == "symmetric"


@pytest.mark.parametrize("radius, bound", [(1e70, "radius_bound = 1e+70"),
                                           (1e-62, "radius_floor = 1e-62")],
                         ids=["huge", "tiny"])
def test_analyze_refuses_a_density_outside_the_double_range(tmp_path, capsys, radius, bound):
    # radius 1e70 ended in an OverflowError traceback with exit 1
    out = tmp_path / "out"
    doc = {"kind": "ball", "dim": 6, "params": {"radius": radius}}
    assert main(["analyze", "--body", _spec(tmp_path, doc), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"starsym: {bound} puts the section density "
                                              "rho^5/5 of an n = 6 body ")
    assert not out.exists()


@pytest.mark.parametrize("argv, option", [
    (["analyze", "--body", "{ball}", "--dirs", "0"], "--dirs: must be at least 1"),
    (["analyze", "--body", "{ball}", "--dirs", "-4"], "--dirs: must be at least 1"),
    (["analyze", "--body", "{ball}", "--seed", "-1"], "--seed: must be at least 0"),
    (["analyze", "--body", "{disk}", "--seed", "-1"], "--seed: must be at least 0"),
    (["verify", "--seed", "7"], "unrecognized arguments: --seed 7"),
    (["harmonics", "--seed", "-1"], "--seed: must be at least 0"),
    (["verify", "--num-xi", "4"], "unrecognized arguments: --num-xi 4"),
    (["verify", "--mc-samples", "300000"], "unrecognized arguments: --mc-samples 300000"),
    (["harmonics", "--num-xi", "11"], "--num-xi: must be at least 12"),
    (["analyze", "--body", "{ball}", "--sampler", "random"],
     "unrecognized arguments: --sampler random"),
    (["analyze", "--body", "{listed}"], "starsym: body spec field 'params' must be an object"),
    (["sections", "--body", "{ball}", "--kind", ","], "starsym: empty section kind list"),
    (["sections", "--body", "{ball}", "--formats", ","], "starsym: empty format list"),
    (["sections", "--body", "{ball}", "--xi", ","], "starsym: empty --xi"),
    (["sections", "--body", "{ball}", "--kind", "conical,conical"],
     "starsym: repeated section kind conical"),
    (["sections", "--body", "{ball}", "--kind", "hyperplane,conical,hyperplane"],
     "starsym: repeated section kind hyperplane"),
    (["sections", "--body", "{ball}", "--formats", "csv,csv"], "starsym: repeated format csv"),
    (["sections", "--body", "{ball}", "--formats", "svg,csv,svg,csv"],
     "starsym: repeated format svg, csv"),
], ids=["dirs_zero", "dirs_negative", "seed_n3", "seed_n2", "seed_verify",
        "seed_harmonics", "num_xi_verify", "mc_samples", "num_xi_harmonics", "sampler",
        "params_not_object", "kind_empty", "formats_empty", "xi_empty", "kind_repeated",
        "kind_repeated_apart", "formats_repeated", "formats_both_repeated"])
def test_refused_option_is_named_and_writes_nothing(tmp_path, capsys, argv, option):
    specs = {"ball": _spec(tmp_path, BALL),
             "disk": _spec(tmp_path, {"kind": "ball", "dim": 2,
                                      "params": {"radius": 1.0}}, "disk.json"),
             "listed": _spec(tmp_path, dict(BALL, params=[1.0]), "listed.json")}
    out = tmp_path / "out"
    assert main([a.format(**specs) for a in argv] + ["--out", str(out)]) == 2
    assert capsys.readouterr().err.rstrip().endswith(option)
    assert not out.exists()


@pytest.mark.parametrize("doc, field", [
    (dict(BALL, dim=3.7), "'dim'"),
    (dict(BALL, dim=2.9), "'dim'"),
    (dict(BALL, dim="3"), "'dim'"),
    (dict(BALL, dim=True), "'dim'"),
    ({"kind": "harmonic_ball", "dim": 3,
      "params": {"epsilon": 0.05, "degree": 2.7, "order": 1}}, "'params.degree'"),
    ({"kind": "harmonic_ball", "dim": 3,
      "params": {"epsilon": 0.05, "degree": 3, "order": "1"}}, "'params.order'"),
    ({"kind": "harmonic_ball", "dim": 3,
      "params": {"epsilon": 0.05, "degree": 3, "order": False}}, "'params.order'"),
], ids=["dim_float_up", "dim_float_down", "dim_string", "dim_bool", "degree_float",
        "order_string", "order_bool"])
def test_integer_spec_fields_are_not_truncated(tmp_path, capsys, doc, field):
    out = tmp_path / "out"
    assert main(["analyze", "--body", _spec(tmp_path, doc), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"starsym: body spec field {field} must be an integer\n"
    assert not out.exists()


# ---------------------------------------------------------------------------
# helpers


def _hex(values):
    return [float(v).hex() for v in values]


def _json_doc(path):
    # the document, after checking that its text is the standard encoder's
    # layout of itself: indent 2, insertion key order, shortest floats
    text = path.read_text()
    doc = json.loads(text)
    assert text == json.dumps(doc, indent=2) + "\n"
    return doc


def test_json_text_formatting(tmp_path, capsys):
    # the JSON artifacts are the standard encoder's text: indent 2, keys in
    # insertion order (not sorted), true and null for True and None
    spec = _spec(tmp_path, SHIFTED)
    out = tmp_path / "out"

    assert main(["analyze", "--body", spec, "--out", str(out), "--dirs", "8"]) == 0
    doc = _json_doc(out / "report.json")
    assert list(doc) == _REPORT_KEYS
    assert list(doc["parameters"]) == ["command", "seed", "resolution", "dim", "body",
                                       "dirs"]
    assert doc["parameters"]["body"] == SHIFTED

    only = ("rule_mass", "z0_coincidence", "n2_oracle")
    assert main(["verify", "--out", str(out), "--only", ",".join(only)]) == 0
    text = (out / "verify.json").read_text()
    assert '"all_pass": true' in text and '"resolution": null' in text
    doc = _json_doc(out / "verify.json")
    assert list(doc) == ["parameters", "checks", "num_fail", "all_pass"]
    assert doc["all_pass"] is True and doc["parameters"]["resolution"] is None
    assert [c["name"] for c in doc["checks"]] == list(only)
    capsys.readouterr()


def test_json_text_float_round_trip(tmp_path, capsys):
    # every float an artifact holds parses back, bit for bit, to the value
    # the library computes for the same command line
    spec = _spec(tmp_path, SHIFTED)
    out = tmp_path / "out"
    body = build_body(SHIFTED["kind"], SHIFTED["dim"], SHIFTED["params"])

    assert main(["analyze", "--body", spec, "--out", str(out), "--dirs", "8"]) == 0
    report = detect(body, num_dirs=8, seed=7)
    doc = _json_doc(out / "report.json")
    assert _hex([doc["max_abs_transform"], doc["l2_mean_transform"], doc["threshold"]]) \
        == _hex([report.max_abs, report.l2_mean, report.threshold])
    _, rows = _read_csv_rows(out / "values.csv")
    got = np.array([[float(x) for x in row.split(",")] for row in rows])
    want = np.column_stack([report.xis, report.values])
    assert _hex(got.ravel()) == _hex(want.ravel())

    assert main(["sections", "--body", spec, "--out", str(out), "--z=-0.4:0.4:0.2"]) == 0
    frame, rule = make_frame(np.eye(3)[-1]), equator_rule(3)
    zs = parse_z_values("-0.4:0.4:0.2")
    for kind in ("conical", "hyperplane"):
        records = _csv_records(out / "curves.csv", kind)
        slope = derivative_at_zero(kind, body, frame, rule).transform_value
        assert _hex(float(r["z"]) for r in records) == _hex(zs)
        assert _hex(float(r["value"]) for r in records) \
            == _hex(section_curve(kind, body, frame, zs, rule).values)
        assert _hex(float(r["slope_at_zero"]) for r in records) == _hex([slope] * zs.size)

    only = ("rule_mass", "z0_coincidence", "n2_oracle")
    assert main(["verify", "--out", str(out), "--only", ",".join(only)]) == 0
    doc = _json_doc(out / "verify.json")
    results = run_checks(only=only)
    assert [c["name"] for c in doc["checks"]] == list(only)
    for key in ("residual", "tolerance"):
        assert _hex(c[key] for c in doc["checks"]) == _hex(getattr(r, key) for r in results)

    assert main(["harmonics", "--out", str(out), "--dim", "4", "--lmax", "5"]) == 0
    table = multiplier_table(5, dim=4, num_xi=24, seed=7)
    rows = _multiplier_rows(out / "multipliers.csv")
    assert [int(r[0]) for r in rows] == list(table.degrees)
    for column, want in ((1, table.multipliers),
                         (2, [funk_hecke_multiplier(4, l) for l in table.degrees]),
                         (3, table.residuals)):
        assert _hex(r[column] for r in rows) == _hex(want)
    capsys.readouterr()


@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_analyze_non_finite_result_exits_2_and_writes_nothing(tmp_path, capsys,
                                                              monkeypatch, bad):
    # JSON has no inf or NaN: the run is refused before --out is created
    import starsym.cli as cli

    real = cli.detect
    monkeypatch.setattr(cli, "detect",
                        lambda *a, **k: dataclasses.replace(real(*a, **k), max_abs=bad))
    out = tmp_path / "out"
    assert main(["analyze", "--body", _spec(tmp_path, SHIFTED), "--out", str(out),
                 "--dirs", "8"]) == 2
    screen = capsys.readouterr()
    assert screen.out == "" and screen.err.startswith("starsym: ")
    assert not out.exists()


def test_parse_z_values():
    zs = parse_z_values("-0.8:0.8:0.1")
    assert len(zs) == 17
    assert zs[0] == pytest.approx(-0.8)
    assert zs[-1] == pytest.approx(0.8)
    assert np.all(np.diff(zs) > 0)
    assert np.allclose(parse_z_values("0.5,-0.2,0.1"), [-0.2, 0.1, 0.5])
    # sorted, one height per value: a repeated height, and -0.0 beside
    # +0.0, keep the height np.unique would keep, bit for bit
    for text in ("0.5,-0.2,0.5,0.1,-0.2", "-0.0,0.0", "0.0,-0.0,0.3,-0.0"):
        want = np.unique([float(p) for p in text.split(",")])
        assert parse_z_values(text).tobytes() == want.tobytes(), text
    # range points that miss z = 0 by roundoff are exactly +0.0
    for grid in ("-0.6:0.6:0.2", "-0.9:0.9:0.3"):
        zs = parse_z_values(grid)
        assert 0.0 in zs
        assert math.copysign(1.0, zs[zs == 0.0][0]) == 1.0
    for bad in ("0.5:0.1:0.1", "0:1:0", "", "a,b", "0:0.5:0.1:2"):
        with pytest.raises(ValueError):
            parse_z_values(bad)
    # the range a height must lie in is the section kind's, not the parser's
    assert np.array_equal(parse_z_values("0:1:0.5"), [0.0, 0.5, 1.0])
    assert np.array_equal(parse_z_values("1.5,-1.5"), [-1.5, 1.5])
    for bad in ("nan", "0.2,inf", "-inf:0:0.1", "0:nan:0.1", "0:1:inf"):
        with pytest.raises(ValueError, match="heights must be finite"):
            parse_z_values(bad)
    # a range's point count overflowed int() or allocated every point
    # (0:1:1e-12 asked for 7.28 TiB); at most 10000 points are taken
    assert len(parse_z_values("0:0.9999:1e-4")) == 10000
    for bad, count in (("0:1:1e-4", "10001"), ("0:1:1e-12", "1e+12"),
                       ("0:1e300:1e-300", "inf"), ("-1e308:1e308:1e-308", "inf")):
        with pytest.raises(ValueError, match=re.escape(f"z range has {count} points; at most")):
            parse_z_values(bad)


def test_sections_does_not_import_numpy_ma(tmp_path):
    # np.unique imports numpy.ma on first use, which a cold sections
    # process would pay for its height grid alone
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    code = ("import sys; from starsym.cli import main; "
            f"assert main(['sections', '--body', {_spec(tmp_path, BALL)!r}, "
            f"'--out', {str(tmp_path / 'out')!r}, '--z=0.5,-0.25,0.0,-0.0,0.5']) == 0; "
            "assert 'numpy.ma' not in sys.modules, 'numpy.ma imported'")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_build_body_kinds_and_errors():
    assert build_body("ball", 4, {"radius": 1.2}).dim == 4
    assert build_body("shifted_ball", 2,
                      {"radius": 1.0, "center": [0.1, 0.0]}).dim == 2
    assert build_body("ellipsoid", 3, {"semiaxes": [1.2, 1.0, 0.8]}).dim == 3
    assert build_body("harmonic_ball", 3,
                      {"epsilon": 0.05, "degree": 3, "order": 1}).dim == 3
    with pytest.raises(ValueError, match="unknown body kind"):
        build_body("torus", 3, {})
    with pytest.raises(ValueError, match="params.radius"):
        build_body("ball", 3, {})
    with pytest.raises(ValueError, match="unexpected body parameter"):
        build_body("ball", 3, {"radius": 1.0, "color": "red"})
    with pytest.raises(ValueError, match="dimension 3"):
        build_body("harmonic_ball", 2, {"epsilon": 0.05, "degree": 3, "order": 1})


def test_load_body_spec_errors(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    with pytest.raises(ValueError, match="invalid JSON"):
        load_body_spec(str(p))
    p.write_text(json.dumps([1, 2]))
    with pytest.raises(ValueError, match="must be a JSON object"):
        load_body_spec(str(p))
    p.write_text(json.dumps({"kind": "ball", "dim": 3}))
    with pytest.raises(ValueError, match="missing field 'params'"):
        load_body_spec(str(p))
    p.write_text(json.dumps(dict(BALL, extra=1)))
    with pytest.raises(ValueError, match="unexpected body spec field"):
        load_body_spec(str(p))


def test_svg_curves_direct():
    zs = np.linspace(-0.5, 0.5, 11)
    svg = svg_curves([("one", zs, 1.0 + zs ** 2), ("two", zs, 2.0 - zs)],
                     "demo")
    assert svg.count("<polyline") == 2
    assert ">demo</text>" in svg
    with pytest.raises(ValueError, match="degenerate"):
        svg_curves([("flat", np.array([0.0, 1.0]), np.array([0.0, 0.0]))], "t")
