"""CLI subcommands: exit codes, artifacts, and deterministic serialization."""

import json
import math
import re

import numpy as np
import pytest

from starsym.cli import (
    build_body,
    json_text,
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


def test_analyze_report_keys(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["analyze", "--body", _spec(tmp_path, SHIFTED), "--out", str(out),
                 "--dirs", "8"]) == 0
    capsys.readouterr()
    doc = json.loads((out / "report.json").read_text())
    assert list(doc) == ["parameters", "verdict", "note", "max_abs_transform",
                         "l2_mean_transform", "threshold", "num_dirs"]


def test_analyze_refuses_a_rule_past_the_node_cap(tmp_path, capsys):
    # resolution 66 in n = 6 is a rule of 66 * 33^3 = 2371842 nodes
    spec = _spec(tmp_path, {"kind": "ball", "dim": 6, "params": {"radius": 1.0}})
    out = tmp_path / "out"
    assert main(["analyze", "--body", spec, "--out", str(out), "--resolution", "66"]) == 2
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


# ---------------------------------------------------------------------------
# verify


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
    # the oblate ellipsoid's cut at 0.6 lies above its summit 0.5 and
    # below its radius_bound 1.2, so no certificate says it is empty
    spec = _spec(tmp_path, {"kind": "ellipsoid", "dim": 3,
                            "params": {"semiaxes": [1.2, 1.1, 0.5]}})
    out = tmp_path / "out"
    assert main(["sections", "--body", spec, "--out", str(out), "--z=0.6"]) == 2
    assert capsys.readouterr().err == (
        "starsym: the cut at z = 0.6 misses the body: rho(xi) = 0.5, rho(-xi) = 0.5, "
        "and no boundary point was found above height 0.5 on its side\n")
    assert not out.exists()


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


@pytest.mark.parametrize("argv, option", [
    (["analyze", "--body", "{ball}", "--dirs", "0"], "--dirs: must be at least 1"),
    (["analyze", "--body", "{ball}", "--dirs", "-4"], "--dirs: must be at least 1"),
    (["analyze", "--body", "{ball}", "--seed", "-1"], "--seed: must be at least 0"),
    (["analyze", "--body", "{disk}", "--seed", "-1"], "--seed: must be at least 0"),
    (["verify", "--seed", "-1"], "--seed: must be at least 0"),
    (["harmonics", "--seed", "-1"], "--seed: must be at least 0"),
    (["verify", "--num-xi", "0"], "--num-xi: must be at least 1"),
    (["verify", "--mc-samples", "999"], "--mc-samples: must be at least 1000"),
    (["harmonics", "--num-xi", "11"], "--num-xi: must be at least 12"),
    (["analyze", "--body", "{ball}", "--sampler", "random"],
     "unrecognized arguments: --sampler random"),
], ids=["dirs_zero", "dirs_negative", "seed_n3", "seed_n2", "seed_verify",
        "seed_harmonics", "num_xi_verify", "mc_samples", "num_xi_harmonics", "sampler"])
def test_refused_option_is_named_and_writes_nothing(tmp_path, capsys, argv, option):
    specs = {"ball": _spec(tmp_path, BALL),
             "disk": _spec(tmp_path, {"kind": "ball", "dim": 2,
                                      "params": {"radius": 1.0}}, "disk.json")}
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


def test_json_text_formatting():
    doc = {"b": 1, "a": [True, None, np.float64(0.5), np.int64(3)],
           "s": 'say "hi"'}
    text = json_text(doc)
    # insertion order, not sorted
    assert text.index('"b"') < text.index('"a"')
    assert '"say \\"hi\\""' in text
    assert "0.5" in text and "true" in text and "null" in text
    assert json.loads(text) == {"b": 1, "a": [True, None, 0.5, 3],
                                "s": 'say "hi"'}
    with pytest.raises(ValueError):
        json_text({"x": float("nan")})
    with pytest.raises(TypeError):
        json_text({"x": {1, 2}})


def test_json_text_float_round_trip():
    value = math.pi * 1e-7
    assert float(json.loads(json_text(value))) == value


def test_parse_z_values():
    zs = parse_z_values("-0.8:0.8:0.1")
    assert len(zs) == 17
    assert zs[0] == pytest.approx(-0.8)
    assert zs[-1] == pytest.approx(0.8)
    assert np.all(np.diff(zs) > 0)
    assert np.allclose(parse_z_values("0.5,-0.2,0.1"), [-0.2, 0.1, 0.5])
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
