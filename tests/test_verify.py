"""The named-check registry: green at defaults, honest under coarsening."""

import json
import math

import pytest

from starsym import VerifyConfig, check_names, equator_rule, run_checks
from starsym import harmonics, slice_transforms, symmetry_detector, verify
from starsym.cli import main

POISONED = ("xi_oddness", "odd_part", "rotation", "scaling", "even_annihilation")


def test_all_checks_pass_at_defaults():
    results = run_checks()
    failed = [r.name for r in results if not r.passed]
    assert failed == [], failed
    assert len(results) == len(check_names())


def test_coarse_resolution_fails_exactly_the_slope_check():
    # an 8-node rule cannot integrate the strongly shifted test body's
    # equator content; the slope comparison must surface that while the
    # structural identities, which hold at any fixed rule, stay green
    results = run_checks(VerifyConfig(resolution=8))
    failed = sorted(r.name for r in results if not r.passed)
    assert failed == ["slope_agreement"]
    bad = next(r for r in results if r.name == "slope_agreement")
    assert bad.residual > bad.tolerance


def test_only_filter_runs_requested_checks_in_order():
    results = run_checks(only=("detector", "rule_mass"))
    assert [r.name for r in results] == ["detector", "rule_mass"]
    assert all(r.passed for r in results)


def test_unknown_check_name_raises():
    with pytest.raises(ValueError, match="unknown check name"):
        run_checks(only=("rule_mass", "bogus"))


@pytest.mark.parametrize("only", [(), []])
def test_empty_selection_raises(only):
    with pytest.raises(ValueError, match="no check names given; known: rule_mass, "):
        run_checks(only=only)


def test_check_names_exposes_registry():
    names = check_names()
    assert "slope_agreement" in names
    assert "mc_agreement" in names
    assert len(names) == len(set(names))


def test_result_records_are_well_formed():
    for r in run_checks(only=("rule_mass", "majorant", "lambda1")):
        assert isinstance(r.name, str)
        assert isinstance(r.passed, bool)
        assert r.residual <= r.tolerance or not r.passed
        assert r.detail


def test_config_validation():
    with pytest.raises(ValueError):
        VerifyConfig(resolution=1)
    # the n = 6 rule of rule_mass caps the resolution at 64
    with pytest.raises(ValueError, match="2371842 nodes; at most 2097152"):
        VerifyConfig(resolution=66)
    with pytest.raises(ValueError):
        VerifyConfig(num_xi=0)
    with pytest.raises(ValueError):
        VerifyConfig(mc_samples=100)
    cfg = VerifyConfig(resolution=32)
    assert equator_rule(3, cfg.resolution).resolution == 32
    assert equator_rule(2, VerifyConfig().resolution).resolution == 2


def _poison_n2_sweeps(monkeypatch):
    # every n = 2 pole sweep of the checks carries one NaN value
    sweep = verify.transform_sweep

    def poisoned(f, frames, rule):
        values = sweep(f, frames, rule)
        if f.dim == 2:
            values[0] = math.nan
        return values

    monkeypatch.setattr(verify, "transform_sweep", poisoned)


def test_nan_residual_fails_its_check(monkeypatch):
    _poison_n2_sweeps(monkeypatch)
    results = run_checks(only=POISONED)
    assert [r.name for r in results] == list(POISONED)
    for r in results:
        assert not r.passed, r.name
        assert math.isnan(r.residual), r.name


def test_verify_writes_nan_residual_as_null(monkeypatch, tmp_path, capsys):
    _poison_n2_sweeps(monkeypatch)
    out = tmp_path / "out"
    assert main(["verify", "--only", "xi_oddness", "--out", str(out)]) == 1
    assert "FAIL xi_oddness" in capsys.readouterr().out
    doc = json.loads((out / "verify.json").read_text())
    assert doc["checks"][0]["residual"] is None
    assert doc["checks"][0]["passed"] is False
    assert doc["all_pass"] is False


def test_run_checks_completes_each_pole_frame_once(monkeypatch):
    # each dimension's verify poles are completed once and shared; the
    # remaining completions are majorant's seeded poles, n2_oracle's
    # per-field poles, the multiplier table's and the detector's pole
    # sets, mc_agreement's two poles, and the negated (xi_oddness) and
    # rotated (rotation) poles that the sweeps complete themselves
    calls = []
    make_frame = verify.make_frame

    def counted(*args, **kwargs):
        calls.append(1)
        return make_frame(*args, **kwargs)

    for module in (verify, slice_transforms, symmetry_detector, harmonics):
        monkeypatch.setattr(module, "make_frame", counted)
    verify._frames.cache_clear()
    verify._table.cache_clear()
    results = run_checks()
    assert all(r.passed for r in results)
    assert 0 < len(calls) <= 170


def test_check_that_measures_nothing_fails(monkeypatch):
    monkeypatch.setattr(verify, "_CHECKS", dict(verify._CHECKS))
    verify._check("measures_nothing", 1.0, "yields no residual", dims=())(
        lambda cfg, n: iter(()))
    (r,) = run_checks(only=("measures_nothing",))
    assert not r.passed
    assert math.isnan(r.residual)
    assert r.detail == "no residual measured"



@pytest.mark.parametrize("resolution", [None, 8, 64])
def test_pointwise_rules_cap_their_node_count(resolution):
    # set_identity and tail_term halve the resolution until the rule has
    # at most 2048 nodes; a cap of 64 on the resolution itself left the
    # default 8192-node rules of n = 5, 6 whole
    cfg = VerifyConfig(resolution=resolution)
    for n in range(2, 7):
        full = equator_rule(n, resolution)
        rule = verify._pointwise_rule(n, cfg)
        assert rule.size <= 2048
        if full.size <= 2048:
            assert rule.resolution == full.resolution
        else:
            assert equator_rule(n, 2 * rule.resolution).size > 2048
    if resolution is None:
        assert [verify._pointwise_rule(n, cfg).size for n in (5, 6)] == [1024, 512]
