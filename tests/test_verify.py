"""The named-check registry: green at defaults, honest under coarsening."""

import pytest

from starsym import VerifyConfig, check_names, equator_rule, run_checks


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
    with pytest.raises(ValueError):
        VerifyConfig(num_xi=0)
    with pytest.raises(ValueError):
        VerifyConfig(mc_samples=100)
    cfg = VerifyConfig(resolution=32)
    assert equator_rule(3, cfg.resolution).resolution == 32
    assert equator_rule(2, VerifyConfig().resolution).resolution == 2
