"""Acceptance battery.

One test per headline criterion, in order. Each prints a single PASS or FAIL
line (visible under ``pytest -s`` or in the captured output of a failure) and
then asserts the criterion outcome, so a red test here is a real negative
result, not a harness problem. Criterion functions live in
``condlab.theorems`` and carry their own evidence in the ``details`` field.
"""

from condlab.theorems import (
    criterion_1,
    criterion_2,
    criterion_3,
    criterion_4,
    criterion_5,
    criterion_6,
    criterion_7,
    criterion_8,
    criterion_9,
    criterion_10,
    criterion_11,
)


def report(result):
    status = "PASS" if result["ok"] else "FAIL"
    line = f"[criterion {result['criterion']}] {status}: {result['title']}"
    analysis = result["details"].get("analysis")
    if analysis:
        line += f" ({analysis})"
    print(line)
    return result


def test_criterion_01_grid_mixtures_satisfy_axioms():
    result = report(criterion_1())
    assert result["ok"], result["details"]


def test_criterion_02_probe_recovers_coefficients():
    result = report(criterion_2())
    assert result["ok"], result["details"]


def test_criterion_03_signed_mixture_on_even_electorate():
    result = report(criterion_3())
    assert result["ok"], result["details"]


def test_criterion_04_tiebreaking_variant():
    result = report(criterion_4())
    assert result["ok"], result["details"]


def test_criterion_05_dictatorial_weight_linear_in_blend():
    result = report(criterion_5())
    assert result["ok"], result["details"]


def test_criterion_06_profile_beyond_unilateral_reach():
    result = report(criterion_6())
    assert result["ok"], result["details"]


def test_criterion_06_analysis_follows_the_search():
    details = criterion_6(2, 3)["details"]
    assert details["searched"] == 36 and details["found"] == 0
    assert "all 36 profiles of 2 voters" in details["analysis"]


def test_criterion_07_group_violation_matches_stated_pattern():
    result = report(criterion_7())
    assert result["ok"], result["details"]


def test_criterion_08_no_extension_is_strategyproof():
    result = report(criterion_8())
    assert result["ok"], result["details"]


def test_criterion_09_lottery_comparison_consistency():
    result = report(criterion_9())
    assert result["ok"], result["details"]


def test_criterion_10_catalog_axiom_implications():
    result = report(criterion_10())
    assert result["ok"], result["details"]


def test_criterion_11_gamma_matches_probe():
    result = report(criterion_11())
    assert result["ok"], result["details"]
