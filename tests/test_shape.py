import math

import pytest
from hypothesis import given, strategies as st

from agecurve import (
    AgeCurve,
    classify_curve,
    depth,
    detect_quad,
    detect_quad_values,
    detect_ranges_values,
    fit_spec,
    get_spec,
    reduction,
    reduction_values,
)
from conftest import synth_survey


class TestQuadRule:
    def test_clear_ushape(self):
        verdict = detect_quad_values("X", -0.1, 12.0, 0.001, 10.0)
        assert verdict.is_ushape and verdict.rule == "quad_t15"

    def test_wrong_signs(self):
        assert not detect_quad_values("X", 0.1, 12.0, 0.001, 10.0).is_ushape
        assert not detect_quad_values("X", -0.1, 12.0, -0.001, 10.0).is_ushape

    def test_weak_t(self):
        assert not detect_quad_values("X", -0.1, 1.5, 0.001, 10.0).is_ushape
        assert not detect_quad_values("X", -0.1, 1.51, 0.001, 1.49).is_ushape

    def test_negative_t_treated_as_absolute(self):
        verdict = detect_quad_values("X", -0.1, -12.0, 0.001, -10.0)
        assert verdict.is_ushape
        assert verdict.evidence["t_age"] == 12.0

    def test_verdict_recomputable_from_evidence(self):
        verdict = detect_quad_values("X", -0.1, 2.0, 0.001, 1.6)
        e = verdict.evidence
        recomputed = (
            e["coef_age"] < 0
            and e["coef_age_sq"] > 0
            and e["t_age"] > e["threshold"]
            and e["t_age_sq"] > e["threshold"]
        )
        assert recomputed == verdict.is_ushape

    def test_on_fitted_model(self):
        survey = synth_survey(
            n=2000, seed=30,
            happiness_fn=lambda a: 8.0 - 0.1 * a + 0.001 * a * a,
            noise_sd=0.3,
        )
        fit = fit_spec(survey, get_spec("quad-nocontrols-nocap"))
        assert detect_quad(fit, "SYN").is_ushape


class TestRangeRule:
    def test_positive_ends(self):
        assert detect_ranges_values("X", 0.2, 3.0, 0.3, 2.0).is_ushape

    def test_fails_on_any_weak_end(self):
        assert not detect_ranges_values("X", 0.2, 0.9, 0.3, 2.0).is_ushape
        assert not detect_ranges_values("X", 0.2, 3.0, -0.3, 2.0).is_ushape
        assert not detect_ranges_values("X", 0.2, 3.0, 0.3, 1.0).is_ushape


class TestReduction:
    def test_signed_percentages(self):
        assert reduction_values("age", -0.10, -0.02).percent_reduction == pytest.approx(80.0)
        assert reduction_values("age", -0.10, -0.10).percent_reduction == pytest.approx(0.0)
        assert reduction_values("age", -0.10, -0.15).percent_reduction == pytest.approx(-50.0)

    def test_cross_zero_exceeds_100(self):
        change = reduction_values("age_sq", 0.0005, -0.000004)
        assert change.percent_reduction == pytest.approx(100.8)
        assert change.sign_flipped

    def test_zero_baseline_undefined(self):
        change = reduction_values("age", 0.0, 0.01)
        assert change.percent_reduction is None
        assert not change.sign_flipped

    def test_exact_zero_new(self):
        change = reduction_values("age", -0.1, 0.0)
        assert change.percent_reduction == pytest.approx(100.0)
        assert not change.sign_flipped

    @given(
        old=st.floats(-10, 10).filter(lambda v: abs(v) > 1e-6),
        new=st.floats(-10, 10),
    )
    def test_percentage_inverts(self, old, new):
        change = reduction_values("x", old, new)
        recovered = old * (1.0 - change.percent_reduction / 100.0)
        assert math.isclose(recovered, new, rel_tol=1e-9, abs_tol=1e-9)
        assert change.sign_flipped == (old * new < 0)

    def test_reduction_from_fits(self):
        survey = synth_survey(
            n=1500, seed=31, with_controls=True,
            happiness_fn=lambda a: 8.0 - 0.1 * a + 0.001 * a * a,
            noise_sd=0.5,
        )
        bare = fit_spec(survey, get_spec("quad-nocontrols-nocap"))
        controlled = fit_spec(survey, get_spec("quad-controls-nocap"))
        report = reduction(bare, controlled)
        assert {c.label for c in report.changes} == {"age", "age_sq"}
        assert report["age"].old == bare.coef("age")
        assert report["age"].new == controlled.coef("age")
        with pytest.raises(KeyError):
            report["const"]


class TestDepth:
    def test_extremes_and_ties(self):
        curve = AgeCurve(
            "X",
            ("15-24", "25-34", "35-44", "45-54"),
            (7.4, 7.1, 7.1, 7.4),
        )
        report = depth(curve)
        assert report.max_level == 7.4 and report.min_level == 7.1
        assert report.difference == pytest.approx(0.3)
        assert report.max_bins == ("15-24", "45-54")
        assert report.min_bins == ("25-34", "35-44")

    def test_difference_consistency(self):
        curve = AgeCurve("X", ("a", "b"), (6.95, 7.43))
        report = depth(curve)
        assert report.difference == report.max_level - report.min_level


FINE = ("15-24", "25-34", "35-44", "45-54", "55-64", "65-74", "75-84", "85+")


def fine_curve(levels):
    return AgeCurve("X", FINE, tuple(levels))


class TestCurveHeuristic:
    def test_textbook_ushape(self):
        curve = fine_curve([7.3, 7.2, 7.0, 6.9, 7.0, 7.2, 7.4, 7.3])
        verdict = classify_curve(curve)
        assert verdict.is_ushape
        assert verdict.evidence["min_bin"] == "45-54"

    def test_minimum_outside_midlife(self):
        rising = fine_curve([6.5, 6.7, 6.9, 7.0, 7.1, 7.2, 7.3, 7.4])
        assert not classify_curve(rising).is_ushape
        falling = fine_curve([7.4, 7.3, 7.2, 7.1, 7.0, 6.9, 6.8, 6.5])
        assert not classify_curve(falling).is_ushape

    def test_flat_start_allowed(self):
        curve = fine_curve([7.0, 6.98, 6.95, 6.95, 7.0, 7.1, 7.3, 7.2])
        verdict = classify_curve(curve)
        assert verdict.is_ushape  # start within epsilon of the minimum

    def test_insufficient_rise(self):
        curve = fine_curve([7.3, 7.1, 7.0, 6.95, 6.98, 7.0, 7.02, 7.01])
        assert not classify_curve(curve).is_ushape

    def test_first_minimum_wins_ties(self):
        curve = fine_curve([7.3, 6.9, 6.9, 6.9, 7.0, 7.2, 7.3, 7.2])
        verdict = classify_curve(curve)
        # tied minimum resolves to 25-34, which is outside midlife
        assert verdict.evidence["min_bin"] == "25-34"
        assert not verdict.is_ushape

    def test_epsilon_override(self):
        curve = fine_curve([7.3, 7.1, 7.0, 6.95, 6.98, 7.0, 7.02, 7.01])
        assert classify_curve(curve, rise_epsilon=0.05).is_ushape
