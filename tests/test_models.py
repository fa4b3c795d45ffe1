import warnings

import numpy as np
import pytest

from agecurve import (
    AgeCurve,
    DesignError,
    EmptySampleError,
    FitResult,
    ModelSpec,
    PRESETS,
    Survey,
    adjusted_means,
    batch_fit,
    build_design,
    default_truncation_config,
    experiment_truncation,
    fit_spec,
    fit_wls,
    get_spec,
    predict_curve,
    quad_vertex,
)
from agecurve import models
from agecurve.models import terms_for
from conftest import FITTABLE, synth_rows, synth_survey


def few_rounds(label, n_periods):
    return (
        f"{label}: only {n_periods} distinct survey round(s); "
        "period and cohort factors have little leverage"
    )


def quad_fn(const, b_age, b_sq):
    return lambda a: const + b_age * a + b_sq * a * a


class TestSpecs:
    def test_presets_cover_battery(self):
        quads = [s for s in PRESETS.values() if s.form == "quadratic"]
        assert {(s.controls, s.age_cap) for s in quads} == {
            (True, 69), (False, 69), (False, None), (True, None)
        }
        assert PRESETS["ranges-coarse"].cohort_control
        assert PRESETS["ranges-fine"].scheme == "fine"

    def test_aliases(self):
        assert get_spec("bare-quadratic") is PRESETS["quad-nocontrols-nocap"]
        assert get_spec("controlled-quadratic") is PRESETS["quad-controls-cap"]

    def test_unknown_name(self):
        with pytest.raises(KeyError, match="known"):
            get_spec("cubic-everything")

    def test_validation(self):
        with pytest.raises(ValueError):
            ModelSpec(name="x", form="cubic")
        with pytest.raises(ValueError):
            ModelSpec(name="x", form="ranges", scheme="tiny")
        with pytest.raises(ValueError):
            ModelSpec(name="x", form="quadratic", age_cap=10)

    def test_terms_for(self):
        kinds = [t.kind for t in terms_for(PRESETS["quad-controls-cap"])]
        assert kinds == [
            "intercept", "age_linear", "age_squared", "period_factor",
            "control_factor", "control_factor", "control_factor", "control_factor",
        ]
        kinds = [t.kind for t in terms_for(PRESETS["ranges-fine"])]
        assert kinds == ["intercept", "age_bins", "period_factor", "cohort_factor"]


class TestFitSpec:
    def test_noiseless_quadratic_recovered(self):
        survey = synth_survey(
            n=400, seed=1, happiness_fn=quad_fn(8.0, -0.1, 0.001), noise_sd=0.0
        )
        fit = fit_spec(survey, get_spec("quad-nocontrols-nocap"))
        assert fit.coef("const") == pytest.approx(8.0, abs=1e-9)
        assert fit.coef("age") == pytest.approx(-0.1, abs=1e-11)
        assert fit.coef("age_sq") == pytest.approx(0.001, abs=1e-13)
        for label in fit.labels:
            if label.startswith("period:"):
                assert fit.coef(label) == pytest.approx(0.0, abs=1e-9)

    def test_age_cap_restricts_sample(self):
        survey = synth_survey(n=300, seed=2, with_controls=True)
        capped = fit_spec(survey, get_spec("quad-nocontrols-cap"))
        full = fit_spec(survey, get_spec("quad-nocontrols-nocap"))
        assert capped.n_obs < full.n_obs
        assert capped.n_obs == np.count_nonzero(survey.age <= 69)

    def test_controls_add_columns(self):
        survey = synth_survey(n=300, seed=3, with_controls=True)
        fit = fit_spec(survey, get_spec("quad-controls-nocap"))
        assert any(l.startswith("sex=") for l in fit.labels)
        assert any(l.startswith("education=") for l in fit.labels)

    def test_controls_without_data_is_empty_sample(self):
        survey = synth_survey(n=50, seed=4, with_controls=False)
        with pytest.raises(EmptySampleError):
            fit_spec(survey, get_spec("quad-controls-nocap"))

    def test_country_restriction(self):
        survey = synth_survey(
            dict(seed=5, country="AA"),
            dict(seed=6, country="BB", happiness_fn=lambda a: 3.0),
            n=100,
        )
        fit = fit_spec(survey, get_spec("quad-nocontrols-nocap"), country="BB")
        assert fit.n_obs == 100

    def test_single_round_refused_under_cohort_spec(self):
        survey = synth_survey(n=150, seed=19, rounds=(3,))
        for name in ("ranges-coarse", "ranges-fine"):
            with pytest.raises(DesignError, match="cohort-controlled fit skipped"):
                fit_spec(survey, get_spec(name))
        with pytest.raises(DesignError, match="cohort-controlled fit skipped"):
            adjusted_means(survey, "A", scheme="fine")

    def test_few_rounds_note(self):
        survey = synth_survey(n=120, seed=7, rounds=(1, 2))
        fit = fit_spec(survey, get_spec("quad-nocontrols-nocap"))
        assert fit.notes == (few_rounds("pooled sample", 2),)
        survey = synth_survey(n=120, seed=8, rounds=(1, 2, 3))
        assert fit_spec(survey, get_spec("quad-nocontrols-nocap")).notes == ()


class TestCurveHelpers:
    def fit_noiseless(self):
        survey = synth_survey(
            n=400, seed=9, happiness_fn=quad_fn(8.0, -0.1, 0.001), noise_sd=0.0
        )
        return fit_spec(survey, get_spec("quad-nocontrols-nocap"))

    def test_predict_curve_values(self):
        fit = self.fit_noiseless()
        curve = predict_curve(fit, [20, 50])
        assert curve[0] == (20, pytest.approx(6.4, abs=1e-9))
        assert curve[1] == (50, pytest.approx(5.5, abs=1e-9))

    def test_predict_standardizes_context(self):
        # period effects shift rounds apart; the curve must sit at the
        # weighted mix of rounds, not at the reference round's level
        bump = {1: 0.0, 2: 0.0, 3: 0.0, 4: 1.0}
        rows = synth_rows(n=500, seed=10, noise_sd=0.0)
        for row in rows:
            row["happiness"] = 7.0 + bump[row["round"]]
        survey = Survey.from_rows(rows)
        fit = fit_spec(survey, get_spec("quad-nocontrols-nocap"))
        share_r4 = np.count_nonzero(survey.round == 4) / len(survey)
        (_, value), = predict_curve(fit, [40])
        assert value == pytest.approx(7.0 + share_r4, abs=1e-8)

    def test_predict_requires_quadratic(self):
        survey = synth_survey(n=200, seed=11, rounds=(1, 2, 3))
        curve_fit = fit_spec(survey, get_spec("ranges-coarse"))
        with pytest.raises(ValueError, match="quadratic"):
            predict_curve(curve_fit, [40])

    def test_vertex(self):
        fit = self.fit_noiseless()
        assert quad_vertex(fit) == pytest.approx(50.0, abs=1e-6)

    def test_vertex_rejects_flat_curvature(self):
        flat = FitResult(
            labels=("const", "age", "age_sq"),
            coefficients=np.array([1.0, 0.5, 0.0]),
            std_errors=np.ones(3),
            t_stats=np.ones(3),
            covariance=np.eye(3),
            n_obs=10,
            dof=7,
            rank=3,
            weighted_rss=1.0,
            column_means=np.array([1.0, 40.0, 1800.0]),
        )
        with pytest.raises(ValueError, match="stationary"):
            quad_vertex(flat)


class TestAdjustedMeans:
    def test_single_round_no_cohort_equals_raw_bin_means(self):
        """With one round and no cohort factor nothing is adjusted for,
        so the curve must equal the raw weighted bin means exactly."""
        survey = synth_survey(
            n=500, seed=12, rounds=(1,), weights="random",
            happiness_fn=lambda a: 5.0 + (a >= 60) * 1.5, noise_sd=0.5,
        )
        spec = ModelSpec(name="raw", form="ranges", scheme="coarse")
        curve = adjusted_means(survey, "A", scheme="coarse", spec=spec)
        assert curve.notes == (few_rounds("A", 1),)
        from agecurve import age_bin_label

        bins = np.array([age_bin_label(age) for age in survey.age.tolist()])
        for bin_label in curve.bin_labels:
            w, h = survey.weight[bins == bin_label], survey.happiness[bins == bin_label]
            raw = sum((w * h).tolist()) / sum(w.tolist())
            assert curve.level(bin_label) == pytest.approx(raw, abs=1e-9)

    def test_missing_bin_noted_and_omitted(self):
        survey = synth_survey(n=200, seed=13, age_low=35, age_high=74)
        spec = ModelSpec(name="raw", form="ranges", scheme="coarse")
        curve = adjusted_means(survey, "A", scheme="coarse", spec=spec)
        assert curve.bin_labels == ("35-59", "60-74")
        assert curve.notes == (
            "A: no observations in bin 15-34; omitted from curve",
            "A: no observations in bin 75+; omitted from curve",
        )

    def test_fit_notes_precede_curve_notes(self):
        survey = synth_survey(n=300, seed=20, rounds=(1, 2), age_high=84)
        curve = adjusted_means(survey, "A", scheme="fine")
        assert curve.notes == (
            few_rounds("A", 2),
            "A: no observations in bin 85+; omitted from curve",
        )

    def test_scheme_spec_mismatch(self):
        survey = synth_survey(n=50, seed=14)
        with pytest.raises(ValueError, match="ranges"):
            adjusted_means(survey, "A", scheme="fine", spec=PRESETS["ranges-coarse"])

    def test_unknown_scheme_has_one_message(self):
        survey = synth_survey(n=50, seed=14)
        message = "unknown bin scheme 'Fine'; use 'coarse' or 'fine'"
        with pytest.raises(ValueError, match=message):
            adjusted_means(survey, "A", scheme="Fine")
        with pytest.raises(ValueError, match=message):
            ModelSpec(name="x", form="ranges", scheme="Fine")


class TestAgeCurve:
    def test_lookup(self):
        curve = AgeCurve("X", ("a", "b", "c"), (7.1, 6.9, 7.4))
        assert curve.level("b") == 6.9
        with pytest.raises(KeyError):
            curve.level("d")

    def test_validation(self):
        with pytest.raises(ValueError):
            AgeCurve("X", ("a",), (1.0, 2.0))
        with pytest.raises(ValueError):
            AgeCurve("X", (), ())


class TestBatchFit:
    def test_isolates_failures(self):
        survey = synth_survey(
            dict(seed=15, country="GOOD", rounds=(1, 2, 3, 4)),
            dict(seed=16, country="ONE", rounds=(2,)),
            n=150,
        )
        results = batch_fit(survey, PRESETS["ranges-coarse"])
        by_country = {r.country: r for r in results}
        assert [r.country for r in results] == ["GOOD", "ONE"]
        assert by_country["GOOD"].ok
        assert not by_country["ONE"].ok
        assert "cohort-controlled fit skipped" in by_country["ONE"].error

    def test_absent_country_reports_error(self):
        survey = synth_survey(n=80, seed=17, country="AA")
        results = batch_fit(
            survey, PRESETS["quad-nocontrols-nocap"], countries=["AA", "ZZ"]
        )
        assert results[0].ok
        assert not results[1].ok and results[1].error == "country 'ZZ' not in the survey"

    def test_fit_notes_become_result_notes(self):
        survey = synth_survey(n=150, seed=18, country="TWO", rounds=(1, 2))
        results = batch_fit(survey, PRESETS["quad-nocontrols-nocap"])
        (res,) = results
        assert res.ok
        assert res.notes == [few_rounds("TWO", 2)]

    def test_country_without_rows_is_not_listed(self):
        """A survey whose rows of one country were all taken away, and
        the others reordered, fits as one built from the same rows."""
        parts = [dict(seed=22, country="AA"), dict(seed=23, country="BB"),
                 dict(seed=24, country="CC", age_low=70)]
        rows = [r for part in parts for r in synth_rows(n=120, **part, **FITTABLE)]
        index = [j for j, r in enumerate(rows) if r["country"] == "CC"]
        index += [j for j, r in enumerate(rows) if r["country"] == "AA"][::-1]
        taken = Survey.from_rows(rows).take(index)
        fresh = Survey.from_rows(rows[j] for j in index)
        assert taken.country_levels == ("AA", "BB", "CC")
        for spec in PRESETS.values():
            for countries in (None, ["BB", "AA", "CC"]):
                got = batch_fit(taken, spec, countries)
                expected = batch_fit(fresh, spec, countries)
                assert [r.country for r in got] == [r.country for r in expected]
                for new, old in zip(got, expected):
                    assert (new.error, new.notes) == (old.error, old.notes)
                    if old.ok:
                        assert new.fit.labels == old.fit.labels
                        for name in ("coefficients", "std_errors", "covariance", "column_means"):
                            assert np.array_equal(getattr(new.fit, name), getattr(old.fit, name))
        assert [r.country for r in batch_fit(taken, PRESETS["ranges-fine"])] == ["CC", "AA"]
        assert batch_fit(taken, PRESETS["quad-controls-cap"])[0].error == (
            "filter removed all 120 records"
        )
        assert batch_fit(taken, PRESETS["ranges-fine"], ["BB"])[0].error == (
            "country 'BB' not in the survey"
        )

    def test_specs_share_the_survey_country_counts(self, monkeypatch):
        """The first fit by country counts each country's rows and finds
        its first row; a later spec on the same survey reads both."""
        survey = synth_survey(dict(seed=25, country="BB"), dict(seed=26, country="AA"), n=80)
        counted = models._SpecFits(survey, PRESETS["quad-controls-cap"], False)
        sorts = []
        argsort = np.argsort
        monkeypatch.setattr(np, "argsort", lambda *a, **k: sorts.append(a) or argsort(*a, **k))
        again = models._SpecFits(survey, PRESETS["ranges-fine"], False)
        assert sorts == []
        assert again.index is counted.index and again.rows is counted.rows
        assert list(again.index) == ["BB", "AA"]
        assert [r.rows_in for r in batch_fit(survey, PRESETS["ranges-fine"])] == [80, 80]

    def test_warnings_reach_the_caller(self, monkeypatch):
        """A warning raised inside a fit is the caller's to handle, not
        a note."""
        solve = models._csne

        def warning_solve(*args, **kwargs):
            warnings.warn("overflow in a design column", RuntimeWarning)
            return solve(*args, **kwargs)

        monkeypatch.setattr(models, "_csne", warning_solve)
        survey = synth_survey(n=150, seed=21, country="AA", rounds=(1, 2, 3))
        with pytest.warns(RuntimeWarning, match="overflow in a design column"):
            results = batch_fit(survey, PRESETS["quad-nocontrols-nocap"])
        (res,) = results
        assert res.ok
        assert res.notes == []


class TestRecordIdentity:
    """The records that hold arrays compare and hash by identity, as
    ``Survey`` does: ``==`` never compares their arrays, so it never
    raises, and each can key a dict or join a set."""

    survey = synth_survey(n=150, seed=22, country="AA", rounds=(1, 2, 3))
    spec = PRESETS["quad-nocontrols-nocap"]

    @pytest.mark.parametrize(
        "make",
        [
            lambda s, spec: build_design(s, terms_for(spec)),
            lambda s, spec: fit_wls(build_design(s, terms_for(spec))),
            lambda s, spec: fit_spec(s, spec, "AA"),
            lambda s, spec: experiment_truncation(default_truncation_config(), reps=2),
        ],
        ids=["DesignMatrix", "FitResult from fit_wls", "FitResult from fit_spec", "SimResult"],
    )
    def test_equal_records_are_distinct(self, make):
        first, second = make(self.survey, self.spec), make(self.survey, self.spec)
        assert first == first and first != second
        assert len({first, second, first}) == 2

    def test_batch_fit_results_compare_without_raising(self):
        assert batch_fit(self.survey, self.spec) != batch_fit(self.survey, self.spec)
