import warnings
from dataclasses import replace

import numpy as np
import pytest

from agecurve import (
    AgeEffect,
    AttritionConfig,
    DgpConfig,
    EmptySampleError,
    HypothesisCheck,
    MediatorConfig,
    S_SHAPE,
    default_attrition_config,
    default_mediator_config,
    default_truncation_config,
    derive_replicate_seed,
    experiment_attrition,
    experiment_mediator,
    experiment_truncation,
    generate,
)
import replicate_path
from agecurve import simulate
from agecurve.simulate import _draw, _fit_replicates, _replicate_seeds
from record_path import rows


def is_subsequence(sub, full):
    iterator = iter(full)
    return all(any(item == candidate for candidate in iterator) for item in sub)


class TestReplicateSeeds:
    def test_contract(self):
        # pinned external contract: first uint64 word of the spawned
        # SeedSequence, so parallel runners can reproduce replicate i
        sequence = np.random.SeedSequence(42, spawn_key=(7,))
        expected = int(sequence.generate_state(1, dtype=np.uint64)[0])
        assert derive_replicate_seed(42, 7) == expected

    def test_distinct_and_deterministic(self):
        seeds = [derive_replicate_seed(0, i) for i in range(100)]
        assert len(set(seeds)) == 100
        assert seeds == [derive_replicate_seed(0, i) for i in range(100)]


class TestAgeEffect:
    def test_polynomial_values(self):
        effect = AgeEffect.cubic(1.0, -0.5, 0.25)
        np.testing.assert_allclose(
            effect.values(np.array([2.0])), [2.0 - 2.0 + 2.0]
        )

    def test_is_linear(self):
        assert AgeEffect.flat().is_linear
        assert AgeEffect(linear=0.3).is_linear
        assert not AgeEffect.quadratic(0.3, 0.01).is_linear

    def test_s_shape_landmarks(self):
        # derivative -1e-4 (a-45)(a-75): dip at 45, recovery peak at 75
        vals = {a: 9.0 + float(S_SHAPE.values(np.array([a]))[0]) for a in
                (15, 44, 45, 46, 74, 75, 76, 90)}
        assert vals[15] == pytest.approx(5.175)
        assert vals[45] == pytest.approx(2.925)
        assert vals[75] == pytest.approx(3.375)
        assert vals[90] == pytest.approx(2.925)
        assert vals[44] > vals[45] < vals[46]
        assert vals[74] < vals[75] > vals[76]


class TestConfigValidation:
    def test_dgp(self):
        with pytest.raises(ValueError):
            DgpConfig(n=0)
        with pytest.raises(ValueError):
            DgpConfig(age_low=10)
        with pytest.raises(ValueError):
            DgpConfig(age_low=60, age_high=50)
        with pytest.raises(ValueError):
            DgpConfig(noise_sd=0.0)
        with pytest.raises(ValueError):
            DgpConfig(rounds=())

    def test_mediator(self):
        with pytest.raises(ValueError):
            MediatorConfig(noise_sd=0.0)
        assert MediatorConfig(slope_age=0.5, slope_happiness=2.0, direct=0.1).total_effect == pytest.approx(1.1)

    def test_attrition(self):
        with pytest.raises(ValueError):
            AttritionConfig(strength=1.5)
        with pytest.raises(ValueError):
            AttritionConfig(knee=10)


class TestGenerate:
    def test_deterministic(self):
        config = DgpConfig(n=300, seed=5)
        assert rows(generate(config)) == rows(generate(config))

    def test_different_seeds_differ(self):
        a = generate(DgpConfig(n=300, seed=5))
        b = generate(DgpConfig(n=300, seed=6))
        assert rows(a) != rows(b)

    def test_population_bounds(self):
        survey = generate(DgpConfig(n=500, seed=1, age_low=20, age_high=55))
        assert len(survey) == 500
        assert np.all((20 <= survey.age) & (survey.age <= 55))
        assert np.array_equal(survey.period_year, 2000 + 2 * survey.round)
        assert np.all((1 <= survey.round) & (survey.round <= 8))

    def test_clamp_yields_survey_scale(self):
        survey = generate(DgpConfig(n=500, seed=2, clamp=True))
        assert np.array_equal(survey.happiness, np.trunc(survey.happiness))
        assert np.all((0 <= survey.happiness) & (survey.happiness <= 10))

    def test_period_and_cohort_effects_enter(self):
        config = DgpConfig(
            n=400, seed=3, noise_sd=1e-12, intercept=5.0,
            period_effect={2: 1.5}, rounds=(1, 2),
        )
        survey = generate(config)
        expected = 5.0 + np.where(survey.round == 2, 1.5, 0.0)
        assert survey.happiness.tolist() == pytest.approx(expected.tolist(), abs=1e-9)

        config = DgpConfig(
            n=400, seed=4, noise_sd=1e-12, intercept=5.0,
            cohort_effect={1960: -2.0},
        )
        survey = generate(config)
        in_cohort = (1960 <= survey.birth_year) & (survey.birth_year <= 1964)
        expected = 5.0 + np.where(in_cohort, -2.0, 0.0)
        assert survey.happiness.tolist() == pytest.approx(expected.tolist(), abs=1e-9)

    def test_mediator_channel(self):
        config = DgpConfig(
            n=600, seed=7,
            mediator=MediatorConfig(slope_age=0.5, slope_happiness=2.0, direct=0.1),
        )
        survey = generate(config)
        assert survey.mediator is not None and not np.isnan(survey.mediator).any()
        # removing the mediated and direct paths must leave pure noise
        residuals = survey.happiness - 7.0 - 2.0 * survey.mediator - 0.1 * survey.age
        assert abs(residuals.mean()) < 0.15
        assert np.std(residuals) == pytest.approx(1.0, abs=0.15)
        assert abs(np.corrcoef(residuals, survey.age)[0, 1]) < 0.1

    def test_mediator_does_not_perturb_base_draws(self):
        base = DgpConfig(n=400, seed=8)
        with_med = DgpConfig(n=400, seed=8, mediator=MediatorConfig())
        a, b = generate(base), generate(with_med)
        assert np.array_equal(a.age, b.age) and np.array_equal(a.round, b.round)

    def test_attrition_keeps_a_subset(self):
        base = default_attrition_config(seed=9, strength=0.0)
        full = generate(base)
        half = generate(default_attrition_config(seed=9, strength=0.5))
        certain = generate(default_attrition_config(seed=9, strength=1.0))
        assert len(certain) < len(half) < len(full) == base.n
        assert is_subsequence(rows(certain), rows(half))
        assert is_subsequence(rows(half), rows(full))

    def test_attrition_strength_zero_is_identity(self):
        with_zero = generate(default_attrition_config(seed=10, strength=0.0))
        cfg = default_attrition_config(seed=10, strength=0.0)
        without = generate(
            DgpConfig(
                n=cfg.n, seed=cfg.seed, intercept=cfg.intercept,
                age_effect=cfg.age_effect, attrition=None,
            )
        )
        assert rows(with_zero) == rows(without)

    def test_attrition_strength_one_truncates_noise(self):
        """At strength 1 every over-knee respondent with a negative
        stochastic draw is gone, so surviving draws follow a half-normal
        with mean sigma * sqrt(2/pi) ~ 0.7979."""
        config = default_attrition_config(seed=11, strength=1.0)
        survey = generate(config)
        old = survey.take(survey.age > 75)
        stochastic = old.happiness - 9.0 - S_SHAPE.values(old.age)
        assert stochastic.min() >= 0.0
        assert stochastic.mean() == pytest.approx(np.sqrt(2 / np.pi), abs=0.1)

    def test_below_knee_untouched(self):
        full = generate(default_attrition_config(seed=12, strength=0.0))
        attrited = generate(default_attrition_config(seed=12, strength=1.0))
        assert rows(full.take(full.age <= 75)) == rows(attrited.take(attrited.age <= 75))


def assert_same_survey(a, b):
    """Every column equal bit for bit, with the same dtype."""
    assert a.country_levels == b.country_levels
    names = ("country_codes", "round", "period_year", "age", "happiness", "weight", "birth_year")
    for name in names:
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), name
    assert (a.mediator is None) == (b.mediator is None)
    if a.mediator is not None:
        assert a.mediator.tobytes() == b.mediator.tobytes()
    assert a.controls.keys() == b.controls.keys()
    for name, (codes, levels) in a.controls.items():
        assert codes.tobytes() == b.controls[name][0].tobytes() and levels == b.controls[name][1]


class TestDraw:
    """``_draw`` gives the sample ``generate`` draws without attrition
    and the rows attrition drops from it; both match the generator as it
    was before ``_draw`` existed (``replicate_path.generate``)."""

    @pytest.mark.parametrize("strength", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("knee,mediator", [(75, None), (95, None), (60, MediatorConfig())])
    def test_matches_generate(self, strength, knee, mediator):
        config = replace(
            default_attrition_config(seed=21, strength=strength),
            n=3000, mediator=mediator, attrition=AttritionConfig(knee=knee, strength=strength),
        )
        full, drop = _draw(config)
        for generator in (generate, replicate_path.generate):
            assert_same_survey(full, generator(replace(config, attrition=None)))
            assert_same_survey(full if drop is None else full.take(~drop), generator(config))
        assert (drop is None) == (strength == 0.0)
        if drop is not None:
            # a knee above age_high (90) drops nobody
            assert drop.any() == (knee < config.age_high)
            assert not drop[full.age <= knee].any()

    def test_without_attrition(self):
        config = default_truncation_config(seed=3)
        full, drop = _draw(config)
        assert drop is None
        assert_same_survey(full, replicate_path.generate(config))


class TestExperiments:
    def test_mediator_small_run(self):
        config = default_mediator_config(seed=50)
        result = experiment_mediator(config, reps=8)
        assert result.passed
        assert result.n_reps == 8
        assert result.seeds == tuple(derive_replicate_seed(50, i) for i in range(8))
        assert set(result.estimates) == {
            "total_age_slope", "direct_age_slope", "mediator_coef"
        }
        assert result.targets["total_age_slope"] == pytest.approx(0.5)
        assert result.targets["direct_age_slope"] == pytest.approx(0.0)
        assert result.mc_mean["mediator_coef"] == pytest.approx(1.0, abs=0.05)
        assert "overall: PASS" in result.summary()

    def test_mediator_direct_path(self):
        config = DgpConfig(
            n=4000, seed=51,
            mediator=MediatorConfig(slope_age=0.5, slope_happiness=1.0, direct=0.02),
        )
        result = experiment_mediator(config, reps=8)
        assert result.targets["total_age_slope"] == pytest.approx(0.52)
        assert result.targets["direct_age_slope"] == pytest.approx(0.02)
        assert result.passed

    def test_mediator_requires_mediator(self):
        with pytest.raises(ValueError, match="mediator"):
            experiment_mediator(DgpConfig(n=100, seed=1), reps=2)

    def test_mediator_rejects_curved_truth(self):
        config = DgpConfig(
            n=100, seed=1, age_effect=AgeEffect.quadratic(-0.1, 0.001),
            mediator=MediatorConfig(),
        )
        with pytest.raises(ValueError, match="linear"):
            experiment_mediator(config, reps=2)

    def test_truncation_small_run(self):
        result = experiment_truncation(default_truncation_config(seed=52), reps=10)
        assert result.passed
        assert result.metrics["frac_capped_curvature_greater"] == 1.0
        assert result.mc_mean["capped_age_sq"] > result.mc_mean["full_age_sq"]

    def test_truncation_cap_must_bind(self):
        config = DgpConfig(n=200, seed=1, age_high=69)
        with pytest.raises(ValueError, match="cap"):
            experiment_truncation(config, reps=2)

    def test_truncation_cap_below_the_survey_minimum(self):
        with pytest.raises(ValueError) as raised:
            experiment_truncation(default_truncation_config(seed=1), reps=2, cap_age=14)
        assert type(raised.value) is ValueError
        assert str(raised.value) == "age_cap 14 below the survey minimum"

    def test_truncation_cap_below_every_age(self):
        config = replace(default_truncation_config(seed=1), n=300, age_low=30)
        with pytest.raises(EmptySampleError) as raised:
            experiment_truncation(config, reps=2, cap_age=20)
        assert str(raised.value) == "filter removed all 300 records"

    def test_attrition_small_run(self):
        result = experiment_attrition(default_attrition_config(seed=53), reps=6)
        assert result.passed
        assert set(result.estimates) == {"inflation:75-84", "inflation:85+"}
        for values in result.estimates.values():
            assert np.isfinite(values).all()
            assert (values > 0).all()

    def test_attrition_zero_strength_within_noise(self):
        result = experiment_attrition(
            default_attrition_config(seed=54, strength=0.0), reps=4
        )
        assert result.passed
        for values in result.estimates.values():
            np.testing.assert_allclose(values, 0.0, atol=1e-12)

    def test_attrition_requires_attrition(self):
        with pytest.raises(ValueError, match="attrition"):
            experiment_attrition(DgpConfig(n=100, seed=1), reps=2)

    def test_attrition_refuses_unreachable_late_bin(self):
        # no age above 84 is drawn, so the 85+ bin would be empty in every replicate
        config = replace(default_attrition_config(seed=56), n=2000, age_high=84)
        with pytest.raises(ValueError, match=r"\['85\+'\] begin above age_high 84"):
            experiment_attrition(config, reps=2)

    @pytest.mark.parametrize("reps", [2, 1])
    def test_attrition_names_replicates_without_the_bin(self, reps):
        # Ages stop at 85, so a replicate of 60 may draw no one into 85+:
        # with seed 2 the first replicate does, the second does not.
        config = replace(default_attrition_config(seed=2, strength=0.0), n=60, age_high=85)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = experiment_attrition(config, reps=reps)
        held, top = result.checks
        assert held.passed and "replicates" not in held.detail
        assert not top.passed
        assert top.detail.endswith(f"; 1 of {reps} replicates have no respondent in the bin")
        assert np.isnan(top.observed) == (reps == 1)
        assert np.isnan(result.mc_mean["inflation:85+"]) == (reps == 1)

    def test_attrition_counts_replicates_it_cannot_fit(self):
        # The third replicate's 85+ bin holds one respondent, whose bin
        # dummy is then collinear with the cohort dummies.
        config = replace(default_attrition_config(seed=4, strength=0.5), n=200, age_high=85)
        result = experiment_attrition(config, reps=4)
        assert not result.passed
        for check in result.checks:
            assert not check.passed
            assert check.detail.endswith("; 1 of 4 replicates could not be fitted")
        for values in result.estimates.values():
            assert np.isnan(values).tolist() == [False, False, True, False]

    def test_experiments_are_reproducible(self):
        a = experiment_truncation(default_truncation_config(seed=55), reps=3)
        b = experiment_truncation(default_truncation_config(seed=55), reps=3)
        for key in a.estimates:
            np.testing.assert_array_equal(a.estimates[key], b.estimates[key])

    def test_failed_check_fails_result(self):
        result = experiment_truncation(default_truncation_config(seed=56), reps=3)
        result.checks.append(
            HypothesisCheck(name="forced", passed=False, observed=0.0, target=1.0)
        )
        assert not result.passed
        assert "FAIL" in result.summary()


def assert_identical(a, b):
    """Two results equal in every field, bit for bit, NaN matching NaN."""
    assert (a.experiment, a.master_seed, a.n_reps, a.seeds) == (b.experiment, b.master_seed, b.n_reps, b.seeds)
    assert a.summary() == b.summary()
    for table in ("estimates", "targets", "mc_mean", "mc_sd", "metrics"):
        ours, theirs = getattr(a, table), getattr(b, table)
        assert list(ours) == list(theirs)
        for name in ours:
            assert np.array_equal(ours[name], theirs[name], equal_nan=True), (table, name)
    assert [(c.name, c.passed, c.detail) for c in a.checks] == [(c.name, c.passed, c.detail) for c in b.checks]
    for check, other in zip(a.checks, b.checks):
        assert np.array_equal([check.observed, check.target], [other.observed, other.target], equal_nan=True)


class TestChunks:
    """Replicates are fitted a chunk of ``simulate._CHUNK_ROWS`` rows at a
    time. With the budget made small, a run over three or more chunks
    gives the very result of a run in one chunk, so no replicate's fit
    depends on the replicates stacked with it."""

    def run_both(self, monkeypatch, experiment, config, reps, budget, chunks, **kwargs):
        seeds = _replicate_seeds(config.seed, reps)
        sizes = lambda: _fit_replicates(config, seeds, lambda survey, _: [len(survey.country_levels)])
        assert sizes() == [reps]
        whole = experiment(config, reps=reps, **kwargs)
        monkeypatch.setattr(simulate, "_CHUNK_ROWS", budget)
        assert len(sizes()) == chunks
        chunked = experiment(config, reps=reps, **kwargs)
        assert_identical(chunked, whole)
        return chunked

    def test_unfittable_replicate_in_a_middle_chunk(self, monkeypatch):
        # The third of four replicates, alone in the third chunk, has one
        # respondent in its 85+ bin and cannot be fitted.
        config = replace(default_attrition_config(seed=4, strength=0.5), n=200, age_high=85)
        result = self.run_both(monkeypatch, experiment_attrition, config, 4, 200, 4)
        for values in result.estimates.values():
            assert np.isnan(values).tolist() == [False, False, True, False]
        for check in result.checks:
            assert check.detail.endswith("; 1 of 4 replicates could not be fitted")

    def test_replicates_with_no_age_above_the_cap(self, monkeypatch):
        config = replace(default_truncation_config(seed=2), n=60, age_high=80)
        result = self.run_both(monkeypatch, experiment_truncation, config, 12, 240, 3, cap_age=79)
        full, capped = result.estimates["full_age_sq"], result.estimates["capped_age_sq"]
        uncapped = [
            not (generate(replace(config, seed=seed)).age > 79).any() for seed in result.seeds
        ]
        assert 0 < sum(uncapped) < 12 and (full == capped).tolist() == uncapped

    def test_pass_of_more_than_256_cells(self, monkeypatch):
        # One chunk of 160 replicates splits into 2 cells each, 320 in
        # all; a chunk of 60 holds 120. Keys formed from narrow codes
        # would wrap past 256 cells under numpy 1's value-based casting.
        config = replace(default_attrition_config(seed=9, strength=1.0), n=200)
        self.run_both(monkeypatch, experiment_attrition, config, 160, 200 * 60, 3)

    def test_mediator_across_chunks(self, monkeypatch):
        config = replace(default_mediator_config(seed=6), n=500)
        self.run_both(monkeypatch, experiment_mediator, config, 7, 1000, 4)


class TestReplicateErrors:
    """A mediator or truncation replicate whose fit fails raises that
    fit's error, the first such replicate's, as the per-replicate
    reference path does, however the replicates are chunked."""

    @pytest.mark.parametrize("per_chunk", [1, 6])
    @pytest.mark.parametrize("name,config", [
        # replicate 0 fits; replicate 1's age_sq is a linear function of age and the intercept
        ("truncation", replace(default_truncation_config(seed=3), n=10)),
        # ages 69 and 70 only: every full fit is rank deficient
        ("truncation", replace(default_truncation_config(seed=5), n=200, age_low=69, age_high=70)),
        # a mediator without noise is a multiple of age
        ("mediator", replace(default_mediator_config(seed=3), n=300, mediator=MediatorConfig(noise_sd=1e-12))),
        # a replicate of 9 rows that holds all 8 rounds has no residual degree of freedom
        ("mediator", replace(default_mediator_config(seed=3), n=9)),
    ], ids=["truncation-second", "truncation-every", "mediator-collinear", "mediator-no-dof"])
    def test_first_failing_replicate_raises(self, monkeypatch, name, config, per_chunk):
        monkeypatch.setattr(simulate, "_CHUNK_ROWS", per_chunk * config.n)
        errors = []
        for module in (simulate, replicate_path):
            with pytest.raises(ValueError) as raised:
                getattr(module, f"experiment_{name}")(config, reps=6)
            errors.append(raised.value)
        assert type(errors[0]) is type(errors[1]) and str(errors[0]) == str(errors[1])

    def test_a_later_replicate_fails_alone(self):
        config = replace(default_truncation_config(seed=3), n=10)
        experiment_truncation(config, reps=1)
        with pytest.raises(ValueError, match="rank deficient"):
            experiment_truncation(config, reps=2)
