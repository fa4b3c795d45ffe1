"""The Monte Carlo experiments against the per-sample reference in
``replicate_path.py``.

The package draws each replicate once and fits the replicates of a
chunk as the countries of one stacked survey, from one pass and one
stacked solve: the mediator's two models are two views of that pass,
the capped sample shares the full one's quadratic pass, and the
attrited sample is a cell of the full one's ranges pass. The reference
fits every replicate on its own: the mediator through one dense design
with the mediator column appended and two ``fit_wls`` calls, the other
samples each encoded and fitted alone, the attrited one drawn a second
time. Random configurations run through both, with sample sizes from 60
to 5000, caps other than 69, knees above and below the oldest age,
strengths 0, 0.3 and 1, and mediator slopes, direct paths and noise of
either sign and size. For every replicate the two must give estimates
within 1e-10 relative, the same NaN pattern, the same counts of
replicates with no respondent in a bin and of replicates that could not
be fitted, and identical check names, verdicts and details. A
configuration that one path refuses the other refuses with an error of
the same class; a rank-deficient fit names the same columns on both.
Only an empty capped sample is worded differently: ``filter removed all
N records`` from the spec's filter against ``cannot build a design from
zero records`` from the old design build.
"""

from __future__ import annotations

import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import replicate_path
from agecurve import EmptySampleError, simulate
from agecurve.simulate import (
    S_SHAPE,
    AgeEffect,
    AttritionConfig,
    DgpConfig,
    MediatorConfig,
    default_attrition_config,
    default_mediator_config,
    default_truncation_config,
)

REL = 1e-10
# two rounds leave period and cohort factors little leverage; under one
# the cohort-controlled attrition fit is refused
ROUNDS = st.sampled_from(((1, 2, 3, 4, 5, 6, 7, 8),) * 4 + ((3, 5), (2,)))
# small samples, where bins empty and designs lose rank, drawn as often as large ones
SIZES = st.one_of(st.integers(min_value=60, max_value=400), st.integers(min_value=60, max_value=5000))
GAPS = re.compile(r"(\d+) of \d+ replicates (have no respondent in the bin|could not be fitted)")


def outcome(func, *args, **kwargs):
    """``(result, None)`` or ``(None, the error)``."""
    try:
        return func(*args, **kwargs), None
    except ValueError as exc:
        return None, exc


def _close(actual, expected, scale=0.0):
    """Equal NaN patterns and the other values within ``REL`` relative,
    or ``REL * scale`` absolute."""
    actual, expected = np.asarray(actual, float), np.asarray(expected, float)
    nan = np.isnan(expected)
    assert np.array_equal(np.isnan(actual), nan)
    np.testing.assert_allclose(actual[~nan], expected[~nan], rtol=REL, atol=REL * scale)


def assert_same_outcome(new, old):
    (result, error), (expected, expected_error) = new, old
    if expected_error is not None:
        assert type(error) is type(expected_error)
        if not isinstance(expected_error, EmptySampleError):
            assert str(error) == str(expected_error)
        return
    assert error is None, error
    assert (result.experiment, result.master_seed, result.n_reps, result.seeds) == (
        expected.experiment, expected.master_seed, expected.n_reps, expected.seeds,
    )
    assert list(result.estimates) == list(expected.estimates)
    for name, values in expected.estimates.items():
        _close(result.estimates[name], values)
    # Means, spreads and differences of estimates are exact to a share of
    # the estimates' size, not of their own.
    scale = max((np.nanmax(np.abs(v), initial=0.0) for v in expected.estimates.values()), default=0.0)
    for table in ("targets", "mc_mean", "mc_sd", "metrics"):
        ours, theirs = getattr(result, table), getattr(expected, table)
        assert list(ours) == list(theirs)
        _close(list(ours.values()), list(theirs.values()), scale)
    assert len(result.checks) == len(expected.checks)
    for check, reference in zip(result.checks, expected.checks):
        assert (check.name, check.passed, check.detail) == (
            reference.name, reference.passed, reference.detail,
        )
        assert GAPS.findall(check.detail) == GAPS.findall(reference.detail)
        _close([check.observed, check.target], [reference.observed, reference.target], scale)
    assert result.passed == expected.passed


def both(name, *args, **kwargs):
    """The outcomes of experiment ``name`` in the package and in the
    reference."""
    return tuple(
        outcome(getattr(module, f"experiment_{name}"), *args, **kwargs)
        for module in (simulate, replicate_path)
    )


@st.composite
def truncation_runs(draw):
    cap = draw(st.one_of(st.just(69), st.integers(min_value=15, max_value=99)))
    age_high = draw(st.integers(min_value=cap + 1, max_value=100))
    config = DgpConfig(
        n=draw(SIZES),
        seed=draw(st.integers(min_value=0, max_value=2**32 - 1)),
        age_high=age_high,
        intercept=9.0,
        age_effect=S_SHAPE,
        rounds=draw(ROUNDS),
    )
    return config, draw(st.integers(min_value=1, max_value=3)), cap


@st.composite
def attrition_runs(draw):
    knee = draw(st.integers(min_value=15, max_value=88))
    config = DgpConfig(
        n=draw(SIZES),
        seed=draw(st.integers(min_value=0, max_value=2**32 - 1)),
        age_high=draw(st.integers(min_value=85, max_value=100)),
        intercept=9.0,
        age_effect=S_SHAPE,
        rounds=draw(ROUNDS),
        attrition=AttritionConfig(knee=knee, strength=draw(st.sampled_from((0.0, 0.3, 1.0)))),
    )
    return config, draw(st.integers(min_value=1, max_value=3))


@st.composite
def mediator_runs(draw):
    slopes = st.floats(min_value=-2.0, max_value=2.0)
    config = DgpConfig(
        n=draw(SIZES),
        seed=draw(st.integers(min_value=0, max_value=2**32 - 1)),
        age_high=draw(st.integers(min_value=30, max_value=100)),
        age_effect=AgeEffect(linear=draw(st.floats(min_value=-0.1, max_value=0.1))),
        rounds=draw(ROUNDS),
        mediator=MediatorConfig(
            slope_age=draw(slopes),
            slope_happiness=draw(slopes),
            direct=draw(st.floats(min_value=-0.1, max_value=0.1)),
            noise_sd=draw(st.floats(min_value=0.1, max_value=3.0)),
        ),
    )
    return config, draw(st.integers(min_value=2, max_value=4))


@given(mediator_runs())
@settings(max_examples=40, deadline=None)
def test_mediator_matches_reference(run):
    config, reps = run
    assert_same_outcome(*both("mediator", config, reps=reps))


@pytest.mark.parametrize("config,reps", [
    (default_mediator_config(seed=101), 6),
    (replace(default_mediator_config(seed=8), mediator=MediatorConfig(direct=0.02)), 5),
    (replace(default_mediator_config(seed=3), n=80, rounds=(4,)), 3),  # one period level
    (replace(default_mediator_config(seed=3), age_effect=AgeEffect(squared=1e-3)), 3),  # refused
    (DgpConfig(n=100, seed=1), 3),  # refused: no mediator
    (default_mediator_config(seed=3), 1),  # refused: one replicate
], ids=["default", "direct-path", "one-round", "curved", "no-mediator", "one-rep"])
def test_mediator_cases(config, reps):
    assert_same_outcome(*both("mediator", config, reps=reps))


@given(truncation_runs())
@settings(max_examples=60, deadline=None)
def test_truncation_matches_reference(run):
    config, reps, cap = run
    assert_same_outcome(*both("truncation", config, reps=reps, cap_age=cap))


@given(attrition_runs())
@settings(max_examples=60, deadline=None)
def test_attrition_matches_reference(run):
    config, reps = run
    assert_same_outcome(*both("attrition", config, reps=reps))


@pytest.mark.parametrize("config,reps", [
    # the third replicate's 85+ bin holds one respondent: rank deficient
    (replace(default_attrition_config(seed=4, strength=0.5), n=200, age_high=85), 4),
    (replace(default_attrition_config(seed=9, strength=1.0), n=300), 12),
    (default_attrition_config(seed=5, strength=0.5), 6),
    (default_attrition_config(seed=5, strength=0.0), 6),
    (replace(default_attrition_config(seed=5, strength=0.5), age_high=84), 2),  # refused
], ids=["seed-4-sparse-bin", "small", "default-0.5", "default-0", "unreachable-bin"])
def test_attrition_cases(config, reps):
    assert_same_outcome(*both("attrition", config, reps=reps))


@pytest.mark.parametrize("config,reps,cap", [
    (default_truncation_config(seed=7), 6, 69),
    (default_truncation_config(seed=7), 6, 50),
    (default_truncation_config(seed=7), 6, 80),
    (default_truncation_config(seed=7), 6, 90),  # refused: the cap is age_high
], ids=["default", "cap-50", "cap-80", "cap-at-age-high"])
def test_truncation_cases(config, reps, cap):
    assert_same_outcome(*both("truncation", config, reps=reps, cap_age=cap))


def test_cap_above_every_age_keeps_the_full_fit():
    """A replicate with nobody older than the cap has the full sample as
    its capped sample. Its capped fit is the full fit bit for bit, as on
    the reference path, so the capped curvature cannot exceed the full
    one by rounding."""
    config = replace(default_truncation_config(seed=2), n=60, age_high=80)
    result = simulate.experiment_truncation(config, reps=12, cap_age=79)
    reference = replicate_path.experiment_truncation(config, reps=12, cap_age=79)
    uncapped = [
        not (replicate_path.generate(replace(config, seed=seed)).age > 79).any()
        for seed in result.seeds
    ]
    assert 0 < sum(uncapped) < len(uncapped)
    for name in ("age", "age_sq"):
        full, capped = result.estimates[f"full_{name}"], result.estimates[f"capped_{name}"]
        assert (full == capped).tolist() == uncapped
        assert np.array_equal(
            reference.estimates[f"full_{name}"] == reference.estimates[f"capped_{name}"], uncapped
        )
    assert result.metrics["frac_capped_curvature_greater"] == (
        reference.metrics["frac_capped_curvature_greater"]
    )

