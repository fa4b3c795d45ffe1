"""The per-sample reference path of the Monte Carlo experiments:
agecurve's ``generate``, ``_mean_check``, ``experiment_mediator``,
``experiment_truncation`` and ``experiment_attrition`` as they were
when every replicate encoded and fitted each of its samples on its own
(the mediator's two models as one dense design through
``build_design``, the same design with the mediator column appended by
``_with_mediator_column``, and two ``fit_wls`` calls; the capped sample
through ``Survey.take``, ``build_design`` and ``fit_wls``; the attrited
one drawn a second time by ``generate``), kept verbatim so that
``test_replicate_equivalence.py`` can check the stacked path against
them. Only the imports differ.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from agecurve.dataset import DEFAULT_ROUND_MAP, Survey
from agecurve.design import FINE_BINS, DesignMatrix, TermSpec, build_design
from agecurve.models import adjusted_means
from agecurve.simulate import (
    DgpConfig,
    HypothesisCheck,
    SimResult,
    _finalize,
    _replicate_seeds,
    default_attrition_config,
    default_mediator_config,
    default_truncation_config,
)
from agecurve.wls import RankDeficientError, fit_wls


def generate(config: DgpConfig) -> Survey:
    """Draw one synthetic sample.

    Deterministic in the config: identical configs give identical
    surveys. Every row has weight 1 and no control values. Attrition
    removes rows but never changes the surviving ones, because its
    uniforms come from a separate child stream of the seed (so
    ``attrition=None`` and ``strength=0`` produce byte-identical
    samples, and any positive strength keeps a subset of exactly those
    rows).
    """
    base_stream, attrition_stream = np.random.SeedSequence(config.seed).spawn(2)
    rng = np.random.default_rng(base_stream)

    ages = rng.integers(config.age_low, config.age_high + 1, size=config.n)
    rounds = rng.choice(np.asarray(config.rounds, dtype=np.int64), size=config.n)
    noise = rng.normal(0.0, config.noise_sd, size=config.n)

    years = DEFAULT_ROUND_MAP.base + DEFAULT_ROUND_MAP.step * rounds
    births = years - ages

    deterministic = config.intercept + config.age_effect.values(ages)
    if config.cohort_effect:
        starts = (births // 5) * 5
        deterministic += np.array(
            [config.cohort_effect.get(int(s), 0.0) for s in starts]
        )
    if config.period_effect:
        deterministic += np.array(
            [config.period_effect.get(int(r), 0.0) for r in rounds]
        )

    stochastic = noise
    mediator_values: np.ndarray | None = None
    if config.mediator is not None:
        med = config.mediator
        mediator_noise = rng.normal(0.0, med.noise_sd, size=config.n)
        mediator_values = med.slope_age * ages + mediator_noise
        deterministic = deterministic + med.direct * ages
        deterministic = deterministic + med.slope_happiness * med.slope_age * ages
        stochastic = stochastic + med.slope_happiness * mediator_noise

    happiness = deterministic + stochastic
    if config.clamp:
        happiness = np.clip(np.rint(happiness), 0.0, 10.0)

    survey = Survey(
        country_codes=np.zeros(config.n, dtype=np.int64),
        country_levels=(config.country,),
        round=rounds,
        period_year=years,
        age=ages,
        happiness=happiness,
        weight=np.ones(config.n),
        mediator=mediator_values,
    )
    if config.attrition is not None and config.attrition.strength > 0.0:
        att_rng = np.random.default_rng(attrition_stream)
        uniforms = att_rng.random(config.n)
        drop = (
            (ages > config.attrition.knee)
            & (stochastic < 0.0)
            & (uniforms < config.attrition.strength)
        )
        survey = survey.take(~drop)
    return survey


def _with_mediator_column(design: DesignMatrix, values: np.ndarray) -> DesignMatrix:
    return DesignMatrix(
        values=np.column_stack([design.values, values]),
        column_labels=[*design.column_labels, "mediator"],
        row_weights=design.row_weights,
        response=design.response,
        dropped_levels=list(design.dropped_levels),
    )


def _mean_check(
    name: str, values: np.ndarray, target: float, n_reps: int
) -> HypothesisCheck:
    mean = float(np.mean(values))
    mc_se = float(np.std(values, ddof=1)) / np.sqrt(n_reps)
    tolerance = 3.0 * mc_se
    return HypothesisCheck(
        name=name,
        passed=abs(mean - target) <= tolerance,
        observed=mean,
        target=target,
        detail=f"|diff| {abs(mean - target):.5f} <= 3 MC SE {tolerance:.5f}",
    )


def experiment_mediator(config: DgpConfig | None = None, reps: int = 200) -> SimResult:
    """Total versus direct age effect under a mediator control.

    Each replicate fits happiness on age (plus period factors) twice,
    without and with the mediator as a regressor. The Monte Carlo means
    are checked against the exact targets ``direct + slope_age *
    slope_happiness`` and ``direct``, within three MC standard errors.
    """
    if config is None:
        config = default_mediator_config()
    if config.mediator is None:
        raise ValueError("mediator experiment needs a DgpConfig with a mediator")
    if not config.age_effect.is_linear:
        raise ValueError(
            "mediator experiment assumes a linear direct age path; "
            "use a flat or linear age_effect"
        )

    # The Monte Carlo standard error of the checks needs two replicates.
    seeds = _replicate_seeds(config.seed, reps, minimum=2)
    terms = [TermSpec.intercept(), TermSpec.age_linear(), TermSpec.period()]
    totals = np.empty(reps)
    directs = np.empty(reps)
    mediator_coefs = np.empty(reps)
    for i, seed in enumerate(seeds):
        survey = generate(replace(config, seed=seed))
        design = build_design(survey, terms)
        totals[i] = fit_wls(design).coef("age")
        with_mediator = fit_wls(_with_mediator_column(design, survey.mediator))
        directs[i] = with_mediator.coef("age")
        mediator_coefs[i] = with_mediator.coef("mediator")

    med = config.mediator
    total_target = config.age_effect.linear + med.total_effect
    direct_target = config.age_effect.linear + med.direct
    targets = {
        "total_age_slope": total_target,
        "direct_age_slope": direct_target,
        "mediator_coef": med.slope_happiness,
    }
    estimates = {
        "total_age_slope": totals,
        "direct_age_slope": directs,
        "mediator_coef": mediator_coefs,
    }
    checks = [
        _mean_check("total_age_slope_unbiased", totals, total_target, reps),
        _mean_check("direct_age_slope_unbiased", directs, direct_target, reps),
    ]
    metrics = {
        "mean_absorbed_by_mediator": float(np.mean(totals - directs)),
    }
    return _finalize(
        "mediator", config.seed, seeds, estimates, targets, metrics, checks
    )


def experiment_truncation(
    config: DgpConfig | None = None, reps: int = 200, cap_age: int = 69
) -> SimResult:
    """Quadratic curvature under an age cap versus the full age range.

    Each replicate fits the quadratic (with period factors) on all ages
    and again on ages at most ``cap_age``. With the s-shaped default
    truth the capped fit shows more curvature, because the cap removes
    the late-life decline the quadratic would otherwise have to average
    in. The contract check: the capped age-squared coefficient exceeds
    the full-range one in at least 95 percent of replicates.
    """
    if config is None:
        config = default_truncation_config()
    if not config.age_high > cap_age:
        raise ValueError(
            f"age_high {config.age_high} does not extend past the cap {cap_age}"
        )

    terms = [
        TermSpec.intercept(),
        TermSpec.age_linear(),
        TermSpec.age_squared(),
        TermSpec.period(),
    ]
    seeds = _replicate_seeds(config.seed, reps)
    full_sq = np.empty(reps)
    capped_sq = np.empty(reps)
    full_age = np.empty(reps)
    capped_age = np.empty(reps)
    for i, seed in enumerate(seeds):
        survey = generate(replace(config, seed=seed))
        fit_full = fit_wls(build_design(survey, terms))
        fit_capped = fit_wls(build_design(survey.take(survey.age <= cap_age), terms))
        full_sq[i] = fit_full.coef("age_sq")
        capped_sq[i] = fit_capped.coef("age_sq")
        full_age[i] = fit_full.coef("age")
        capped_age[i] = fit_capped.coef("age")

    frac_inflated = float(np.mean(capped_sq > full_sq))
    estimates = {
        "full_age_sq": full_sq,
        "capped_age_sq": capped_sq,
        "full_age": full_age,
        "capped_age": capped_age,
    }
    metrics = {
        "frac_capped_curvature_greater": frac_inflated,
        "frac_capped_age_more_negative": float(np.mean(capped_age < full_age)),
        "mean_curvature_inflation": float(np.mean(capped_sq - full_sq)),
    }
    checks = [
        HypothesisCheck(
            name="cap_inflates_curvature",
            passed=frac_inflated >= 0.95,
            observed=frac_inflated,
            target=0.95,
            detail=f"capped age_sq > full age_sq in {frac_inflated:.1%} of replicates",
        )
    ]
    return _finalize("truncation", config.seed, seeds, estimates, {}, metrics, checks)


def experiment_attrition(config: DgpConfig | None = None, reps: int = 200) -> SimResult:
    """Late-life adjusted means with and without selective attrition.

    Each replicate draws the same base sample twice, once untouched and
    once with attrition applied, fits fine-scheme adjusted means to
    both, and records the attrited-minus-full level difference for every
    bin at or above the knee. With positive strength the difference must
    be positive in at least 95 percent of replicates per late bin; with
    strength zero it must be within three MC standard errors of zero.
    At strength zero the attrited sample is the full one (see
    :func:`generate`), so each replicate draws and fits it once and
    every difference is exactly zero. A late bin that begins above
    ``config.age_high`` can hold no respondent and is refused up front.
    A replicate whose design is rank deficient (as when a late bin holds
    one respondent) gets no estimate and fails every check.
    """
    if config is None:
        config = default_attrition_config()
    if config.attrition is None:
        raise ValueError("attrition experiment needs a DgpConfig with attrition")

    knee = config.attrition.knee
    strength = config.attrition.strength
    late_bins = [label for label, low, _ in FINE_BINS if low >= knee]
    if not late_bins:
        raise ValueError(f"no fine-scheme bins at or above knee {knee}")
    unreachable = [
        label for label, low, _ in FINE_BINS if low >= knee and low > config.age_high
    ]
    if unreachable:
        raise ValueError(
            f"late bins {unreachable} begin above age_high {config.age_high}; "
            "no respondent can fall in them"
        )

    seeds = _replicate_seeds(config.seed, reps)
    inflations = {label: np.full(reps, np.nan) for label in late_bins}
    unfitted = 0
    for i, seed in enumerate(seeds):
        cfg = replace(config, seed=seed)
        try:
            full_curve = adjusted_means(generate(replace(cfg, attrition=None)), cfg.country)
            attrited_curve = (
                full_curve if strength == 0.0 else adjusted_means(generate(cfg), cfg.country)
            )
        except RankDeficientError:
            unfitted += 1
            continue
        for label in late_bins:
            if label in full_curve.bin_labels and label in attrited_curve.bin_labels:
                inflations[label][i] = attrited_curve.level(label) - full_curve.level(
                    label
                )

    estimates = {f"inflation:{label}": inflations[label] for label in late_bins}
    metrics: dict[str, float] = {}
    checks: list[HypothesisCheck] = []
    for label in late_bins:
        diffs = inflations[label]
        finite = diffs[np.isfinite(diffs)]
        frac_positive = float(np.mean(finite > 0)) if finite.size else float("nan")
        metrics[f"frac_positive:{label}"] = frac_positive
        missing = reps - finite.size
        empty = missing - unfitted
        gaps = f"; {empty} of {reps} replicates have no respondent in the bin" if empty else ""
        if unfitted:
            gaps += f"; {unfitted} of {reps} replicates could not be fitted"
        if strength > 0:
            checks.append(
                HypothesisCheck(
                    name=f"late_bin_inflated:{label}",
                    passed=bool(not missing and frac_positive >= 0.95),
                    observed=frac_positive,
                    target=0.95,
                    detail=f"attrited > full in {frac_positive:.1%} of replicates{gaps}",
                )
            )
        else:
            mean = float(np.mean(finite)) if finite.size else float("nan")
            sd = float(np.std(finite, ddof=1)) if finite.size > 1 else 0.0
            tolerance = 3.0 * sd / np.sqrt(max(finite.size, 1))
            checks.append(
                HypothesisCheck(
                    name=f"late_bin_unbiased:{label}",
                    passed=bool(not missing and abs(mean) <= tolerance),
                    observed=mean,
                    target=0.0,
                    detail=f"|mean| {abs(mean):.5f} <= 3 MC SE {tolerance:.5f}{gaps}",
                )
            )
    return _finalize("attrition", config.seed, seeds, estimates, {}, metrics, checks)
