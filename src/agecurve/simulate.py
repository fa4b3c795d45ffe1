"""Synthetic survey generator and Monte Carlo bias experiments.

Three experiments, each isolating one way an age-happiness analysis can
manufacture or destroy a u-shape:

mediator
    Happiness depends on age only through a mediating variable (plus an
    optional direct path). Controlling for the mediator moves the age
    coefficient from the total effect to the direct effect; both are
    known in closed form, so the experiment checks the estimator against
    exact targets.

truncation
    The true age profile is an s-shaped cubic (midlife dip, late-life
    recovery, then decline). Fitting a quadratic on the full age range
    versus on a sample capped at 69 shows the cap inflating estimated
    curvature: the quadratic no longer has to accommodate the old-age
    decline.

attrition
    Above an age knee, respondents with low happiness draws drop out of
    the sample with some probability. Adjusted age-bin means from the
    attrited sample are inflated in the late-life bins relative to the
    full sample, a pure selection artifact.

Reproducibility contract: replicate ``i`` of an experiment with master
seed ``m`` uses :func:`derive_replicate_seed`, and within one synthetic
sample the base draws (ages, rounds, noise, mediator noise, in that
order) come from a different child stream than the attrition uniforms,
so toggling attrition or appending new draw kinds never perturbs the
draws that came before.

Each replicate draws its own sample. The replicates are then fitted as
countries are, a chunk of them under a fixed row count at a time: their
samples become the countries of one survey, each fitted on two nested
samples from one pass over it (see :mod:`agecurve.models`), and no
replicate's fit or error depends on the others.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .dataset import DEFAULT_ROUND_MAP, Survey
from .design import FINE_BINS, TermSpec
from .models import PRESETS, _fitted, _nested_fits, curve_from_fit, terms_for
from .wls import RankDeficientError

__all__ = [
    "AgeEffect",
    "S_SHAPE",
    "MediatorConfig",
    "AttritionConfig",
    "DgpConfig",
    "HypothesisCheck",
    "SimResult",
    "derive_replicate_seed",
    "generate",
    "default_mediator_config",
    "default_truncation_config",
    "default_attrition_config",
    "experiment_mediator",
    "experiment_truncation",
    "experiment_attrition",
]


def derive_replicate_seed(master_seed: int, index: int) -> int:
    """Seed for replicate ``index`` under ``master_seed``.

    Defined as the first 64-bit word of numpy's ``SeedSequence(master,
    spawn_key=(index,))``. This is part of the external contract: any
    runner that executes replicates in parallel or out of order must
    reproduce the sequential results exactly.
    """
    sequence = np.random.SeedSequence(master_seed, spawn_key=(index,))
    return int(sequence.generate_state(1, dtype=np.uint64)[0])


def _replicate_seeds(master_seed: int, reps: int, minimum: int = 1) -> list[int]:
    """The seed of each of ``reps`` replicates, at least ``minimum`` of them."""
    if reps < minimum:
        raise ValueError(f"reps must be at least {minimum}, got {reps}")
    return [derive_replicate_seed(master_seed, i) for i in range(reps)]


@dataclass(frozen=True)
class AgeEffect:
    """Polynomial age profile, ``linear*a + squared*a**2 + cubed*a**3``."""

    linear: float = 0.0
    squared: float = 0.0
    cubed: float = 0.0

    @classmethod
    def flat(cls) -> "AgeEffect":
        return cls()

    @classmethod
    def quadratic(cls, linear: float, squared: float) -> "AgeEffect":
        return cls(linear=linear, squared=squared)

    @classmethod
    def cubic(cls, linear: float, squared: float, cubed: float) -> "AgeEffect":
        return cls(linear=linear, squared=squared, cubed=cubed)

    @property
    def is_linear(self) -> bool:
        return self.squared == 0.0 and self.cubed == 0.0

    def values(self, ages: np.ndarray) -> np.ndarray:
        a = np.asarray(ages, dtype=np.float64)
        return self.linear * a + self.squared * a**2 + self.cubed * a**3


# Derivative -1e-4 * (a - 45) * (a - 75): falls to a minimum at 45,
# recovers to a local maximum at 75, declines afterwards.
S_SHAPE = AgeEffect(linear=-0.3375, squared=0.006, cubed=-1.0 / 30000.0)


@dataclass(frozen=True)
class MediatorConfig:
    """Mediating variable: ``mediator = slope_age * age + noise`` feeds
    happiness with weight ``slope_happiness``; ``direct`` is the age
    path that bypasses the mediator."""

    slope_age: float = 0.5
    slope_happiness: float = 1.0
    direct: float = 0.0
    noise_sd: float = 1.0

    def __post_init__(self) -> None:
        if not self.noise_sd > 0:
            raise ValueError("mediator noise_sd must be positive")

    @property
    def total_effect(self) -> float:
        return self.direct + self.slope_age * self.slope_happiness


@dataclass(frozen=True)
class AttritionConfig:
    """Selective dropout: respondents strictly older than ``knee`` whose
    stochastic happiness component is negative leave the sample with
    probability ``strength``."""

    knee: int = 75
    strength: float = 0.5

    def __post_init__(self) -> None:
        if not 0.0 <= self.strength <= 1.0:
            raise ValueError(f"strength must be in [0, 1], got {self.strength}")
        if self.knee < 15:
            raise ValueError(f"knee {self.knee} below the survey minimum of 15")


@dataclass(frozen=True)
class DgpConfig:
    """Complete description of one synthetic survey sample.

    ``cohort_effect`` maps five-year cohort-bin start years to happiness
    shifts; ``period_effect`` maps round numbers to shifts. Happiness is
    continuous by default (``clamp=False``); ``clamp=True`` rounds to
    integers and clips to the 0..10 survey scale.
    """

    n: int = 5000
    seed: int = 0
    age_low: int = 15
    age_high: int = 90
    intercept: float = 7.0
    age_effect: AgeEffect = field(default_factory=AgeEffect.flat)
    cohort_effect: Mapping[int, float] = field(default_factory=dict)
    period_effect: Mapping[int, float] = field(default_factory=dict)
    rounds: tuple[int, ...] = (1, 2, 3, 4, 5, 6, 7, 8)
    mediator: MediatorConfig | None = None
    attrition: AttritionConfig | None = None
    noise_sd: float = 1.0
    clamp: bool = False
    country: str = "SIM"

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("n must be at least 1")
        if not 15 <= self.age_low <= self.age_high <= 120:
            raise ValueError(
                f"need 15 <= age_low <= age_high <= 120, got "
                f"[{self.age_low}, {self.age_high}]"
            )
        if not self.noise_sd > 0:
            raise ValueError("noise_sd must be positive")
        if not self.rounds or any(r < 1 for r in self.rounds):
            raise ValueError("rounds must be a nonempty tuple of positive integers")


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
    survey, drop = _draw(config)
    return survey if drop is None else survey.take(~drop)


def _draw(config: DgpConfig, seeds: Sequence[int] | None = None) -> tuple[Survey, np.ndarray | None]:
    """The sample :func:`generate` draws with ``attrition=None``, and the
    rows that attrition drops from it (None at strength 0 or without).
    Given ``seeds``, the samples of ``config`` under each of them, drawn
    one at a time, as the countries ``"0"``, ``"1"``, ... of one survey."""
    parts = []
    for seed in [config.seed] if seeds is None else seeds:
        base_stream, attrition_stream = np.random.SeedSequence(seed).spawn(2)
        rng = np.random.default_rng(base_stream)

        ages = rng.integers(config.age_low, config.age_high + 1, size=config.n)
        rounds = rng.choice(np.asarray(config.rounds, dtype=np.int64), size=config.n)
        noise = rng.normal(0.0, config.noise_sd, size=config.n)

        years = DEFAULT_ROUND_MAP.year(rounds)
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

        drop = None
        if config.attrition is not None and config.attrition.strength > 0.0:
            uniforms = np.random.default_rng(attrition_stream).random(config.n)
            drop = (
                (ages > config.attrition.knee)
                & (stochastic < 0.0)
                & (uniforms < config.attrition.strength)
            )
        parts.append((rounds, years, ages, happiness, mediator_values, drop))

    rounds, years, ages, happiness, mediator, drop = (
        None if column[0] is None else np.concatenate(column) for column in zip(*parts)
    )
    survey = Survey(
        country_codes=np.repeat(np.arange(len(parts)), config.n),
        country_levels=(config.country,) if seeds is None else tuple(map(str, range(len(parts)))),
        round=rounds,
        period_year=years,
        age=ages,
        happiness=happiness,
        weight=np.ones(len(ages)),
        mediator=mediator,
    )
    return survey, drop


# The most rows of one pass. An experiment fits its replicates a chunk
# of them at a time, so that its memory does not grow with their number:
# 200 replicates of 5,000 rows peak 4-5 MB above fitting each replicate
# alone at 2**15 rows, and 9-12 MB at 2**16.
_CHUNK_ROWS = 1 << 15


def _fit_replicates(config: DgpConfig, seeds: list[int], fit) -> list:
    """What ``fit(survey, drop)`` gives each replicate, in replicate
    order, for the :func:`_draw` of each chunk of replicates under
    ``_CHUNK_ROWS`` rows: replicate ``i`` of the chunk is the survey's
    country ``i``, and ``drop`` holds the rows attrition drops (None:
    none)."""
    per, out = max(1, _CHUNK_ROWS // config.n), []
    for first in range(0, len(seeds), per):
        out.extend(fit(*_draw(config, seeds[first : first + per])))
    return out


@dataclass(frozen=True)
class HypothesisCheck:
    """One pass/fail assertion of an experiment, with the numbers that
    decided it."""

    name: str
    passed: bool
    observed: float
    target: float
    detail: str = ""


@dataclass
class SimResult:
    """Everything one experiment run produced.

    ``estimates`` maps series names to per-replicate arrays;
    ``seeds[i]`` is the derived seed of replicate ``i``, so any single
    replicate can be regenerated in isolation.
    """

    experiment: str
    master_seed: int
    n_reps: int
    seeds: tuple[int, ...]
    estimates: dict[str, np.ndarray]
    targets: dict[str, float]
    mc_mean: dict[str, float]
    mc_sd: dict[str, float]
    metrics: dict[str, float]
    checks: list[HypothesisCheck]

    @property
    def passed(self) -> bool:
        return all(check.passed for check in self.checks)

    def summary(self) -> str:
        lines = [
            f"experiment: {self.experiment}",
            f"replicates: {self.n_reps} (master seed {self.master_seed})",
        ]
        for name in self.estimates:
            line = f"  {name}: mean {self.mc_mean[name]:+.5f} sd {self.mc_sd[name]:.5f}"
            if name in self.targets:
                line += f" target {self.targets[name]:+.5f}"
            lines.append(line)
        for key, value in self.metrics.items():
            lines.append(f"  {key}: {value:.4f}")
        for check in self.checks:
            status = "PASS" if check.passed else "FAIL"
            lines.append(
                f"  [{status}] {check.name}: observed {check.observed:+.5f} "
                f"vs target {check.target:+.5f}"
                + (f" ({check.detail})" if check.detail else "")
            )
        lines.append(f"overall: {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines)


def _finalize(
    experiment: str,
    master_seed: int,
    seeds: list[int],
    estimates: dict[str, np.ndarray],
    targets: dict[str, float],
    metrics: dict[str, float],
    checks: list[HypothesisCheck],
) -> SimResult:
    # NaN, without numpy's warning, for a series too short to give one.
    held = {k: np.count_nonzero(~np.isnan(v)) for k, v in estimates.items()}
    mc_mean = {k: float(np.nanmean(v)) if held[k] else float("nan") for k, v in estimates.items()}
    mc_sd = {
        k: float(np.nanstd(v, ddof=1)) if held[k] > 1 else float("nan")
        for k, v in estimates.items()
    }
    return SimResult(
        experiment=experiment,
        master_seed=master_seed,
        n_reps=len(seeds),
        seeds=tuple(seeds),
        estimates=estimates,
        targets=targets,
        mc_mean=mc_mean,
        mc_sd=mc_sd,
        metrics=metrics,
        checks=checks,
    )


def default_mediator_config(seed: int = 101) -> DgpConfig:
    return DgpConfig(
        n=5000,
        seed=seed,
        mediator=MediatorConfig(slope_age=0.5, slope_happiness=1.0, direct=0.0),
    )


def default_truncation_config(seed: int = 202) -> DgpConfig:
    return DgpConfig(n=5000, seed=seed, intercept=9.0, age_effect=S_SHAPE)


def default_attrition_config(seed: int = 303, strength: float = 0.5) -> DgpConfig:
    return DgpConfig(
        n=5000,
        seed=seed,
        intercept=9.0,
        age_effect=S_SHAPE,
        attrition=AttritionConfig(knee=75, strength=strength),
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
    without and with the mediator as a regressor, both from one pass
    over its sample; the first replicate whose fit fails raises its
    error. The Monte Carlo means are checked against the exact targets
    ``direct + slope_age * slope_happiness`` and ``direct``, within
    three MC standard errors.
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
    terms = [TermSpec.intercept(), TermSpec.age_linear(), TermSpec.period(), TermSpec.mediator()]

    def fit_chunk(survey: Survey, _) -> list[tuple[float, float, float]]:
        """Each replicate's age slope without and with the mediator, and the mediator's."""
        return [
            (_fitted(total).coef("age"), _fitted(direct).coef("age"), direct.coef("mediator"))
            for total, direct in zip(*_nested_fits(survey, terms[:-1], None, terms[-1:]))
        ]

    totals, directs, mediator_coefs = np.array(_fit_replicates(config, seeds, fit_chunk)).T

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

    Each replicate fits the quadratic (with period factors) of
    ``quad-nocontrols-nocap`` on all ages and again on ages at most
    ``cap_age``, both from one pass over its sample, in which the rows
    above the cap are a cell of their own: a replicate with no age above
    the cap has its full fit as its capped fit. The first replicate
    whose fit fails raises its error. With the s-shaped default truth
    the capped fit shows more curvature, because the cap removes the
    late-life decline the quadratic would otherwise have to average in.
    The contract check: the capped age-squared coefficient exceeds the
    full-range one in at least 95 percent of replicates.
    """
    if config is None:
        config = default_truncation_config()
    if not config.age_high > cap_age:
        raise ValueError(
            f"age_high {config.age_high} does not extend past the cap {cap_age}"
        )
    if cap_age < 15:
        raise ValueError(f"age_cap {cap_age} below the survey minimum")
    terms = terms_for(PRESETS["quad-nocontrols-nocap"])
    seeds = _replicate_seeds(config.seed, reps)

    def fit_chunk(survey: Survey, _) -> list[list[list[float]]]:
        """Each replicate's full and capped fit's age and age_sq coefficients."""
        return [
            [[fit.coef("age"), fit.coef("age_sq")] for fit in map(_fitted, fits)]
            for fits in zip(*_nested_fits(survey, terms, survey.age > cap_age))
        ]

    coefs = np.array(_fit_replicates(config, seeds, fit_chunk))
    (full_age, full_sq), (capped_age, capped_sq) = coefs.transpose(1, 2, 0)

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

    Each replicate draws its sample once, with the rows attrition drops
    from it, fits fine-scheme adjusted means to the full sample and to
    the rows that stay, both from one pass over the sample, and
    records the attrited-minus-full level difference for every bin at
    or above the knee. With positive strength the difference must be
    positive in at least 95 percent of replicates per late bin; with
    strength zero it must be within three MC standard errors of zero.
    At strength zero the attrited sample is the full one (see
    :func:`generate`), so each replicate fits it once and every
    difference is exactly zero. A late bin that begins above
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

    def fit_chunk(survey: Survey, drop: np.ndarray | None) -> list[dict[str, float] | None]:
        """Each replicate's attrited-minus-full level of the late bins
        that both curves hold, or None when it cannot be fitted."""
        out = []
        for fits in zip(*_nested_fits(survey, terms_for(PRESETS["ranges-fine"]), drop)):
            try:
                full, attrited = (curve_from_fit(_fitted(fit), config.country, "fine") for fit in fits)
            except RankDeficientError:
                out.append(None)
                continue
            held = set(inflations) & set(full.bin_labels) & set(attrited.bin_labels)
            out.append({label: attrited.level(label) - full.level(label) for label in held})
        return out

    differences = _fit_replicates(config, seeds, fit_chunk)
    unfitted = differences.count(None)
    for i, difference in enumerate(differences):
        for label, value in (difference or {}).items():
            inflations[label][i] = value

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
