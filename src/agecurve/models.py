"""Named model specifications and per-country fitting.

The battery mirrors the analysis the package exists to reproduce and
probe:

* quadratic models of happiness in age, with and without demographic
  controls and with and without capping the sample at age 69;
* age-range (bin indicator) models with period and five-year birth-cohort
  factors, on a coarse and a fine bin scheme.

Two presentation helpers turn fits back into curves that are comparable
across countries: :func:`predict_curve` evaluates a quadratic fit with
every non-age regressor standardized to its weighted sample mean, and
:func:`curve_from_fit` does the same for bin models, yielding an adjusted
happiness level per age bin (:func:`adjusted_means` fits and converts in
one call).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterable, Sequence

import numpy as np

from .dataset import CONTROL_VARS, FilterSpec, Survey, apply_filter
from .design import (
    COARSE_REFERENCE,
    FINE_REFERENCE,
    DesignError,
    TermSpec,
    build_design,
    scheme_bin_labels,
)
from .wls import FitResult, fit_wls

__all__ = [
    "ModelSpec",
    "AgeCurve",
    "CountryResult",
    "PRESETS",
    "PRESET_ALIASES",
    "get_spec",
    "terms_for",
    "fit_spec",
    "batch_fit",
    "predict_curve",
    "quad_vertex",
    "curve_from_fit",
    "adjusted_means",
]


@dataclass(frozen=True)
class ModelSpec:
    """A named model in the battery.

    ``form`` is ``"quadratic"`` (age and age squared) or ``"ranges"``
    (bin indicators under ``scheme``). ``age_cap`` restricts the sample
    to ages at or below the cap before fitting. Every model carries
    survey-round (period) dummies.
    """

    name: str
    form: str
    scheme: str = "coarse"
    controls: bool = False
    age_cap: int | None = None
    cohort_control: bool = False

    def __post_init__(self) -> None:
        if self.form not in ("quadratic", "ranges"):
            raise ValueError(f"unknown model form {self.form!r}")
        if self.scheme not in ("coarse", "fine"):
            raise ValueError(f"unknown bin scheme {self.scheme!r}")
        if self.age_cap is not None and self.age_cap < 15:
            raise ValueError(f"age_cap {self.age_cap} below the survey minimum")


# The quadratic 2x2 battery: demographic controls on/off crossed with the
# age-69 sample cap on/off. "quad-controls-cap" is the fully controlled,
# capped model; "quad-nocontrols-nocap" is the bare quadratic whose
# coefficients feed the curvature-based u-shape rule; together the two
# nocontrols/controls no-cap models are the before/after pair for the
# coefficient-reduction report.
PRESETS: dict[str, ModelSpec] = {
    "quad-controls-cap": ModelSpec(
        name="quad-controls-cap", form="quadratic", controls=True, age_cap=69
    ),
    "quad-nocontrols-cap": ModelSpec(
        name="quad-nocontrols-cap", form="quadratic", controls=False, age_cap=69
    ),
    "quad-nocontrols-nocap": ModelSpec(
        name="quad-nocontrols-nocap", form="quadratic", controls=False, age_cap=None
    ),
    "quad-controls-nocap": ModelSpec(
        name="quad-controls-nocap", form="quadratic", controls=True, age_cap=None
    ),
    "ranges-coarse": ModelSpec(
        name="ranges-coarse", form="ranges", scheme="coarse", cohort_control=True
    ),
    "ranges-fine": ModelSpec(
        name="ranges-fine", form="ranges", scheme="fine", cohort_control=True
    ),
}

PRESET_ALIASES: dict[str, str] = {
    "bare-quadratic": "quad-nocontrols-nocap",
    "controlled-quadratic": "quad-controls-cap",
}


def get_spec(name: str) -> ModelSpec:
    key = PRESET_ALIASES.get(name, name)
    try:
        return PRESETS[key]
    except KeyError:
        known = sorted(set(PRESETS) | set(PRESET_ALIASES))
        raise KeyError(f"unknown model preset {name!r}; known: {known}") from None


def terms_for(spec: ModelSpec) -> list[TermSpec]:
    """The term list a spec expands to, in canonical column order."""
    terms = [TermSpec.intercept()]
    if spec.form == "quadratic":
        terms.append(TermSpec.age_linear())
        terms.append(TermSpec.age_squared())
    else:
        terms.append(TermSpec.age_bins(spec.scheme))
    terms.append(TermSpec.period())
    if spec.cohort_control:
        terms.append(TermSpec.cohort(width=5))
    if spec.controls:
        terms.extend(TermSpec.control(name) for name in CONTROL_VARS)
    return terms


def _filter_for(spec: ModelSpec, country: str | None) -> FilterSpec:
    return FilterSpec(
        min_age=15,
        max_age=spec.age_cap,
        countries=None if country is None else frozenset({country}),
        listwise_vars=frozenset(CONTROL_VARS) if spec.controls else frozenset(),
    )


def fit_spec(
    survey: Survey,
    spec: ModelSpec,
    country: str | None = None,
) -> FitResult:
    """Fit one spec for one country (or the pooled sample when ``country``
    is None).

    This is the one place that decides whether a spec is identified on a
    sample. It applies the spec's sample restrictions (age cap, listwise
    deletion when controls are on), refuses a cohort-controlled spec on
    fewer than two distinct rounds with :class:`DesignError`, and
    returns the WLS fit. When fewer than three rounds remain, period and
    cohort factors are identified but have little leverage, and the
    fit's ``notes`` say so.
    """
    kept, _ = apply_filter(survey, _filter_for(spec, country))
    # apply_filter leaves at least one row
    n_periods = 1 + int(np.count_nonzero(np.diff(np.sort(kept.period_year))))
    if spec.cohort_control and n_periods < 2:
        raise DesignError(
            f"only {n_periods} distinct survey round(s); "
            "cohort-controlled fit skipped"
        )
    fit = fit_wls(build_design(kept, terms_for(spec)))
    if n_periods >= 3:
        return fit
    label = country if country is not None else "pooled sample"
    note = (
        f"{label}: only {n_periods} distinct survey round(s); period "
        "and cohort factors have little leverage"
    )
    return replace(fit, notes=(note,))


_AGE_BLOCK = ("const", "age", "age_sq")


def _context_offset(fit: FitResult) -> float:
    """Weighted-mean contribution of every column outside the age block.

    For an indicator column the weighted column mean is the weighted
    share of its level, so the offset fixes period, cohort, and control
    composition at the fitted sample's own mix. Adding it to the age
    terms puts predicted values on the level of the observed sample
    rather than the (often unobserved) reference cell.
    """
    keep = [
        j
        for j, label in enumerate(fit.labels)
        if label not in _AGE_BLOCK and not label.startswith("bin:")
    ]
    if not keep:
        return 0.0
    return float(fit.column_means[keep] @ fit.coefficients[keep])


def predict_curve(fit: FitResult, ages: Iterable[int]) -> list[tuple[int, float]]:
    """Evaluate a quadratic fit over ``ages`` as ``(age, value)`` pairs.

    Non-age regressors are standardized to their weighted sample means
    (see :func:`_context_offset`), so curves from different samples are
    level-comparable.
    """
    if "age" not in fit.labels or "age_sq" not in fit.labels:
        raise ValueError("predict_curve needs a quadratic fit (age and age_sq)")
    base = fit.coef("const") + _context_offset(fit)
    b_age = fit.coef("age")
    b_sq = fit.coef("age_sq")
    return [(int(a), base + b_age * a + b_sq * a * a) for a in ages]


def quad_vertex(fit: FitResult) -> float:
    """Stationary age of a quadratic fit (minimum when the age-squared
    coefficient is positive)."""
    b_sq = fit.coef("age_sq")
    if b_sq == 0.0:
        raise ValueError("flat quadratic term: the fit has no stationary age")
    return -fit.coef("age") / (2.0 * b_sq)


@dataclass(frozen=True)
class AgeCurve:
    """Adjusted happiness level per age bin for one country.

    Levels are on the happiness scale and comparable across countries
    fitted with the same scheme. :func:`agecurve.shape.depth` reports
    the extremes. ``notes`` names each bin left out of the curve and,
    from :func:`adjusted_means`, carries the fit's notes before them.
    """

    country: str
    bin_labels: tuple[str, ...]
    levels: tuple[float, ...]
    notes: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if len(self.bin_labels) != len(self.levels):
            raise ValueError("one level per bin label required")
        if not self.bin_labels:
            raise ValueError("curve needs at least one bin")

    def level(self, bin_label: str) -> float:
        try:
            return self.levels[self.bin_labels.index(bin_label)]
        except ValueError:
            raise KeyError(f"no bin {bin_label!r} in curve") from None


def curve_from_fit(fit: FitResult, country: str, scheme: str) -> AgeCurve:
    """Convert a range fit under ``scheme`` to adjusted levels per bin:
    reference bin = intercept + standardization offset, other bins add
    their own coefficient. Bins with no observations are left out of the
    curve, each with a note in the curve's ``notes``."""
    base = fit.coef("const") + _context_offset(fit)
    reference = COARSE_REFERENCE if scheme == "coarse" else FINE_REFERENCE
    labels: list[str] = []
    levels: list[float] = []
    notes: list[str] = []
    for bin_label in scheme_bin_labels(scheme):
        if bin_label == reference:
            labels.append(bin_label)
            levels.append(base)
        elif f"bin:{bin_label}" in fit.labels:
            labels.append(bin_label)
            levels.append(base + fit.coef(f"bin:{bin_label}"))
        else:
            notes.append(f"{country}: no observations in bin {bin_label}; omitted from curve")
    return AgeCurve(
        country=country, bin_labels=tuple(labels), levels=tuple(levels), notes=tuple(notes)
    )


def adjusted_means(
    survey: Survey,
    country: str,
    scheme: str = "fine",
    spec: ModelSpec | None = None,
) -> AgeCurve:
    """Adjusted happiness level per age bin: :func:`fit_spec` on the
    range model for ``scheme`` (period and cohort controlled by default;
    pass ``spec`` to override), then :func:`curve_from_fit`. The curve's
    notes are the fit's notes followed by its own."""
    if spec is None:
        spec = PRESETS["ranges-coarse" if scheme == "coarse" else "ranges-fine"]
    if spec.form != "ranges" or spec.scheme != scheme:
        raise ValueError(
            f"spec {spec.name!r} does not fit {scheme!r} age ranges"
        )
    fit = fit_spec(survey, spec, country)
    curve = curve_from_fit(fit, country, scheme)
    return replace(curve, notes=fit.notes + curve.notes)


@dataclass
class CountryResult:
    """Outcome of one country's fit inside a batch; exactly one of ``fit``
    and ``error`` is set. ``notes`` starts as the fit's notes; callers
    may add their own, such as the notes of a curve drawn from the fit."""

    country: str
    fit: FitResult | None = None
    error: str | None = None
    notes: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.fit is not None


def batch_fit(
    survey: Survey,
    spec: ModelSpec,
    countries: Sequence[str] | None = None,
) -> list[CountryResult]:
    """Fit one spec across countries with :func:`fit_spec`, isolating
    failures.

    Each country is fitted on its own part of
    :meth:`Survey.by_country`. ``countries`` defaults to
    first-appearance order in ``survey``. A country whose data cannot
    support the spec (no rows after filtering, rank deficiency, a single
    survey round under a cohort spec) yields an error entry; other
    countries are unaffected. A fitted country's notes are its fit's
    notes.
    """
    parts = survey.by_country()
    if countries is None:
        countries = list(parts)
    results: list[CountryResult] = []
    for country in countries:
        result = CountryResult(country=country)
        # A country absent from the survey is fitted on the whole survey,
        # so that the filter reports how many rows it removed.
        sample = parts.get(country, survey)
        try:
            result.fit = fit_spec(sample, spec, country)
            result.notes.extend(result.fit.notes)
        except ValueError as exc:
            result.error = str(exc)
        results.append(result)
    return results
