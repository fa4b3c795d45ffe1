"""Named model specifications and per-country fitting.

Each spec is fitted to every country in one pass: its sample
restrictions give one mask over the whole survey, which is never copied,
and each term is encoded once. Every country's ``X̃ᵀX̃`` and ``X̃ᵀỹ``
then come from grouped sums over the survey's codes (Wong, Lewis &
Wardrop, "You Only Compress Once", arXiv:2102.11297). The quadratic
specs share that pass: its sums are kept per (country, complete
controls, age up to 69) cell, and each spec adds up the cells it keeps.
A Monte Carlo replicate fits its sample and a subset of its rows from
one pass the same way: the rows up to its cap, or those that attrition
leaves (:func:`_nested_fits`). The countries asked for are solved in
one stacked call of the :mod:`agecurve.wls` kernel, without a dense
design. Only a country whose Gram matrix has no Cholesky factor or
fails the full-rank certificate, or that has no more rows than
columns, has its dense design filled and goes through
:func:`agecurve.wls.fit_wls`, which names the columns of a dependency.

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

from .dataset import CONTROL_VARS, EmptySampleError, FilterSpec, Survey, filter_mask
from .design import (
    COARSE_REFERENCE,
    FINE_REFERENCE,
    DesignError,
    GroupedDesigns,
    TermSpec,
    scheme_bin_labels,
)
from .wls import FitResult, _csne, _fit_result, fit_wls

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


def _filter_for(spec: ModelSpec) -> FilterSpec:
    return FilterSpec(
        min_age=15,
        max_age=spec.age_cap,
        listwise_vars=frozenset(CONTROL_VARS) if spec.controls else frozenset(),
    )


# The age at which a quadratic spec without a cap cuts its pass over the
# survey: the capped presets' cap, so that it shares their pass.
_CUT = PRESETS["quad-controls-cap"].age_cap


def _quadratic_designs(
    survey: Survey, spec: ModelSpec, pooled: bool, codes: np.ndarray, n: int
) -> GroupedDesigns:
    """The designs of the quadratic ``spec`` for the ``n`` countries of
    ``codes``, from the first pass over ``survey`` that holds its terms
    and is cut at its cap (``_CUT`` without one), else from a new one.
    The survey keeps its passes until a ranges spec is fitted on it, so
    that they and the ranges spec's encoding are not held at once.

    A pass's cell ``4c`` holds the rows of country ``c`` with complete
    controls and an age up to the cut, ``4c + 1`` those above it, and
    ``4c + 2`` and ``4c + 3`` the same with incomplete controls. A
    cell's sums for a term do not depend on the other terms of its
    pass, so neither does a spec's fit."""
    terms = terms_for(spec)
    key = (pooled, _CUT if spec.age_cap is None else spec.age_cap)
    passes = survey._derived.setdefault("quadratic passes", {}).setdefault(key, [])
    shared = next((p for p in passes if set(terms) <= set(p.terms)), None)
    if shared is None:
        complete, _ = filter_mask(survey, FilterSpec(listwise_vars=frozenset(CONTROL_VARS)))
        shared = GroupedDesigns(survey, terms, 2 * codes + ~complete, 2 * n, key[1])
        passes.append(shared)
    kept = [i + j for i in (0, 2)[: 1 if spec.controls else 2] for j in (0, 1)[: 1 if spec.age_cap else 2]]
    return shared.merged(4 * np.arange(n)[:, None] + kept, terms)


class _SpecFits:
    """One spec over every country of a survey, or over the pooled
    sample, filtered and encoded once; :meth:`fit` fits countries.

    Under a quadratic spec a country's group is the union of the cells
    it keeps of a pass that it shares with the other quadratic specs
    (see :func:`_quadratic_designs`). Under a ranges spec a row's group is
    its country code (0 for the pooled sample), and the rows the spec
    drops form one more group, which is never fitted. ``index`` maps
    each country that holds rows, in first-appearance order, to its
    group. Given ``designs``, they fit the rows ``kept`` (None: all),
    country ``g`` in their group ``g`` (see :func:`_nested_fits`)."""

    def __init__(
        self, survey: Survey, spec: ModelSpec, pooled: bool,
        designs: GroupedDesigns | None = None, kept: np.ndarray | None = None,
    ) -> None:
        self.spec = spec
        codes = np.zeros(len(survey), np.intp) if pooled else survey.country_codes
        n_groups = 1 if pooled else len(survey.country_levels)
        held = codes if kept is None else codes[kept]
        self.rows = np.bincount(held, minlength=n_groups)
        # A stable sort by code starts each country's run at its first row.
        order = np.argsort(held.astype(np.min_scalar_type(n_groups)), kind="stable")
        firsts = np.sort(order[(np.cumsum(self.rows) - self.rows)[self.rows > 0]])
        self.index = {None: 0} if pooled else {
            survey.country_levels[g]: g for g in held[firsts].tolist()
        }
        if designs is not None:
            self.designs = designs
        elif spec.form == "quadratic":
            self.designs = _quadratic_designs(survey, spec, pooled, codes, n_groups)
        else:
            survey._derived.pop("quadratic passes", None)
            keep, _ = filter_mask(survey, _filter_for(spec))
            group = np.where(keep, codes, n_groups)
            self.designs = GroupedDesigns(survey, terms_for(spec), group, n_groups + 1)
        self.held = self.designs.held_rows()
        self.n_periods = self.designs.held_levels("period_factor")

    def _layout(self, country: str | None) -> tuple[int, np.ndarray, list[str]]:
        """A country's group and its design's columns (see
        :meth:`GroupedDesigns.layout`), or the error that says why the
        spec is not identified on it."""
        if country not in self.index:
            raise EmptySampleError(f"country {country!r} not in the survey")
        g = self.index[country]
        if not self.held[g]:
            raise EmptySampleError(f"filter removed all {self.rows[g]} records")
        n_periods = int(self.n_periods[g])
        if self.spec.cohort_control and n_periods < 2:
            raise DesignError(
                f"only {n_periods} distinct survey round(s); "
                "cohort-controlled fit skipped"
            )
        return (g, *self.designs.layout(g))

    def fit(self, countries: Iterable[str | None]) -> dict[str | None, FitResult | ValueError]:
        """Each country's fit (``None``: the pooled sample), as
        :func:`fit_spec` describes it, or the error it raises: the one
        place that decides whether a spec is identified on a sample.

        Every country with more rows than columns is solved in one
        stack from the grouped sufficient statistics. A country that the
        stack's certificate does not clear, or with too few rows, has
        its dense design built and goes through :func:`fit_wls`, which
        names the suspect columns of a rank-deficient design."""
        out: dict[str | None, FitResult | ValueError] = {}
        stack, dense = [], []
        for country in dict.fromkeys(countries):
            try:
                g, columns, labels = self._layout(country)
            except ValueError as exc:
                out[country] = exc
                continue
            (stack if self.held[g] > len(labels) else dense).append((country, g, columns, labels))
        if stack:
            dense.extend(self._solve(stack, out))
        for country, g, _, _ in dense:
            try:
                out[country] = self._noted(country, g, fit_wls(self.designs.design(g)))
            except ValueError as exc:
                out[country] = exc
        return out

    def one(self, country: str | None) -> FitResult:
        """The fit of ``country``, raising the error :meth:`fit` records."""
        if isinstance(fit := self.fit([country])[country], ValueError):
            raise fit
        return fit

    def _noted(self, country: str | None, g: int, fit: FitResult) -> FitResult:
        """``fit``, with a note when it rests on fewer than three rounds."""
        n_periods = int(self.n_periods[g])
        if n_periods >= 3:
            return fit
        label = country if country is not None else "pooled sample"
        note = (
            f"{label}: only {n_periods} distinct survey round(s); period "
            "and cohort factors have little leverage"
        )
        return replace(fit, notes=(note,))

    def _solve(self, stack: list, out: dict) -> list:
        """Fit the countries of ``stack`` in one stacked solve into
        ``out``; returns those the certificate does not clear."""
        gram, xty, yty = self.designs.moments()
        spare = self.designs.width
        widths = np.array([len(labels) for *_, labels in stack])
        groups = np.array([g for _, g, _, _ in stack])
        # each country's columns, then the all-zero spare column
        index = np.full((len(stack), widths.max()), spare)
        for i, (_, _, columns, _) in enumerate(stack):
            index[i, : len(columns)] = columns

        def spread(beta: np.ndarray) -> np.ndarray:
            coef = np.zeros_like(xty)
            coef[groups[:, None], index] = beta
            return coef

        certified, beta, r_inv, rss = _csne(
            gram[groups[:, None, None], index[:, :, None], index[:, None, :]],
            xty[groups[:, None], index],
            widths,
            lambda b: self.designs.xte(spread(b))[groups[:, None], index],
            lambda b: self.designs.rss(spread(b))[groups],
        )
        rejected = []
        for i, (country, g, columns, labels) in enumerate(stack):
            if not certified[i]:
                rejected.append(stack[i])
                continue
            k = len(labels)
            # the intercept row of the Gram matrix holds Σw·x for every column
            sums = gram[g, columns[labels.index("const")], columns]
            out[country] = self._noted(country, g, _fit_result(
                labels, int(self.held[g]), beta[i, :k], r_inv[i, :k, :k], float(rss[i]),
                float(yty[g]), sums / sums[labels.index("const")],
            ))
        return rejected


def fit_spec(
    survey: Survey,
    spec: ModelSpec,
    country: str | None = None,
) -> FitResult:
    """Fit one spec for one country (or the pooled sample when ``country``
    is None): the one-country case of :func:`batch_fit`, raising the
    error that it records.

    The spec's sample restrictions apply (age cap, listwise deletion
    when controls are on). Raises :class:`EmptySampleError` for a
    country the survey does not hold or the restrictions empty, and
    :class:`DesignError` for a cohort-controlled spec on fewer than two
    distinct rounds. When fewer than three rounds remain, period and
    cohort factors are identified but have little leverage, and the
    fit's ``notes`` say so.
    """
    return _SpecFits(survey, spec, pooled=country is None).one(country)


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


def _nested_fits(
    survey: Survey, spec: ModelSpec, country: str, drop: np.ndarray | None
) -> tuple[FitResult, FitResult]:
    """``fit_spec(survey, spec, country)`` and the same without the rows
    ``drop`` (None: none), raising as those would, from one encoding of
    the ranges ``spec``. Of ``n`` countries, the rows of ``c`` that the
    spec keeps are cell ``c``, or ``c + n`` when dropped: the full
    sample's group is both cells, the subset's the first."""
    if drop is None:
        return (fit_spec(survey, spec, country),) * 2
    survey._derived.pop("quadratic passes", None)
    n = len(survey.country_levels)
    keep, _ = filter_mask(survey, _filter_for(spec))
    group = np.where(keep, survey.country_codes + n * drop, 2 * n)
    designs = GroupedDesigns(survey, terms_for(spec), group, 2 * n + 1)
    cells = np.arange(n)[:, None] + [0, n]
    return tuple(
        _SpecFits(survey, spec, False, designs.merged(view, designs.terms), kept).one(country)
        for view, kept in ((cells, None), (cells[:, :1], ~drop))
    )


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
    """Fit one spec across countries in one pass (see the module
    docstring), each country exactly as :func:`fit_spec` fits it,
    isolating failures. A quadratic spec reads the pass it shares with
    the other quadratic specs fitted on ``survey`` (see
    :func:`_quadratic_designs`), and its fits are the same bit for bit
    whichever of them were fitted before.

    ``countries`` defaults to first-appearance order in ``survey``. A
    country the data cannot support (absent from the survey, no rows
    after filtering, rank deficiency, a single survey round under a
    cohort spec) yields an error entry; other countries are unaffected.
    A fitted country's notes are its fit's notes.
    """
    fits = _SpecFits(survey, spec, pooled=False)
    if countries is None:
        countries = list(fits.index)
    outcomes = fits.fit(countries)
    results: list[CountryResult] = []
    for country in countries:
        result = CountryResult(country=country)
        outcome = outcomes[country]
        if isinstance(outcome, ValueError):
            result.error = str(outcome)
        else:
            result.fit = outcome
            result.notes.extend(outcome.notes)
        results.append(result)
    return results
