"""Named model specifications and per-country fitting.

Every fit reads one kind of pass over a survey, which is never copied:
each term is encoded once, and the rows are split into cells by
country, by complete controls and by age up to a cut, the spec's cap or
69 without one. Each cell's ``X̃ᵀX̃`` and ``X̃ᵀỹ`` come from grouped sums
over the codes (Wong, Lewis & Wardrop, "You Only Compress Once",
arXiv:2102.11297), and a spec fits the union of the cells it keeps.
A survey keeps one pass (:func:`_designs`); the replicates of a Monte
Carlo experiment, stacked as the countries of one survey, fit their
samples and a subset of each one's rows, those that attrition leaves,
from one pass the same way (:func:`_nested_fits`).
The countries asked for are solved in one stacked call of the
:mod:`agecurve.wls` kernel, without a dense design. Only a country whose
Gram matrix has no Cholesky factor or fails the full-rank certificate,
or that has no more rows than columns, has its dense design filled and
goes through :func:`agecurve.wls.fit_wls`, which names the columns of a
dependency.

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

from .dataset import CONTROL_VARS, EmptySampleError, Survey
from .design import (
    COARSE_REFERENCE,
    FINE_REFERENCE,
    DesignError,
    GroupedDesigns,
    TermSpec,
    scheme_bin_labels,
)
from .wls import FitResult, _csne, _fit_results, fit_wls

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


# The age at which a spec without a cap cuts its pass over the survey:
# the capped presets' cap, so that it shares their pass.
_CUT = PRESETS["quad-controls-cap"].age_cap


def _pass(survey: Survey, terms: list[TermSpec], cut: int, group: np.ndarray, n: int) -> GroupedDesigns:
    """One encoding of ``terms`` over ``survey`` whose cells split each
    of the ``n`` groups of ``group``: cell ``4g`` holds the rows of
    group ``g`` with complete controls and an age up to ``cut``,
    ``4g + 1`` those above it, and ``4g + 2`` and ``4g + 3`` the same
    with incomplete controls."""
    incomplete = np.logical_or.reduce([codes < 0 for codes, _ in survey.controls.values()])
    return GroupedDesigns(survey, terms, 4 * group + 2 * incomplete + (survey.age > cut), 4 * n)


def _kept(spec: ModelSpec, groups: np.ndarray) -> np.ndarray:
    """The cells of a pass that ``spec`` keeps of the groups in each row
    of ``groups``: complete controls only when it has controls, ages up
    to the cut only when it has a cap."""
    offsets = [i + j for i in (0, 2)[: 1 if spec.controls else 2] for j in (0, 1)[: 1 if spec.age_cap else 2]]
    return (4 * groups[..., None] + offsets).reshape(len(groups), -1)


def _designs(survey: Survey, spec: ModelSpec, pooled: bool, codes: np.ndarray, n: int) -> GroupedDesigns:
    """The designs of ``spec`` for the ``n`` countries of ``codes`` (or
    the pooled sample): the cells each keeps of the survey's one pass,
    cut at the spec's cap (``_CUT`` without one). A pass that is cut
    elsewhere or lacks a term of ``spec`` is dropped before a new one is
    built. A cell's sums for a term do not depend on the other terms of
    its pass, so neither does a spec's fit."""
    terms = terms_for(spec)
    key = (pooled, spec.age_cap or _CUT)
    held = survey._derived.pop("pass", None)
    if held is None or held[0] != key or not set(terms) <= set(held[1].terms):
        del held
        held = key, _pass(survey, terms, key[1], codes, n)
    survey._derived["pass"] = held
    return held[1].merged(_kept(spec, np.arange(n)[:, None]), terms)


class _SpecFits:
    """One spec over every country of a survey, or over the pooled
    sample, from the survey's pass (see :func:`_designs`); :meth:`fit`
    fits groups by position and :meth:`named` countries by name. A
    country's group is the union of the cells it keeps. ``index`` maps
    each country that holds rows, in first-appearance order, to its
    group. Given ``designs``, a view of a pass in place of ``spec``'s,
    they fit the rows ``kept`` (None: all), country ``g`` in their
    group ``g`` (see :func:`_nested_fits`)."""

    def __init__(
        self, survey: Survey, spec: ModelSpec | None, pooled: bool,
        designs: GroupedDesigns | None = None, kept: np.ndarray | None = None,
    ) -> None:
        codes = np.zeros(len(survey), np.intp) if pooled else survey.country_codes
        n_groups = 1 if pooled else len(survey.country_levels)
        held = codes if kept is None else codes[kept]
        self.rows = np.bincount(held, minlength=n_groups)
        # A stable sort by code starts each country's run at its first row.
        order = np.argsort(held.astype(np.min_scalar_type(n_groups)), kind="stable")
        firsts = np.sort(order[(np.cumsum(self.rows) - self.rows)[self.rows > 0]])
        self.names = (None,) if pooled else survey.country_levels
        self.index = {self.names[g]: g for g in held[firsts].tolist()}
        self.designs = _designs(survey, spec, pooled, codes, n_groups) if designs is None else designs
        self.held = self.designs.held_rows()
        self.n_periods = self.designs.held_levels("period_factor")
        self.cohort = any(term.kind == "cohort_factor" for term in self.designs.terms)

    def fit(self, groups: Sequence[int]) -> list[FitResult | ValueError]:
        """The fit of each of ``groups``, as :func:`fit_spec` describes
        it, or the error it raises: the one place that decides whether a
        spec is identified on a sample.

        An empty group and a cohort spec on fewer than two rounds are
        refused group by group; the others share one column layout, or
        its error, per distinct set of held levels
        (:meth:`GroupedDesigns.layouts`). Each with more rows than
        columns is solved in one stack (:meth:`_solve`); the rest, and
        any the stack's certificate does not clear, go through
        :func:`fit_wls`, which names the columns of a dependency."""
        out: dict[int, FitResult | ValueError] = {}
        live = []
        for g in dict.fromkeys(groups):
            if not self.held[g]:
                out[g] = EmptySampleError(f"filter removed all {self.rows[g]} records")
            elif self.cohort and self.n_periods[g] < 2:
                out[g] = DesignError(f"only {self.n_periods[g]} distinct survey round(s); cohort-controlled fit skipped")
            else:
                live.append(g)
        stack, dense = [], []
        for g, layout in zip(live, self.designs.layouts(live)):
            if isinstance(layout, ValueError):
                out[g] = layout
            else:
                (stack if self.held[g] > len(layout[1]) else dense).append((g, *layout))
        if stack:
            dense.extend(self._solve(stack, out))
        for g, _, _ in dense:
            try:
                out[g] = self._noted(g, fit_wls(self.designs.design(g)))
            except ValueError as exc:
                out[g] = exc
        return [out[g] for g in groups]

    def named(self, countries: Sequence[str | None]) -> dict[str | None, FitResult | ValueError]:
        """:meth:`fit` by country (``None``: the pooled sample); a country
        that holds no row is not in the survey."""
        known = [country for country in countries if country in self.index]
        fits = dict(zip(known, self.fit([self.index[country] for country in known])))
        for country in countries:
            fits.setdefault(country, EmptySampleError(f"country {country!r} not in the survey"))
        return fits

    def _noted(self, g: int, fit: FitResult) -> FitResult:
        """``fit``, with a note when it rests on fewer than three rounds."""
        n_periods = int(self.n_periods[g])
        if n_periods >= 3:
            return fit
        label = self.names[g] if self.names[g] is not None else "pooled sample"
        note = (
            f"{label}: only {n_periods} distinct survey round(s); period "
            "and cohort factors have little leverage"
        )
        return replace(fit, notes=(note,))

    def _solve(self, stack: list, out: dict) -> list:
        """Fit the groups of ``stack``, each ``(g, columns, labels)``, in
        one stacked solve into ``out``, forming the results of each width
        at once; returns those the certificate does not clear."""
        gram, xty, yty = self.designs.moments()
        spare = self.designs.width
        widths = np.array([len(labels) for *_, labels in stack])
        groups = np.array([g for g, _, _ in stack])
        # each group's columns, then the all-zero spare column
        index = np.full((len(stack), widths.max()), spare)
        for i, (_, columns, _) in enumerate(stack):
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
        # the intercept row of the Gram matrix holds Σw·x for every column
        one = index[0, stack[0][2].index("const")]
        means = gram[groups[:, None], one, index] / gram[groups, one, one][:, None]
        for w in sorted(set(widths.tolist())):
            i = np.flatnonzero((widths == w) & certified)
            fits = _fit_results(
                [stack[j][2] for j in i.tolist()], self.held[groups[i]], beta[i, :w],
                r_inv[i, :w, :w], rss[i], yty[groups[i]], means[i, :w],
            )
            for g, fit in zip(groups[i].tolist(), fits):
                out[g] = self._noted(g, fit)
        return [stack[i] for i in np.flatnonzero(~certified).tolist()]


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
    return _fitted(_SpecFits(survey, spec, pooled=country is None).named([country])[country])


def _fitted(fit: FitResult | ValueError) -> FitResult:
    """``fit``, raising it if it is the error a fit recorded."""
    if isinstance(fit, ValueError):
        raise fit
    return fit


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
    survey: Survey, spec: ModelSpec, drop: np.ndarray | None
) -> tuple[list[FitResult | ValueError], list[FitResult | ValueError]]:
    """Each country's fit by position, as :func:`fit_spec` fits it and
    records its error, and the same without the rows ``drop`` (None:
    none), from one pass over ``survey`` whose groups are ``c`` for the
    rows of country ``c`` that stay and ``c + n`` for those dropped, of
    ``n`` countries: the full sample keeps the cells of both, the subset
    those of the first."""
    n, terms = len(survey.country_levels), terms_for(spec)
    if drop is None:
        return (_SpecFits(survey, spec, False).fit(range(n)),) * 2
    designs = _pass(survey, terms, spec.age_cap or _CUT, survey.country_codes + n * drop, 2 * n)
    countries = np.arange(n)[:, None]
    return tuple(
        _SpecFits(survey, spec, False, designs.merged(_kept(spec, groups), terms), kept).fit(range(n))
        for groups, kept in ((countries + [0, n], None), (countries, ~drop))
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
    isolating failures. A spec's fits are the same bit for bit whichever
    specs were fitted on ``survey`` before (see :func:`_designs`).

    ``countries`` defaults to first-appearance order in ``survey``. A
    country the data cannot support (absent from the survey, no rows
    after filtering, rank deficiency, a single survey round under a
    cohort spec) yields an error entry; other countries are unaffected.
    A fitted country's notes are its fit's notes.
    """
    fits = _SpecFits(survey, spec, pooled=False)
    if countries is None:
        countries = list(fits.index)
    outcomes = fits.named(countries)
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
