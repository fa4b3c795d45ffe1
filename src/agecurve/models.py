"""Named model specifications and per-country fitting.

Every fit is a sample of a pass over a survey (:func:`_pass`): each term
is encoded once, the rows of each group, a country or a Monte Carlo
replicate, are split into cells by a list of row masks, and each cell's
``X̃ᵀX̃`` and ``X̃ᵀỹ`` come from grouped sums over the codes (Wong,
Lewis & Wardrop, "You Only Compress Once", arXiv:2102.11297). A sample
is a model's terms and the masks whose rows it leaves out, and it fits
the union of the cells it keeps. A spec's pass splits by incomplete
controls and by ages above the cut, its cap or 69 without one
(:func:`_spec_samples`). A survey command names its specs up front, and
its fit plan (:func:`_fit_plan`) builds one pass for the specs of one
form and cut, over the union of their terms, each dropped before the
next is built. Nothing is kept on the survey, so :func:`batch_fit`, the
plan of one spec, builds a pass on each call, and :func:`fit_spec` one
over a country's rows alone. The replicates of an experiment are stacked
as the countries of one survey, whose pass splits by the rows their
smaller sample drops (see :mod:`agecurve.simulate`). The countries asked
for are solved in one stacked call of the :mod:`agecurve.wls` kernel,
without a dense design. Only a country whose Gram matrix has no Cholesky
factor or fails the full-rank certificate, or that has no more rows than
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

from collections import Counter
from dataclasses import dataclass, field, replace
from typing import Iterable, Sequence

import numpy as np

from .dataset import CONTROL_VARS, EmptySampleError, Survey
from .design import _SCHEME_REFERENCES, DesignError, GroupedDesigns, TermSpec, scheme_bin_labels
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
        scheme_bin_labels(self.scheme)  # raises on an unknown scheme
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

# The order of the term kinds in a model (see terms_for), the mediator
# of a Monte Carlo model last: a pass over several samples' terms keeps
# it, and so each sample's order.
_KINDS = (
    "intercept", "age_linear", "age_squared", "age_bins", "period_factor", "cohort_factor", "control_factor", "mediator"
)


def _spec_samples(survey: Survey, specs: Sequence[ModelSpec], cut: int) -> tuple[list, list[np.ndarray]]:
    """The samples of ``specs`` and the splits of their pass over
    ``survey``: incomplete controls, then ages above ``cut``. A spec
    leaves out the first when it has controls, the second when it has a
    cap."""
    incomplete = np.logical_or.reduce([codes < 0 for codes, _ in survey.controls.values()])
    samples = [(tuple(terms_for(s)), (0,) * s.controls + (1,) * (s.age_cap is not None)) for s in specs]
    return samples, [incomplete, survey.age > cut]


def _pass(
    survey: Survey, samples: Sequence[tuple], splits: Sequence[np.ndarray], group: np.ndarray, names: Sequence,
    groups: Sequence[int] | None = None,
) -> list[tuple[list[FitResult | ValueError], np.ndarray]]:
    """Each of ``samples``' fit of each of ``groups`` (default: all), as
    :meth:`_SpecFits.fit` gives it, and the rows each group holds in it,
    from one encoding of the samples' terms over ``survey``, dropped on
    return. A sample is a model's terms and the indices of the
    ``splits`` whose rows it leaves out; one given twice is fitted once.

    ``group`` numbers each row's group, one per name of ``names`` (None:
    the pooled sample), and the cells split each group by the row masks
    of ``splits``, the first the most significant: with k splits, group
    ``g`` holds cells ``g·2ᵏ`` to ``g·2ᵏ + 2ᵏ − 1``. A cell's sums for a
    term do not depend on the other terms of its pass, so neither does a
    sample's fit."""
    n, k, cell = len(names), len(splits), group
    for split in splits:
        cell = 2 * cell + split
    terms = sorted(dict.fromkeys(t for model, _ in samples for t in model), key=lambda t: _KINDS.index(t.kind))
    full, rows = GroupedDesigns(survey, terms, cell, n << k), np.bincount(group, minlength=n)
    fitted = {}
    for model, leaves in dict.fromkeys(samples):
        offsets = [0]
        for i in range(k):
            offsets = [2 * o + bit for o in offsets for bit in (0, 1)[: 1 if i in leaves else 2]]
        fits = _SpecFits(full.merged((np.arange(n) << k)[:, None] + offsets, model), names, rows)
        fitted[model, leaves] = fits.fit(range(n) if groups is None else groups), fits.held
    return [fitted[sample] for sample in samples]


class _SpecFits:
    """One sample's designs over groups of rows, each the cells it keeps
    of a pass (:func:`_pass`); :meth:`fit` fits groups by position.
    ``names`` names each group's country (None: the pooled sample)."""

    def __init__(self, designs: GroupedDesigns, names: Sequence[str | None], rows: Sequence[int]) -> None:
        self.designs, self.names, self.rows = designs, names, rows
        self.held = designs.held_rows()
        self.n_periods = designs.held_levels("period_factor")
        self.cohort = any(term.kind == "cohort_factor" for term in designs.terms)

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
            except ValueError as exc:  # its traceback would hold the pass in a cycle
                out[g] = exc.with_traceback(None)
        return [out[g] for g in groups]

    def _noted(self, g: int, fit: FitResult) -> FitResult:
        """``fit``, with a note when it rests on fewer than three rounds."""
        n_periods = int(self.n_periods[g])
        if n_periods >= 3:
            return fit
        label = self.names[g] if self.names[g] is not None else "pooled sample"
        note = f"{label}: only {n_periods} distinct survey round(s); period and cohort factors have little leverage"
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


def fit_spec(survey: Survey, spec: ModelSpec, country: str | None = None) -> FitResult:
    """Fit one spec for one country (or the pooled sample when ``country``
    is None), from a pass over that country's rows only, built on each
    call: the fit that :func:`batch_fit` records for it, bit for bit,
    raising the error instead.

    The spec's sample restrictions apply (age cap, listwise deletion
    when controls are on). Raises :class:`EmptySampleError` for a
    country the survey does not hold or the restrictions empty, and
    :class:`DesignError` for a cohort-controlled spec on fewer than two
    distinct rounds. When fewer than three rounds remain, period and
    cohort factors are identified but have little leverage, and the
    fit's ``notes`` say so.
    """
    if country is not None:
        code = survey.country_levels.index(country) if country in survey.country_levels else -1
        survey = survey.take(survey.country_codes == code)
    if not len(survey):
        raise EmptySampleError(f"country {country!r} not in the survey")
    samples, splits = _spec_samples(survey, [spec], spec.age_cap or _CUT)
    [((fit,), _)] = _pass(survey, samples, splits, np.zeros(len(survey), np.intp), (country,))
    return _fitted(fit)


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
    bins = scheme_bin_labels(scheme)  # raises on an unknown scheme
    reference = _SCHEME_REFERENCES[scheme]
    labels: list[str] = []
    levels: list[float] = []
    notes: list[str] = []
    for bin_label in bins:
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
    scheme_bin_labels(scheme)  # raises on an unknown scheme
    if spec is None:
        spec = PRESETS[f"ranges-{scheme}"]
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
    may add their own, such as the notes of a curve drawn from the fit.
    ``rows_in`` counts the country's rows, and ``dropped`` those the
    spec leaves out, each under the first reason it meets, "age above
    maximum" then "missing <control>" by name; a zero count is left out."""

    country: str
    fit: FitResult | None = None
    error: str | None = None
    notes: list[str] = field(default_factory=list)
    rows_in: int = 0
    dropped: Counter = field(default_factory=Counter)

    @property
    def ok(self) -> bool:
        return self.fit is not None


def batch_fit(survey: Survey, spec: ModelSpec, countries: Sequence[str] | None = None) -> list[CountryResult]:
    """Fit one spec across countries in one pass (see the module
    docstring), each country exactly as :func:`fit_spec` fits it,
    isolating failures: the fit plan of one spec (:func:`_fit_plan`),
    which builds its own pass on each call.

    ``countries`` defaults to first-appearance order in ``survey``. A
    country the data cannot support (absent from the survey, no rows
    after the age cap or listwise deletion, rank deficiency, a single
    survey round under a cohort spec) yields an error entry; other
    countries are unaffected. A fitted country's notes are its fit's
    notes. Every entry holds the ``rows_in`` and ``dropped`` tallies.
    """
    return _fit_plan(survey, [spec], countries)[0]


def _fit_plan(
    survey: Survey, specs: Sequence[ModelSpec], countries: Sequence[str] | None = None
) -> list[list[CountryResult]]:
    """:func:`batch_fit` of each of ``specs`` over the same ``countries``.
    The specs of one form and cut share one pass over the union of their
    terms (:func:`_plan_pass`), which is dropped before the next pass is
    built. The countries' rows and first-appearance order are counted
    once for all the specs."""
    codes, n = survey.country_codes, len(survey.country_levels)
    rows = np.bincount(codes, minlength=n)
    # A stable sort by code starts each country's run at its first row.
    order = np.argsort(codes.astype(np.min_scalar_type(n)), kind="stable")
    firsts = np.sort(order[(np.cumsum(rows) - rows)[rows > 0]])
    index = {survey.country_levels[g]: g for g in codes[firsts].tolist()}
    if countries is None:
        countries = list(index)
    passes: dict[tuple[str, int], list[ModelSpec]] = {}
    for spec in specs:
        passes.setdefault((spec.form, spec.age_cap or _CUT), []).append(spec)
    results: dict[ModelSpec, list[CountryResult]] = {}
    for (_, cut), members in passes.items():
        results.update(_plan_pass(survey, members, cut, rows, [index.get(c) for c in countries], countries))
    return [results[spec] for spec in specs]


def _plan_pass(
    survey: Survey, specs: list[ModelSpec], cut: int, rows: np.ndarray, groups: list, countries: Sequence[str]
) -> dict[ModelSpec, list[CountryResult]]:
    """The results of ``specs``, of one form, for ``countries`` (each in
    its group of ``groups``, None when the survey holds no row of it),
    from one pass over the union of their terms cut at ``cut``. The rows
    that miss a control are tallied once, for every controls spec."""
    samples, splits = _spec_samples(survey, specs, cut)
    names = sorted(CONTROL_VARS)
    # by country, the rows that miss a control up to the cut and above it
    by_side = np.zeros((len(rows), 2, len(names)), np.int64)
    if any(spec.controls for spec in specs):
        missing = np.array([survey.controls[name][0] < 0 for name in names])
        held = np.flatnonzero(missing.any(axis=0))
        key = (2 * survey.country_codes[held] + splits[1][held]) * len(names) + missing[:, held].argmax(axis=0)
        by_side = np.bincount(key, minlength=by_side.size).reshape(by_side.shape)
    reasons = ["age above maximum", *(f"missing {name}" for name in names)]
    known = [g for g in groups if g is not None]
    passed = _pass(survey, samples, splits, survey.country_codes, survey.country_levels, known)
    out: dict[ModelSpec, list[CountryResult]] = {}
    for spec, (fits, held_rows) in zip(specs, passed):
        outcomes = dict(zip(known, fits))
        # above a cap, the age is a row's first reason
        missed = (by_side[:, 0] + (0 if spec.age_cap else by_side[:, 1])) * spec.controls
        dropped = np.column_stack([rows - held_rows - missed.sum(axis=1), missed]).tolist()
        out[spec] = [CountryResult(country) for country in countries]
        for result, g in zip(out[spec], groups):
            outcome = EmptySampleError(f"country {result.country!r} not in the survey") if g is None else outcomes[g]
            if isinstance(outcome, ValueError):
                result.error = str(outcome)
            else:
                result.fit = outcome
                result.notes.extend(outcome.notes)
            if g is not None:
                result.rows_in = int(rows[g])
                result.dropped = Counter({reason: k for reason, k in zip(reasons, dropped[g]) if k})
    return out
