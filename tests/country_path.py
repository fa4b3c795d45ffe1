"""The per-country reference path: agecurve's ``fit_spec``,
``batch_fit``, ``apply_filter``, ``build_design``,
``encode_categorical`` and ``_encode_factor`` as they were when every
(country, spec) pair ran its own filter and design build on its
country's part of the survey, kept verbatim so that
``test_country_equivalence.py`` can check the one-pass-per-spec path
against them. ``Survey.take`` and ``Survey.by_country`` are module
functions here, without the kept parts, ``take`` passes the country
codes through, as ``Survey.take`` does, and otherwise only the imports
differ. ``FilterSpec``, ``FilterReport`` and ``filter_mask`` are the
declarative filter as it was before the fits' own drop tallies
(``CountryResult.rows_in`` and ``dropped``) replaced it, kept verbatim
as the reference for those tallies and for ``record_path.py``.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field, replace
from typing import Mapping, Sequence

import numpy as np

from agecurve.dataset import (
    _NUMERIC,
    CONTROL_VARS,
    EmptySampleError,
    Survey,
    _factor,
    _tally,
    cohort_bin,
)
from agecurve.design import (
    _SCHEME_REFERENCES,
    _SCHEMES,
    DesignError,
    DesignMatrix,
    TermSpec,
)
from agecurve.models import CountryResult, ModelSpec, terms_for
from agecurve.wls import FitResult, fit_wls


@dataclass(frozen=True)
class FilterSpec:
    """Declarative sample restriction.

    ``listwise_vars`` names control variables whose missingness should
    drop the row (listwise deletion); only members of
    :data:`CONTROL_VARS` can be missing, so only those are accepted.
    """

    min_age: int = 15
    max_age: int | None = None
    countries: frozenset[str] | None = None
    listwise_vars: frozenset[str] = frozenset()

    def __post_init__(self) -> None:
        if self.min_age < 15:
            raise ValueError("min_age below the survey minimum of 15")
        if self.max_age is not None and self.max_age < self.min_age:
            raise ValueError(f"max_age {self.max_age} below min_age {self.min_age}")
        unknown = set(self.listwise_vars) - set(CONTROL_VARS)
        if unknown:
            raise ValueError(f"listwise_vars not control variables: {sorted(unknown)}")


@dataclass
class FilterReport:
    n_in: int = 0
    n_kept: int = 0
    dropped: Counter = field(default_factory=Counter)


def filter_mask(survey: Survey, spec: FilterSpec) -> tuple[np.ndarray, FilterReport]:
    """The rows a spec keeps, as a boolean mask over ``survey``, and the
    report of what it dropped; the mask may keep no row.

    Each dropped row is tallied under the first rule it fails: age below
    the minimum, age above the maximum, country excluded, then a missing
    listwise variable in name order.
    """
    rules = [("age below minimum", survey.age < spec.min_age)]
    if spec.max_age is not None:
        rules.append(("age above maximum", survey.age > spec.max_age))
    if spec.countries is not None:
        allowed = np.array([name in spec.countries for name in survey.country_levels], dtype=bool)
        rules.append(("country excluded", ~allowed[survey.country_codes]))
    rules.extend(
        (f"missing {name}", survey.controls[name][0] < 0)
        for name in sorted(spec.listwise_vars)
    )
    keep, dropped = _tally(len(survey), rules)
    return keep, FilterReport(n_in=len(survey), n_kept=int(keep.sum()), dropped=dropped)


def take(survey: Survey, rows) -> Survey:
    """The rows selected by a boolean mask or an index array, in the
    order the index gives."""
    rows = np.asarray(rows)
    if rows.dtype != bool:
        rows = rows.astype(np.intp)
    return Survey(
        country_codes=survey.country_codes[rows],
        country_levels=survey.country_levels,
        **{name: getattr(survey, name)[rows] for name in _NUMERIC},
        controls={name: (codes[rows], levels) for name, (codes, levels) in survey.controls.items()},
        mediator=None if survey.mediator is None else survey.mediator[rows],
    )


def by_country(survey: Survey) -> Mapping[str, Survey]:
    """One survey per country, in first-appearance order, each with
    its rows in survey order."""
    codes, names = _factor(survey.country.tolist())
    rows = np.argsort(codes, kind="stable")
    parts = np.split(rows, np.cumsum(np.bincount(codes, minlength=len(names)))[:-1])
    return {name: take(survey, part) for name, part in zip(names, parts)}


def apply_filter(survey: Survey, spec: FilterSpec) -> tuple[Survey, FilterReport]:
    """Restrict a sample, preserving order.

    Each dropped row is tallied under the first rule it fails: age below
    the minimum, age above the maximum, country excluded, then a missing
    listwise variable in name order. Raises :class:`EmptySampleError`
    when nothing survives, since an empty sample cannot support any fit.
    """
    rules = [("age below minimum", survey.age < spec.min_age)]
    if spec.max_age is not None:
        rules.append(("age above maximum", survey.age > spec.max_age))
    if spec.countries is not None:
        allowed = np.array(sorted(spec.countries), dtype=object)
        rules.append(("country excluded", ~np.isin(survey.country, allowed)))
    rules.extend(
        (f"missing {name}", survey.controls[name][0] < 0)
        for name in sorted(spec.listwise_vars)
    )
    keep, dropped = _tally(len(survey), rules)
    report = FilterReport(n_in=len(survey), n_kept=int(keep.sum()), dropped=dropped)
    if not report.n_kept:
        raise EmptySampleError(f"filter removed all {len(survey)} records")
    return take(survey, keep), report


def _level_sort_key(level: str) -> tuple[int, float, str]:
    """Numeric levels by value, then the rest alphabetically; the text
    breaks ties between spellings of one number ("9", "9.0")."""
    try:
        return (0, float(level), level)
    except ValueError:
        return (1, 0.0, level)


def _encode_factor(
    term: str,
    codes: np.ndarray,
    levels: Sequence[str],
    reference: str,
    prefix: str,
    one_level_note: str | None,
    unobserved_reference: str,
) -> tuple[np.ndarray, list[str], list[tuple[str, str, str]]]:
    """Dummy-code one factor against ``reference``.

    ``codes`` index ``levels``, whose order is the column order. Every
    non-reference level that is observed gets an indicator column
    labelled ``prefix + level``; one that is not is logged as
    ``(term, level, "no observations")``, and when only one level is
    observed ``(term, reference, one_level_note)`` follows, if a note is
    given. Raises :class:`DesignError` with ``unobserved_reference`` when
    the reference level has no rows.
    """
    counts = np.bincount(codes, minlength=len(levels))
    if reference not in levels or not counts[levels.index(reference)]:
        raise DesignError(unobserved_reference)
    others = [j for j, level in enumerate(levels) if level != reference]
    contrast = [j for j in others if counts[j]]
    dropped = [(term, levels[j], "no observations") for j in others if not counts[j]]
    if one_level_note is not None and np.count_nonzero(counts) == 1:
        dropped.append((term, reference, one_level_note))
    column_of = np.full(len(levels), -1)
    column_of[contrast] = np.arange(len(contrast))
    row_columns = column_of[codes]
    rows = np.flatnonzero(row_columns >= 0)
    columns = np.zeros((len(codes), len(contrast)), dtype=np.float64)
    columns[rows, row_columns[rows]] = 1.0
    return columns, [f"{prefix}{levels[j]}" for j in contrast], dropped


def encode_categorical(
    survey: Survey,
    variable: str,
    reference: str | None = None,
    declared_levels: Sequence[str] | None = None,
) -> tuple[np.ndarray, list[str], list[tuple[str, str, str]]]:
    """Dummy-code one control variable.

    Returns ``(columns, labels, dropped)`` where ``columns`` has one
    indicator per declared non-reference level that is actually observed
    and labels read ``"variable=level"``. The reference defaults to the
    first observed level in natural sort order (numeric strings by value,
    then the rest alphabetically). Missing values are an error here:
    callers decide on listwise deletion before encoding, not during.
    """
    if variable not in CONTROL_VARS:
        raise KeyError(f"unknown control variable {variable!r}")
    codes, levels = survey.controls[variable]
    missing = np.flatnonzero(codes < 0)
    if missing.size:
        raise DesignError(
            f"record {missing[0]} has no {variable!r}; apply listwise deletion first: drop "
            f"the rows with a missing value (Survey.take), as a controls spec does"
        )
    present = np.flatnonzero(np.bincount(codes, minlength=len(levels))).tolist()
    observed = sorted((levels[code] for code in present), key=_level_sort_key)
    if declared_levels is None:
        declared = observed
    else:
        declared = list(declared_levels)
        stray = set(observed) - set(declared)
        if stray:
            raise DesignError(
                f"observed {variable!r} levels not declared: {sorted(stray)}"
            )
    if reference is None:
        reference = observed[0]
    if reference not in declared:
        raise DesignError(f"reference level {reference!r} is not a declared level")
    declared_code = np.zeros(len(levels), dtype=np.int64)
    declared_code[present] = [declared.index(levels[code]) for code in present]
    return _encode_factor(
        variable,
        declared_code[codes],
        declared,
        reference,
        f"{variable}=",
        "only one observed level",
        f"reference level {reference!r} has no observations",
    )


def build_design(survey: Survey, terms: Sequence[TermSpec]) -> DesignMatrix:
    """Assemble the design matrix for a term list.

    Exactly one intercept is required; ``age_linear`` and ``age_bins``
    are mutually exclusive (they answer the same question two ways);
    duplicate terms of any kind are rejected. Columns appear in term
    order, with factor levels in their natural order: age bins in scheme
    order, periods by year, cohorts by start year, and control levels in
    natural sort order over the levels the sample holds.
    """
    if not len(survey):
        raise EmptySampleError("cannot build a design from zero records")

    kinds = [t.kind for t in terms]
    keys = [(t.kind, t.name) for t in terms]
    if len(set(keys)) != len(keys):
        dupes = sorted({t.describe() for t in terms if keys.count((t.kind, t.name)) > 1})
        raise DesignError(f"duplicate terms: {dupes}")
    if kinds.count("intercept") != 1:
        raise DesignError("the design must contain exactly one intercept term")
    if "age_linear" in kinds and "age_bins" in kinds:
        raise DesignError("age_linear and age_bins are mutually exclusive")
    if "age_squared" in kinds and "age_bins" in kinds:
        raise DesignError("age_squared and age_bins are mutually exclusive")

    n = len(survey)
    ages = survey.age.astype(np.float64)
    blocks: list[np.ndarray] = []
    labels: list[str] = []
    dropped: list[tuple[str, str, str]] = []

    for term in terms:
        if term.kind == "intercept":
            cols, labs, drops = np.ones((n, 1)), ["const"], []
        elif term.kind == "age_linear":
            cols, labs, drops = ages[:, None], ["age"], []
        elif term.kind == "age_squared":
            cols, labs, drops = (ages**2)[:, None], ["age_sq"], []
        elif term.kind == "age_bins":
            scheme = term.scheme or "coarse"
            bins = _SCHEMES[scheme]
            reference = term.reference_level or _SCHEME_REFERENCES[scheme]
            codes = np.searchsorted([low for _, low, _ in bins], survey.age, side="right") - 1
            cols, labs, drops = _encode_factor(
                "age_bins", codes, [label for label, _, _ in bins], reference, "bin:",
                None, f"reference bin {reference!r} has no observations",
            )
        elif term.kind in ("period_factor", "cohort_factor"):
            if term.kind == "period_factor":
                starts, codes = np.unique(survey.period_year, return_inverse=True)
                levels = [str(year) for year in starts.tolist()]
                prefix = "period:"
            else:
                width = term.width or 5
                starts, codes = np.unique(
                    (survey.birth_year // width) * width, return_inverse=True
                )
                levels = [cohort_bin(start, width) for start in starts.tolist()]
                prefix = "cohort:"
            reference = term.reference_level or levels[0]
            cols, labs, drops = _encode_factor(
                term.kind, codes, levels, reference, prefix,
                "only one observed level; no contrast columns",
                f"{term.kind} reference level {reference!r} not observed; "
                f"observed levels: {levels}",
            )
        elif term.kind == "control_factor":
            assert term.name is not None
            cols, labs, drops = encode_categorical(survey, term.name, term.reference_level)
        else:
            raise DesignError(f"unknown term kind {term.kind!r}")
        blocks.append(cols)
        labels.extend(labs)
        dropped.extend(drops)

    values = np.hstack(blocks)
    return DesignMatrix(values, labels, survey.weight, survey.happiness, dropped)


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
    parts = by_country(survey)
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
