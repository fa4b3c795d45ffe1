"""Labeled design matrices for the model battery.

Each term declares what it contributes (an intercept, age as a polynomial
or as range indicators, period and birth-cohort factors, categorical
controls) and :func:`build_design` turns a :class:`Survey` plus a term
list into a dense float matrix with one human-readable label per column.
Factor encoding is dummy coding against a named reference level; levels
that are declared but unobserved are dropped and logged, never silently
absorbed.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

from .dataset import CONTROL_VARS, EmptySampleError, Survey, cohort_bin

__all__ = [
    "COARSE_BINS",
    "FINE_BINS",
    "COARSE_REFERENCE",
    "FINE_REFERENCE",
    "DesignError",
    "TermSpec",
    "DesignMatrix",
    "age_bin_label",
    "scheme_bin_labels",
    "encode_categorical",
    "distinct_codes",
    "group_designs",
    "build_design",
]


class DesignError(ValueError):
    """A design cannot be built from the given survey and terms."""


# (label, low, high) with high=None meaning open-ended. Both schemes
# cover every age from 15 up, so binning is total.
COARSE_BINS: tuple[tuple[str, int, int | None], ...] = (
    ("15-34", 15, 34),
    ("35-59", 35, 59),
    ("60-74", 60, 74),
    ("75+", 75, None),
)
FINE_BINS: tuple[tuple[str, int, int | None], ...] = (
    ("15-24", 15, 24),
    ("25-34", 25, 34),
    ("35-44", 35, 44),
    ("45-54", 45, 54),
    ("55-64", 55, 64),
    ("65-74", 65, 74),
    ("75-84", 75, 84),
    ("85+", 85, None),
)
COARSE_REFERENCE = "35-59"
FINE_REFERENCE = "35-44"

_SCHEMES = {"coarse": COARSE_BINS, "fine": FINE_BINS}
_SCHEME_REFERENCES = {"coarse": COARSE_REFERENCE, "fine": FINE_REFERENCE}


def scheme_bin_labels(scheme: str) -> list[str]:
    """Bin labels of a scheme in age order."""
    if scheme not in _SCHEMES:
        raise ValueError(f"unknown bin scheme {scheme!r}; use 'coarse' or 'fine'")
    return [label for label, _, _ in _SCHEMES[scheme]]


def age_bin_label(age: int, scheme: str = "coarse") -> str:
    """Bin label for an age under the named scheme.

    Total on ages 15 and up; ages below 15 are outside the survey
    population and raise.
    """
    if scheme not in _SCHEMES:
        raise ValueError(f"unknown bin scheme {scheme!r}; use 'coarse' or 'fine'")
    if age < 15:
        raise ValueError(f"age {age} below the survey minimum of 15")
    for label, low, high in _SCHEMES[scheme]:
        if age >= low and (high is None or age <= high):
            return label
    raise AssertionError("unreachable: bin schemes are total on ages >= 15")


@dataclass(frozen=True)
class TermSpec:
    """One additive piece of a model formula.

    Build instances through the classmethods; ``kind`` is one of
    ``intercept``, ``age_linear``, ``age_squared``, ``age_bins``,
    ``period_factor``, ``cohort_factor``, ``control_factor``.
    ``reference_level`` overrides the default reference of any factor
    term; it has no meaning for the non-factor kinds.
    """

    kind: str
    scheme: str | None = None
    width: int | None = None
    name: str | None = None
    reference_level: str | None = None

    @classmethod
    def intercept(cls) -> "TermSpec":
        return cls(kind="intercept")

    @classmethod
    def age_linear(cls) -> "TermSpec":
        return cls(kind="age_linear")

    @classmethod
    def age_squared(cls) -> "TermSpec":
        return cls(kind="age_squared")

    @classmethod
    def age_bins(cls, scheme: str = "coarse", reference: str | None = None) -> "TermSpec":
        if scheme not in _SCHEMES:
            raise ValueError(f"unknown bin scheme {scheme!r}; use 'coarse' or 'fine'")
        if reference is not None and reference not in {b[0] for b in _SCHEMES[scheme]}:
            raise ValueError(f"{reference!r} is not a bin of the {scheme} scheme")
        return cls(kind="age_bins", scheme=scheme, reference_level=reference)

    @classmethod
    def period(cls, reference: str | int | None = None) -> "TermSpec":
        ref = None if reference is None else str(reference)
        return cls(kind="period_factor", reference_level=ref)

    @classmethod
    def cohort(cls, width: int = 5, reference: str | None = None) -> "TermSpec":
        if width < 1:
            raise ValueError(f"bin width must be >= 1, got {width}")
        return cls(kind="cohort_factor", width=width, reference_level=reference)

    @classmethod
    def control(cls, name: str, reference: str | None = None) -> "TermSpec":
        if name not in CONTROL_VARS:
            raise ValueError(f"unknown control variable {name!r}")
        return cls(kind="control_factor", name=name, reference_level=reference)

    def describe(self) -> str:
        if self.kind == "age_bins":
            return f"age_bins({self.scheme})"
        if self.kind == "cohort_factor":
            return f"cohort_factor(width={self.width})"
        if self.kind == "control_factor":
            return f"control_factor({self.name})"
        return self.kind


@dataclass
class DesignMatrix:
    """A dense design with one label per column.

    ``dropped_levels`` records every factor level that was declared but
    produced no column, as ``(term, level, reason)`` triples.
    """

    values: np.ndarray
    column_labels: list[str]
    row_weights: np.ndarray
    response: np.ndarray
    dropped_levels: list[tuple[str, str, str]] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=np.float64)
        self.row_weights = np.asarray(self.row_weights, dtype=np.float64)
        self.response = np.asarray(self.response, dtype=np.float64)
        if self.values.ndim != 2:
            raise DesignError("values must be a 2-d array")
        n, p = self.values.shape
        if len(self.column_labels) != p:
            raise DesignError(
                f"{len(self.column_labels)} labels for {p} columns"
            )
        if len(set(self.column_labels)) != p:
            seen, dupes = set(), set()
            for label in self.column_labels:
                (dupes if label in seen else seen).add(label)
            raise DesignError(f"duplicate column labels: {sorted(dupes)}")
        if self.row_weights.shape != (n,) or self.response.shape != (n,):
            raise DesignError("row_weights and response must have one entry per row")
        if n == 0:
            raise DesignError("design has no rows")
        if not np.all(self.row_weights > 0):
            raise DesignError("row weights must all be positive")

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def p(self) -> int:
        return self.values.shape[1]

    def column(self, label: str) -> np.ndarray:
        return self.values[:, self.column_labels.index(label)]

    def weighted_column_means(self) -> np.ndarray:
        """Weighted mean of each column; for an indicator column this is
        the weighted share of its level."""
        return self.row_weights @ self.values / self.row_weights.sum()


def _level_sort_key(level: str) -> tuple[int, float, str]:
    """Numeric levels by value, then the rest alphabetically; the text
    breaks ties between spellings of one number ("9", "9.0")."""
    try:
        return (0, float(level), level)
    except ValueError:
        return (1, 0.0, level)


@dataclass
class _Factor:
    """One factor term coded once over every row. ``codes`` index
    ``levels`` (the column order), ``len(levels)`` marking a missing
    value. With ``declared`` every level is a candidate column, else a
    group's levels are those it holds; a ``reference`` of None is a
    group's first level. ``unobserved`` words the error for a reference
    the group lacks, given the group's levels."""

    term: str
    prefix: str
    levels: Sequence[str]
    codes: np.ndarray
    declared: bool
    reference: str | None
    one_level_note: str | None
    unobserved: Callable[[str, list[str]], str]

    def columns(
        self, counts: np.ndarray, codes: np.ndarray
    ) -> tuple[np.ndarray, list[str], list[tuple[str, str, str]]]:
        """Dummy coding of one group, given its rows' ``codes`` and its
        ``counts`` per code: each row's column (-1 for none), the labels
        ``prefix + level``, and the dropped levels, each candidate level
        without rows as ``(term, level, "no observations")`` followed,
        when one level is observed, by ``(term, reference,
        one_level_note)`` if there is a note."""
        counts = counts.tolist()
        if counts[-1]:
            _no_missing(self.term, codes == len(self.levels))
        held = [j for j, count in enumerate(counts[:-1]) if count or self.declared]
        levels = [self.levels[j] for j in held]
        reference = levels[0] if self.reference is None else self.reference
        if reference not in levels or not counts[held[levels.index(reference)]]:
            raise DesignError(self.unobserved(reference, levels))
        others = [j for j in held if self.levels[j] != reference]
        contrast = [j for j in others if counts[j]]
        dropped = [(self.term, self.levels[j], "no observations") for j in others if not counts[j]]
        if self.one_level_note is not None and sum(map(bool, counts[:-1])) == 1:
            dropped.append((self.term, reference, self.one_level_note))
        column_of = np.full(len(self.levels) + 1, -1)
        column_of[contrast] = np.arange(len(contrast))
        return column_of[codes], [f"{self.prefix}{self.levels[j]}" for j in contrast], dropped


def _no_missing(variable: str, missing: np.ndarray) -> None:
    rows = np.flatnonzero(missing)
    if rows.size:
        raise DesignError(
            f"record {rows[0]} has no {variable!r}; apply listwise deletion "
            f"(FilterSpec.listwise_vars) before building the design"
        )


def _fill(values: np.ndarray, offset: int, row_columns: np.ndarray) -> None:
    rows = np.flatnonzero(row_columns >= 0)
    values[rows, offset + row_columns[rows]] = 1.0


def _control_factor(survey: Survey, variable: str, reference: str | None) -> _Factor:
    """A control's factor, its levels in natural sort order."""
    if variable not in CONTROL_VARS:
        raise KeyError(f"unknown control variable {variable!r}")
    codes, levels = survey.controls[variable]
    order = sorted(range(len(levels)), key=lambda j: _level_sort_key(levels[j]))
    rank = np.full(len(levels) + 1, len(levels))
    rank[order] = np.arange(len(levels))
    return _Factor(
        variable, f"{variable}=", [levels[j] for j in order], rank[codes], False, reference,
        "only one observed level",
        lambda ref, held: f"reference level {ref!r} "
        + ("has no observations" if ref in held else "is not a declared level"),
    )


def distinct_codes(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct values in ascending order, and each value's index
    among them: ``np.unique(values, return_inverse=True)`` in half its
    temporary memory."""
    ordered = np.sort(values)
    starts = np.concatenate((ordered[:1], ordered[1:][ordered[1:] != ordered[:-1]]))
    return starts, np.searchsorted(starts, values)


def _term_factor(survey: Survey, term: TermSpec) -> _Factor:
    if term.kind == "age_bins":
        scheme = term.scheme or "coarse"
        bins = _SCHEMES[scheme]
        return _Factor(
            "age_bins", "bin:", [label for label, _, _ in bins],
            np.searchsorted([low for _, low, _ in bins], survey.age, side="right") - 1,
            True, term.reference_level or _SCHEME_REFERENCES[scheme], None,
            lambda ref, _: f"reference bin {ref!r} has no observations",
        )
    if term.kind == "control_factor":
        assert term.name is not None
        return _control_factor(survey, term.name, term.reference_level)
    if term.kind == "period_factor":
        starts, codes = distinct_codes(survey.period_year)
        levels, prefix = [str(year) for year in starts.tolist()], "period:"
    elif term.kind == "cohort_factor":
        width = term.width or 5
        starts, codes = distinct_codes(survey.birth_year // width)
        levels, prefix = [cohort_bin(start * width, width) for start in starts.tolist()], "cohort:"
    else:
        raise DesignError(f"unknown term kind {term.kind!r}")
    return _Factor(
        term.kind, prefix, levels, codes, False, term.reference_level or None,
        "only one observed level; no contrast columns",
        lambda ref, held: f"{term.kind} reference level {ref!r} not observed; "
        f"observed levels: {held}",
    )


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
    factor = _control_factor(survey, variable, reference)
    _no_missing(variable, factor.codes == len(factor.levels))
    if declared_levels is not None:
        observed = [factor.levels[j] for j in np.unique(factor.codes).tolist()]
        stray = set(observed) - set(declared_levels)
        if stray:
            raise DesignError(f"observed {variable!r} levels not declared: {sorted(stray)}")
        declared = list(declared_levels)
        # a level left out of declared_levels holds no row
        code_of = np.array(
            [declared.index(v) if v in declared else 0 for v in factor.levels], dtype=np.intp
        )
        factor = replace(
            factor, levels=declared, codes=code_of[factor.codes], declared=True,
            reference=observed[0] if reference is None else reference,
        )
    counts = np.bincount(factor.codes, minlength=len(factor.levels) + 1)
    row_columns, labels, dropped = factor.columns(counts, factor.codes)
    columns = np.zeros((len(survey), len(labels)))
    _fill(columns, 0, row_columns)
    return columns, labels, dropped


def group_designs(
    survey: Survey, terms: Sequence[TermSpec], group: np.ndarray, n_groups: int
) -> Callable[[int], DesignMatrix]:
    """The design of each group of rows, from one encoding of ``terms``.

    ``group`` gives each row's group, 0 to ``n_groups - 1``. Each term
    is encoded once over all rows, and the rows are sorted by group once,
    keeping their order within a group. The returned function builds
    group ``g``'s design, equal to :func:`build_design` on that group's
    rows alone, and raises as that would; ``g`` must hold a row.
    """
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

    order = None
    if n_groups > 1:
        # A stable sort of a narrow integer type is a radix sort.
        order = np.argsort(group.astype(np.min_scalar_type(n_groups)), kind="stable")

    def grouped(column: np.ndarray) -> np.ndarray:
        return column if order is None else column[order]

    bounds = np.concatenate(([0], np.cumsum(np.bincount(group, minlength=n_groups))))
    numeric = {
        "intercept": ("const", lambda ages: 1.0),
        "age_linear": ("age", lambda ages: ages),
        "age_squared": ("age_sq", lambda ages: ages**2),
    }
    encoded = []
    for term in terms:
        if term.kind in numeric:
            encoded.append(numeric[term.kind])
            continue
        factor = _term_factor(survey, term)
        width = len(factor.levels) + 1
        counts = np.bincount(group * width + factor.codes, minlength=n_groups * width)
        # Only the grouped codes are kept, in the narrowest type that holds them.
        factor = replace(factor, codes=grouped(factor.codes.astype(np.min_scalar_type(width))))
        encoded.append((factor, counts.reshape(n_groups, width)))
    age, weight, response = (grouped(c) for c in (survey.age, survey.weight, survey.happiness))

    def design(g: int) -> DesignMatrix:
        rows = slice(bounds[g], bounds[g + 1])
        ages = age[rows].astype(np.float64)
        labels: list[str] = []
        dropped: list[tuple[str, str, str]] = []
        blocks = []
        for term in encoded:
            if isinstance(term[0], _Factor):
                factor, counts = term
                row_columns, labs, drops = factor.columns(counts[g], factor.codes[rows])
                blocks.append((len(labels), row_columns, None))
                labels.extend(labs)
                dropped.extend(drops)
            else:
                blocks.append((len(labels), None, term[1](ages)))
                labels.append(term[0])
        values = np.zeros((bounds[g + 1] - bounds[g], len(labels)))
        for offset, row_columns, column in blocks:
            if column is None:
                _fill(values, offset, row_columns)
            else:
                values[:, offset] = column
        return DesignMatrix(values, labels, weight[rows], response[rows], dropped)

    return design


def build_design(survey: Survey, terms: Sequence[TermSpec]) -> DesignMatrix:
    """Assemble the design matrix for a term list: the one-group case
    of :func:`group_designs`.

    Exactly one intercept is required; ``age_linear`` and ``age_bins``
    are mutually exclusive (they answer the same question two ways);
    duplicate terms of any kind are rejected. Columns appear in term
    order, with factor levels in their natural order: age bins in scheme
    order, periods by year, cohorts by start year, and control levels in
    natural sort order over the levels the sample holds.
    """
    if not len(survey):
        raise EmptySampleError("cannot build a design from zero records")
    return group_designs(survey, terms, np.zeros(len(survey), dtype=np.intp), 1)(0)
