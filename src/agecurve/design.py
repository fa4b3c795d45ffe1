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

from dataclasses import dataclass, field
from typing import Sequence

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
            f"record {missing[0]} has no {variable!r}; apply listwise deletion "
            f"(FilterSpec.listwise_vars) before building the design"
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
