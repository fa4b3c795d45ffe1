"""Labeled design matrices for the model battery.

Each term declares what it contributes (an intercept, age as a polynomial
or as range indicators, period and birth-cohort factors, categorical
controls, a synthetic mediator) and :func:`build_design` turns a
:class:`Survey` plus a term list into a dense float matrix with one
human-readable label per column.
Factor encoding is dummy coding against a named reference level; an age
bin without observations is dropped and logged, never silently absorbed.
:class:`GroupedDesigns` encodes the terms once over cells of rows (a
survey's countries, each split by the sample restrictions) and fits
groups that are unions of cells: it names each group's columns and forms
every group's sufficient statistics ``X̃ᵀX̃`` and ``X̃ᵀỹ`` as the sum of
its cells', from the codes without filling a matrix, and fills one
group's dense design only when asked.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .dataset import CONTROL_VARS, EmptySampleError, Survey, cohort_bin, distinct_codes

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
    "distinct_codes",
    "GroupedDesigns",
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
# each age's bin code per scheme, ages 0 to 120 (an older age takes 120's)
_BIN_CODES = {
    scheme: (np.searchsorted([low for _, low, _ in bins], np.arange(121), side="right") - 1).astype(np.int8)
    for scheme, bins in _SCHEMES.items()
}


def scheme_bin_labels(scheme: str) -> list[str]:
    """Bin labels of a scheme in age order."""
    if scheme not in _SCHEMES:
        raise ValueError(f"unknown bin scheme {scheme!r}; use 'coarse' or 'fine'")
    return [label for label, _, _ in _SCHEMES[scheme]]


def age_bin_label(age: int, scheme: str = "coarse") -> str:
    """Bin label for an age under the named scheme, by its whole years.

    Total on ages 15 and up; ages below 15 are outside the survey
    population and raise.
    """
    labels = scheme_bin_labels(scheme)
    if age < 15:
        raise ValueError(f"age {age} below the survey minimum of 15")
    return labels[_BIN_CODES[scheme][min(int(age), 120)]]


@dataclass(frozen=True)
class TermSpec:
    """One additive piece of a model formula.

    Build instances through the classmethods; ``kind`` is one of
    ``intercept``, ``age_linear``, ``age_squared``, ``age_bins``,
    ``period_factor``, ``cohort_factor``, ``control_factor``, ``mediator``.
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
        labels = scheme_bin_labels(scheme)
        if reference is not None and reference not in labels:
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
    def mediator(cls) -> "TermSpec":
        return cls(kind="mediator")

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


@dataclass(eq=False)
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
    value. ``declared`` makes every level a candidate column, so one
    that a group lacks is a dropped level; ``reference`` names the
    level without a column (see :meth:`GroupedDesigns._coding`).
    ``unobserved`` words the error for a reference the group lacks,
    given the group's candidate levels."""

    term: str
    prefix: str
    levels: Sequence[str]
    codes: np.ndarray
    declared: bool
    reference: str | None
    one_level_note: str | None
    unobserved: Callable[[str, list[str]], str]


def _control_factor(survey: Survey, variable: str, reference: str | None) -> _Factor:
    """A control's factor, its levels in natural sort order."""
    if variable not in CONTROL_VARS:
        raise KeyError(f"unknown control variable {variable!r}")
    codes, levels = survey.controls[variable]
    order = sorted(range(len(levels)), key=lambda j: _level_sort_key(levels[j]))
    rank = np.full(len(levels) + 1, len(levels), np.min_scalar_type(len(levels)))
    rank[order] = np.arange(len(levels))
    return _Factor(
        variable, f"{variable}=", [levels[j] for j in order], rank[codes], False, reference,
        "only one observed level",
        lambda ref, held: f"reference level {ref!r} "
        + ("has no observations" if ref in held else "is not a declared level"),
    )


def _term_factor(survey: Survey, term: TermSpec) -> _Factor:
    if term.kind == "age_bins":
        scheme = term.scheme or "coarse"
        bins = _SCHEMES[scheme]
        return _Factor(
            "age_bins", "bin:", [label for label, _, _ in bins],
            _BIN_CODES[scheme].take(survey.age, mode="clip"),
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
        term.kind, prefix, levels, codes.astype(np.min_scalar_type(len(levels))), False,
        term.reference_level or None,
        "only one observed level; no contrast columns",
        lambda ref, held: f"{term.kind} reference level {ref!r} not observed; "
        f"observed levels: {held}",
    )


# The terms that are numbers rather than factors, each a function of age.
_NUMERIC_TERMS: dict[str, tuple[str, Callable[[np.ndarray], np.ndarray]]] = {
    "intercept": ("const", np.ones_like),
    "age_linear": ("age", lambda ages: ages),
    "age_squared": ("age_sq", lambda ages: ages**2),
}


class GroupedDesigns:
    """The design of each group of rows, from one encoding of ``terms``.

    ``cell`` gives each row's cell, 0 to ``n_cells - 1``. Each cell is a
    group, and :meth:`merged` makes groups that are unions of cells, so
    a sample restriction is the cells a group leaves out. Each term is
    encoded once over all rows and counted per cell. Every group's
    columns sit in one global layout, a column per numeric term and per
    level of each factor term, of which :meth:`layout` names the ones a
    group's design holds, and :meth:`layouts` those of many groups.

    :meth:`design` fills one group's dense design. :meth:`moments` forms
    every group's ``X̃ᵀX̃``, ``X̃ᵀỹ`` and ``ỹᵀỹ`` in the global layout
    straight from the codes, and :meth:`xte` and :meth:`rss` take the
    residual of each group's coefficients row by row; none of these
    fills a dense matrix. The blocks of the numeric terms that are
    functions of age, and of each factor with them, are age-keyed: they
    come from weighted sums by (cell, age). Every other block is summed
    per cell: each factor's ``X̃ᵀỹ`` and its counts by level of each other
    factor, and ``ỹᵀỹ``. The mediator, a number given per row, has its
    column of ``X̃ᵀX̃`` formed as ``X̃ᵀỹ`` is, with itself in place of the
    response. A group's sums are those of its cells, added up.
    """

    def __init__(
        self, survey: Survey, terms: Sequence[TermSpec], cell: np.ndarray, n_cells: int
    ) -> None:
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

        self.terms = tuple(terms)
        self._age, self._weight, self._response = survey.age, survey.weight, survey.happiness
        if {"age_linear", "age_squared"} & set(kinds):
            ages, self._age_code = distinct_codes(survey.age)
        else:
            # only the intercept is a number, the same at every age: age
            # code 0 for every row, intp so keys stay intp under numpy 1
            ages, self._age_code = np.zeros(1), np.zeros(len(cell), np.intp)
        self._n_ages, self._cell = len(ages), cell
        # each row's (age, cell) sum, the cell varying fastest
        self._age_key = self._age_code * n_cells + cell
        self.n_groups = self._n_cells = n_cells
        # each group's cells, and every cell's sums once formed
        self._cells, self._sums = np.arange(n_cells)[:, None], None
        ages = ages.astype(np.float64)
        # (term, offset, (label, function)) or (term, offset, (factor, counts per cell))
        self._terms: list[tuple[TermSpec, int, tuple]] = []
        # the numeric terms' columns as functions of the distinct ages,
        # and their global indices
        age_columns: list[np.ndarray] = []
        self._age_index: list[int] = []
        # (term, factor, global indices, cell * width + code) per factor
        self._coded: list[tuple[TermSpec, _Factor, np.ndarray, np.ndarray]] = []
        # (term, global index, values) of a number given per row
        self._per_row: list[tuple[TermSpec, int, np.ndarray]] = []
        # every global column's label
        self._labels: list[str] = []
        offset = 0
        for term in terms:
            if term.kind == "mediator":
                if survey.mediator is None or np.isnan(survey.mediator).any():
                    raise DesignError("the mediator term needs a mediator value on every row")
                self._terms.append((term, offset, ("mediator", survey.mediator)))
                self._per_row.append((term, offset, survey.mediator))
                self._labels.append("mediator")
                offset += 1
                continue
            if term.kind in _NUMERIC_TERMS:
                label, column = _NUMERIC_TERMS[term.kind]
                if term.kind == "intercept":  # its place among the numeric columns
                    self._one = len(self._age_index)
                self._terms.append((term, offset, (label, column)))
                age_columns.append(column(ages)[:, None])
                self._age_index.append(offset)
                self._labels.append(label)
                offset += 1
                continue
            factor = _term_factor(survey, term)
            width = len(factor.levels) + 1
            key = self._cell * width + factor.codes
            counts = np.bincount(key, minlength=self._n_cells * width).reshape(self._n_cells, width)
            self._terms.append((term, offset, (factor, counts)))
            self._coded.append((term, factor, np.arange(offset, offset + width - 1), key))
            self._labels.extend(factor.prefix + level for level in factor.levels)
            offset += width - 1
        self.width = offset
        self._age_columns = np.hstack(age_columns)

    def merged(self, cells: np.ndarray, terms: Sequence[TermSpec]) -> GroupedDesigns:
        """The designs of ``terms``, in this one's order and global
        columns, for groups that are unions of cells: group ``i`` holds
        the cells in row ``i`` of ``cells``, no cell in two groups."""
        self._cell_sums()
        view = copy.copy(self)
        view.n_groups, view._cells = len(cells), np.asarray(cells)
        view._terms = [
            (term, offset, (detail[0], view._sum(detail[1])) if isinstance(detail[0], _Factor) else detail)
            for term, offset, detail in self._terms
            if term in terms
        ]
        view.terms = tuple(term for term, _, _ in view._terms)
        view._coded = [entry for entry in self._coded if entry[0] in terms]
        view._per_row = [entry for entry in self._per_row if entry[0] in terms]
        if view.terms != tuple(terms):
            raise DesignError("merged terms must be terms of the design, in its order")
        return view

    def _sum(self, per_cell: np.ndarray) -> np.ndarray:
        """Each group's sum of ``per_cell`` over its cells, added in their
        order one cell at a time, without a temporary that holds them all."""
        total = per_cell[self._cells[:, 0]]
        for cells in self._cells.T[1:]:
            total += per_cell[cells]
        return total

    def _rows(self, g: int) -> np.ndarray | slice:
        return slice(None) if self._n_cells == 1 else np.flatnonzero(np.isin(self._cell, self._cells[g]))

    def held_rows(self) -> np.ndarray:
        """How many rows each group holds."""
        return self._sum(self._cell_sums()[0])

    def held_levels(self, kind: str) -> np.ndarray:
        """How many levels of the factor term of ``kind`` each group holds."""
        for _, _, (factor, counts) in self._terms:
            if isinstance(factor, _Factor) and factor.term == kind:
                return np.count_nonzero(counts[:, :-1], axis=1)
        raise KeyError(f"no {kind} term")

    def _coding(self, groups: np.ndarray) -> tuple[np.ndarray, list[DesignError | None]]:
        """Which global columns each of ``groups`` has, as a groups ×
        :attr:`width` mask, and the error that refuses each group, or
        None. A factor term has a column for each level a group holds
        but its reference: the term's own, else its first declared
        level, else its first held level. A group is refused at its
        first term, in term order, with a missing value (this error
        first) or without its reference."""
        n = len(groups)
        present = np.zeros((n, self.width), bool)
        errors: list[DesignError | None] = [None] * n
        for _, offset, (factor, counts) in self._terms:
            if not isinstance(factor, _Factor):
                present[:, offset] = True
                continue
            missing = counts[groups, -1] > 0
            # whether each group holds each level, and a last column of
            # False for a reference that is not a level
            held = counts[groups] > 0
            held[:, -1] = False
            names = [*factor.levels, factor.reference]
            if factor.reference is not None:
                reference = np.full(n, names.index(factor.reference))
            else:
                reference = np.zeros(n, np.intp) if factor.declared else held.argmax(axis=1)
            lacks = ~held[np.arange(n), reference]
            for i in np.flatnonzero(missing | lacks).tolist():
                if errors[i] is not None:
                    continue
                if missing[i]:
                    codes = factor.codes[self._rows(int(groups[i]))]
                    errors[i] = DesignError(
                        f"record {np.flatnonzero(codes == len(factor.levels))[0]} has no "
                        f"{factor.term!r}; apply listwise deletion first: drop the rows with a "
                        f"missing value (Survey.take), as a controls spec does"
                    )
                else:
                    candidates = range(len(factor.levels)) if factor.declared else np.flatnonzero(held[i])
                    errors[i] = DesignError(factor.unobserved(names[reference[i]], [names[j] for j in candidates]))
            held[np.arange(n), reference] = False
            present[:, offset:offset + len(factor.levels)] = held[:, :-1]
        return present, errors

    def _columns(self, present: np.ndarray) -> tuple[np.ndarray, list[str]]:
        """The global index and the label of each column in ``present``."""
        index = np.flatnonzero(present)
        return index, [self._labels[i] for i in index.tolist()]

    def layouts(self, groups: Sequence[int]) -> list[tuple[np.ndarray, list[str]] | ValueError]:
        """:meth:`layout` of each of ``groups``, or its error, naming the
        columns once per distinct set (see :meth:`_coding`)."""
        present, errors = self._coding(np.asarray(groups, dtype=np.intp))
        built: dict[bytes, tuple[np.ndarray, list[str]]] = {}
        out: list[tuple[np.ndarray, list[str]] | ValueError] = []
        # each group's mask row as one bytes key
        for columns, key, error in zip(present, present.view(f"V{self.width}").ravel().tolist(), errors):
            if error is None and key not in built:
                built[key] = self._columns(columns)
            out.append(error or built[key])
        return out

    def layout(self, g: int) -> tuple[np.ndarray, list[str]]:
        """The global index and the label of each column of group ``g``'s
        design, in design order; raises as :meth:`design` does."""
        layout = self.layouts([g])[0]
        if isinstance(layout, ValueError):
            raise layout
        return layout

    def design(self, g: int) -> DesignMatrix:
        """Group ``g``'s dense design, equal to :func:`build_design` on
        that group's rows alone, raising as that would; ``g`` must hold
        a row. Its columns are :meth:`layout`'s. A declared factor's
        levels without rows are dropped, then a factor's one held level
        with the term's note."""
        index, labels = self.layout(g)
        rows = self._rows(g)
        ages = self._age[rows].astype(np.float64)
        values = np.zeros((len(ages), len(labels)))
        # each global column's place in the design, -1 for none
        column = np.full(self.width, -1)
        column[index] = np.arange(len(index))
        dropped: list[tuple[str, str, str]] = []
        for _, offset, (term, detail) in self._terms:
            if not isinstance(term, _Factor):
                values[:, column[offset]] = detail[rows] if term == "mediator" else detail(ages)
                continue
            # a group with a design has no missing value
            at = column[offset:][term.codes[rows]]
            filled = np.flatnonzero(at >= 0)
            values[filled, at[filled]] = 1.0
            counts = detail[g, :-1]
            if term.declared:
                dropped.extend((term.term, level, "no observations") for level, n in zip(term.levels, counts) if not n)
            if term.one_level_note is not None and np.count_nonzero(counts) == 1:
                dropped.append((term.term, term.levels[counts.argmax()], term.one_level_note))
        return DesignMatrix(values, labels, self._weight[rows], self._response[rows], dropped)

    @staticmethod
    def _over_ages(sums: np.ndarray, columns: np.ndarray) -> np.ndarray:
        """``Σ_a sums[a, m, cell]·columns[a, i]``, as a (cell, i, m) array.
        ``np.einsum`` adds the ages in order in its own loops, not through
        BLAS, so that no cell's result depends on the other cells or on
        ages it does not hold, as it can in a matrix product; with the
        cells innermost it adds all cells at once."""
        return np.einsum("amc,ai->imc", sums, columns).transpose(2, 0, 1)

    def _cell_sums(self) -> tuple[np.ndarray, ...]:
        """Every cell's rows, ``X̃ᵀX̃``, ``X̃ᵀỹ`` and ``ỹᵀỹ``, for every term,
        formed on first use."""
        if self._sums is not None:
            return self._sums
        c, a, w = self._n_cells, self._n_ages, self._weight
        phi, age = self._age_columns, np.array(self._age_index)
        wy = w * self._response
        gram = np.zeros((c, self.width + 1, self.width + 1))
        outer = (phi[:, :, None] * phi[:, None, :]).reshape(a, -1)
        by_age = np.bincount(self._age_key, w, a * c).reshape(a, 1, c)
        gram[:, age[:, None], age] = self._over_ages(by_age, outer).reshape(c, len(age), len(age))
        for k, (_, factor, index, key) in enumerate(self._coded):
            width = len(factor.levels) + 1
            joint = np.bincount((self._age_code * width + factor.codes) * c + self._cell, w, a * width * c)
            block = self._over_ages(joint.reshape(a, width, c)[:, :-1], phi)
            gram[:, age[:, None], index] = block
            gram[:, index[:, None], age] = block.swapaxes(1, 2)
            # the intercept is 1 at every age: its row counts each level
            gram[:, index, index] = block[:, self._one]
            for _, other, other_index, other_key in self._coded[:k]:
                other_width = len(other.levels) + 1
                pair = np.bincount(other_key * width + factor.codes, w, c * other_width * width)
                pair = pair.reshape(c, other_width, width)[:, :-1, :-1]
                gram[:, other_index[:, None], index] = pair
                gram[:, index[:, None], other_index] = pair.swapaxes(1, 2)
        for _, j, values in self._per_row:
            gram[:, :, j] = gram[:, j] = self._cross(w * values)
        # a factor's counts, a missing value's included, count the rows
        counts = [detail[1] for _, _, detail in self._terms if isinstance(detail[0], _Factor)]
        rows = counts[0].sum(axis=1) if counts else np.bincount(self._cell, minlength=c)
        self._sums = rows, gram, self._cross(wy), np.bincount(self._cell, wy * self._response, c)
        return self._sums

    def _cross(self, wv: np.ndarray) -> np.ndarray:
        """Every cell's ``X̃ᵀ(√w·v)`` in the global layout, with the spare
        column, for each row's ``w·v`` in ``wv``."""
        c, a = self._n_cells, self._n_ages
        out = np.zeros((c, self.width + 1))
        by_age = np.bincount(self._age_key, wv, a * c).reshape(a, 1, c)
        out[:, self._age_index] = self._over_ages(by_age, self._age_columns)[..., 0]
        for _, factor, index, key in self._coded:
            width = len(factor.levels) + 1
            out[:, index] = np.bincount(key, wv, c * width).reshape(c, width)[:, :-1]
        for _, j, values in self._per_row:
            out[:, j] = np.bincount(self._cell, wv * values, c)
        return out

    def moments(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every group's ``X̃ᵀX̃`` and ``X̃ᵀỹ`` in the global layout, with one
        more all-zero column at its end, and its ``ỹᵀỹ``."""
        return tuple(self._sum(part) for part in self._cell_sums()[1:])

    def _residual(self, coef: np.ndarray) -> np.ndarray:
        """``y − Xβ`` of every row, β its group's row of ``coef`` (global
        layout plus the spare column), 0 for a row in no group."""
        by_cell = np.zeros((self._n_cells, coef.shape[1]))
        by_cell[self._cells] = coef[:, None]
        at_age = (self._age_columns[:, None, :] * by_cell[:, self._age_index]).sum(axis=2)
        fitted = at_age.ravel()[self._age_key]
        for _, factor, index, key in self._coded:
            table = np.zeros((self._n_cells, len(factor.levels) + 1))
            table[:, :-1] = by_cell[:, index]
            fitted += table.ravel()[key]
        for _, j, values in self._per_row:
            fitted += by_cell[self._cell, j] * values
        return self._response - fitted

    def xte(self, coef: np.ndarray) -> np.ndarray:
        """Every group's ``X̃ᵀ(ỹ − X̃β)`` in the global layout, for its
        coefficients β in the rows of ``coef``."""
        return self._sum(self._cross(self._weight * self._residual(coef)))

    def rss(self, coef: np.ndarray) -> np.ndarray:
        """Every group's ``‖ỹ − X̃β‖²``, for its coefficients β in the rows
        of ``coef``."""
        r = self._residual(coef)
        return self._sum(np.bincount(self._cell, self._weight * r * r, self._n_cells))


def build_design(survey: Survey, terms: Sequence[TermSpec]) -> DesignMatrix:
    """Assemble the design matrix for a term list: the one-group case
    of :class:`GroupedDesigns`.

    Exactly one intercept is required; ``age_linear`` and ``age_bins``
    are mutually exclusive (they answer the same question two ways);
    duplicate terms of any kind are rejected. Columns appear in term
    order, with factor levels in their natural order: age bins in scheme
    order, periods by year, cohorts by start year, and control levels in
    natural sort order over the levels the sample holds.
    """
    if not len(survey):
        raise EmptySampleError("cannot build a design from zero records")
    return GroupedDesigns(survey, terms, np.zeros(len(survey), dtype=np.intp), 1).design(0)
