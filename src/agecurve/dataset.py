"""Survey microdata: the columnar :class:`Survey`, CSV loading,
filtering, and cohort bins.

A survey keeps one numpy array per field, the country and each control
as int codes into a tuple of levels, and is never changed in place, so
one survey can be shared freely between model fits. Loading is tolerant
of messy input (rows are dropped with a counted reason, never silently).
A filter is a mask over the rows, which fits read without copying the
survey; :func:`apply_filter`, which selects the rows, is strict: an
empty result raises, because every downstream consumer needs a row.
"""

from __future__ import annotations

import csv
import functools
import itertools
import math
import operator
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence, TextIO

import numpy as np

from .render import write_csv

__all__ = [
    "CONTROL_VARS",
    "DEFAULT_MISSING",
    "DEFAULT_LABOR_MERGE",
    "ESS_SCHEMA",
    "IDENTITY_SCHEMA",
    "RoundYearMap",
    "DEFAULT_ROUND_MAP",
    "DataError",
    "EmptySampleError",
    "Survey",
    "LoadReport",
    "FilterSpec",
    "FilterReport",
    "load_csv",
    "save_csv",
    "filter_mask",
    "apply_filter",
    "cohort_bin",
]

# Categorical respondent attributes that models may condition on. These are
# the only fields allowed to be missing on a row.
CONTROL_VARS = ("sex", "education", "marital", "labor_status")

DEFAULT_MISSING = frozenset({"", "NA", "NaN", "nan", "na", "."})

# The survey's "main activity" question has a community/military-service
# category with tiny cell counts; it is folded into "other" on load.
DEFAULT_LABOR_MERGE: Mapping[str, str] = {
    "community or military service": "other",
    "community/military service": "other",
}

# The fields every row has; the country is coded, the rest are columns.
_FIELDS = ("country", "round", "period_year", "age", "happiness", "weight")
_NUMERIC = _FIELDS[1:]

#: Canonical column names, for files written by :func:`save_csv`.
IDENTITY_SCHEMA: Mapping[str, str] = {name: name for name in (*_FIELDS, *CONTROL_VARS)}

#: Column mapping for European Social Survey integrated files.
ESS_SCHEMA: Mapping[str, str] = {
    "country": "cntry",
    "round": "essround",
    "age": "agea",
    "happiness": "happy",
    "weight": "dweight",
    "sex": "gndr",
    "education": "eisced",
    "marital": "maritalb",
    "labor_status": "mnactic",
}


class DataError(ValueError):
    """Input data cannot be interpreted (bad header, no usable rows)."""


class EmptySampleError(DataError):
    """A filter removed every row, so no model could be fit."""


@dataclass(frozen=True)
class RoundYearMap:
    """Linear mapping between survey round number and fieldwork year.

    The default places round 1 in 2002 and advances two years per round,
    so rounds 1 through 8 span 2002 to 2016.
    """

    base: int = 2000
    step: int = 2

    def year(self, round_number: int) -> int:
        return self.base + self.step * round_number

    def round_for(self, year: int) -> int | None:
        """Inverse lookup; ``None`` when the year is off the grid."""
        offset, remainder = divmod(year - self.base, self.step)
        if remainder != 0 or offset < 1:
            return None
        return offset


DEFAULT_ROUND_MAP = RoundYearMap()


_ROW_KEYS = frozenset({*IDENTITY_SCHEMA, "mediator"})

# The fields every file must supply, and those it may leave out (at least
# one of round and period_year must be read).
_REQUIRED = ("country", "age", "happiness", "weight")
_OPTIONAL = frozenset({*CONTROL_VARS, "round", "period_year"})


def _factor(cells: Sequence, level: Callable = lambda cell: cell) -> tuple[np.ndarray, tuple]:
    """Int codes of each cell's ``level(cell)`` (-1 where that is
    ``None``) into a level tuple in first-appearance order; ``level``
    runs once per distinct cell."""
    index: dict[str, int] = {}
    code = {}
    for cell in dict.fromkeys(cells):
        value = level(cell)
        code[cell] = -1 if value is None else index.setdefault(value, len(index))
    return np.fromiter(map(code.__getitem__, cells), np.int64, len(cells)), tuple(index)


def _frozen(values, dtype) -> np.ndarray:
    """``values`` as a read-only array of ``dtype``; an array of that
    dtype is viewed, not copied, and the caller's array keeps its flags."""
    column = np.asarray(values, dtype=dtype).view()
    column.setflags(write=False)
    return column


@dataclass(frozen=True, eq=False)
class Survey:
    """Survey responses as numpy columns, one entry per row.

    The country is ``country_codes``, int64 codes into the
    ``country_levels`` tuple of distinct names, one per row; a level may
    hold no row. :attr:`country` spells out each row's name. ``round``,
    ``period_year`` and ``age`` are int64; ``happiness`` and ``weight``
    are float64. Each control is coded the same way, as ``(codes,
    levels)`` with -1 for a missing value; controls left out of
    ``controls`` are missing on every row. ``mediator`` is an optional
    synthetic-data column, never read from CSV files, NaN where a row
    has none. ``birth_year`` is derived as ``period_year - age``, so the
    three can never disagree. Every age is at least 15, every weight
    positive and every round at least 1. Every column is a read-only
    array.

    ``happiness`` is a float: the 0..10 integer scale of real survey
    data is enforced at load time, while synthetic generators are free
    to produce continuous values. Use :meth:`from_rows` to build a small
    survey by hand and :meth:`take` to select rows.
    """

    country_codes: np.ndarray
    country_levels: tuple[str, ...]
    round: np.ndarray
    period_year: np.ndarray
    age: np.ndarray
    happiness: np.ndarray
    weight: np.ndarray
    controls: Mapping[str, tuple[np.ndarray, tuple[str, ...]]] = field(default_factory=dict)
    mediator: np.ndarray | None = None
    birth_year: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        put = functools.partial(object.__setattr__, self)
        put("country_levels", tuple(self.country_levels))
        for name in ("country_codes", "round", "period_year", "age"):
            put(name, _frozen(getattr(self, name), np.int64))
        for name in ("happiness", "weight"):
            put(name, _frozen(getattr(self, name), np.float64))
        n = len(self.country_codes)
        unknown = set(self.controls) - set(CONTROL_VARS)
        if unknown:
            raise ValueError(f"unknown control variables: {sorted(unknown)}")
        controls = {}
        for name in CONTROL_VARS:
            codes, levels = self.controls.get(name, (np.full(n, -1), ()))
            controls[name] = (_frozen(codes, np.int64), tuple(levels))
        put("controls", controls)
        if self.mediator is not None:
            put("mediator", _frozen(self.mediator, np.float64))
        columns = [
            self.country_codes, self.round, self.period_year, self.age,
            self.happiness, self.weight,
            *(codes for codes, _ in self.controls.values()),
            *([] if self.mediator is None else [self.mediator]),
        ]
        if any(column.shape != (n,) for column in columns):
            raise ValueError("every survey column needs one entry per row")
        codes, names = self.country_codes, self.country_levels
        if len(set(names)) < len(names) or n and not 0 <= codes.min() <= codes.max() < len(names):
            raise ValueError(f"every row needs a country, coded into distinct levels {names}")
        if n and self.age.min() < 15:
            raise ValueError(f"age {self.age.min()} below the survey minimum of 15")
        if n and not np.all(self.weight > 0):
            raise ValueError("weights must be positive")
        if n and self.round.min() < 1:
            raise ValueError(f"round must be a positive integer, got {self.round.min()}")
        put("birth_year", _frozen(self.period_year - self.age, np.int64))

    @classmethod
    def from_rows(cls, rows: Iterable[Mapping[str, object]]) -> Survey:
        """The survey holding ``rows`` in order. Each row maps the
        :data:`IDENTITY_SCHEMA` names, and optionally ``mediator``, to
        its values; an absent or ``None`` control or mediator is
        missing."""
        rows = list(rows)
        unknown = set().union(*rows) - _ROW_KEYS
        if unknown:
            raise ValueError(f"unknown survey fields: {sorted(unknown)}")
        mediators = [row.get("mediator") for row in rows]
        country_codes, country_levels = _factor([row["country"] for row in rows])
        return cls(
            country_codes=country_codes,
            country_levels=country_levels,
            **{name: [row[name] for row in rows] for name in _NUMERIC},
            controls={name: _factor([row.get(name) for row in rows]) for name in CONTROL_VARS},
            mediator=(
                [np.nan if m is None else m for m in mediators]
                if any(m is not None for m in mediators)
                else None
            ),
        )

    @property
    def country(self) -> np.ndarray:
        """Each row's country name, built from the codes on each call."""
        return _frozen(np.array(self.country_levels, dtype=object)[self.country_codes], object)

    def take(self, rows) -> Survey:
        """The rows selected by a boolean mask or an index array, in the
        order the index gives; codes and levels pass through as they are."""
        rows = np.asarray(rows)
        if rows.dtype != bool:
            rows = rows.astype(np.intp)
        return Survey(
            country_codes=self.country_codes[rows],
            country_levels=self.country_levels,
            **{name: getattr(self, name)[rows] for name in _NUMERIC},
            controls={name: (codes[rows], levels) for name, (codes, levels) in self.controls.items()},
            mediator=None if self.mediator is None else self.mediator[rows],
        )

    def __len__(self) -> int:
        return len(self.country_codes)


@dataclass
class LoadReport:
    """Row accounting for one :func:`load_csv` call. ``columns`` maps
    each field that was read to its column in the file, in schema order:
    the schema less the optional fields whose column is absent."""

    rows_read: int = 0
    rows_kept: int = 0
    dropped: Counter = field(default_factory=Counter)
    notes: list[str] = field(default_factory=list)
    columns: dict[str, str] = field(default_factory=dict)

    def summary(self) -> str:
        """One line: rows kept, and rows read with the count per drop
        reason when any row was dropped. Notes are not included."""
        if not self.dropped:
            return f"loaded {self.rows_kept} rows"
        drops = ", ".join(f"{r}: {c}" for r, c in sorted(self.dropped.items()))
        return f"loaded {self.rows_kept} of {self.rows_read} rows (dropped {drops})"


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


def _parse_number(text: str, missing: frozenset[str]) -> float | None:
    """The finite number in a cell, or ``None`` for a missing token, text
    that ``float`` rejects, or an infinite or NaN value."""
    s = text.strip()
    if s in missing:
        return None
    try:
        value = float(s)
    except ValueError:
        return None
    return value if math.isfinite(value) else None


def _numbers(cells: Sequence[str], missing: frozenset[str]) -> np.ndarray:
    """:func:`_parse_number` over a column, NaN where it gives ``None``.
    ``float`` reads the cells directly, a non-finite value becoming NaN,
    unless a missing token is itself a finite number; a cell it rejects
    sends the column to one parse per distinct cell."""
    if all(_parse_number(token, frozenset()) is None for token in missing):
        try:
            values = np.fromiter(map(float, cells), np.float64, len(cells))
        except ValueError:
            pass
        else:
            values[~np.isfinite(values)] = np.nan
            return values
    value = {}
    for text in set(cells):
        number = _parse_number(text, missing)
        value[text] = math.nan if number is None else number
    return np.fromiter(map(value.__getitem__, cells), np.float64, len(cells))


def _control(
    cells: Sequence[str], missing: frozenset[str], merge: Mapping[str, str]
) -> tuple[np.ndarray, tuple[str, ...]]:
    """:func:`_factor` of a control column: a cell is missing when its
    stripped text is a missing token, else its level is that text after
    ``merge``."""

    def level(text: str) -> str | None:
        value = text.strip()
        return None if value in missing else merge.get(value, value)

    return _factor(cells, level)


def _not_whole(values: np.ndarray) -> np.ndarray:
    """Mask of values that are NaN or not integers."""
    return ~(values == np.floor(values))


# Beyond 2**53 a float64 no longer holds every integer, and int64 year
# arithmetic would overflow; such rounds and years are unparseable.
_INT_LIMIT = 2.0**53


def _tally(n: int, rules: Iterable[tuple[str, np.ndarray]]) -> tuple[np.ndarray, Counter]:
    """Rows that pass every ``(reason, fails)`` rule, and the count of
    rows dropped per reason, each row under the first rule it fails."""
    keep = np.ones(n, dtype=bool)
    dropped: Counter = Counter()
    for reason, fails in rules:
        count = int(np.count_nonzero(keep & fails))
        if count:
            dropped[reason] += count
        keep &= ~fails
    return keep, dropped


# Characters read per block of lines on the split path: the cells of one
# block, not the width of the file, set the memory the read needs.
_BLOCK_BYTES = 1 << 20


def _split_block(lines: list[str], width: int) -> list[str] | None:
    """The cells of a block of lines, ``width`` per row in row order, or
    ``None`` when the :mod:`csv` module might read the block otherwise:
    it holds a quote, ``\\r`` or NUL, a line longer than the field size
    limit, or a row of another width. A blank line is not a row."""
    if lines.count("\n"):
        lines = [line for line in lines if line != "\n"]
    if not lines:
        return []
    text = ",".join(lines)
    if '"' in text or "\r" in text or "\0" in text or max(map(len, lines)) > csv.field_size_limit():
        return None
    # Only the file's last line can lack its newline.
    cells = (text if text.endswith("\n") else text + "\n").split(",")
    if len(cells) != width * len(lines):
        return None
    # A newline ends a cell only at a line's end, so with that count every
    # row has ``width`` cells exactly when each ``width``-th cell holds one.
    ends = "".join(cells[width - 1 :: width]).split("\n")
    if len(ends) != len(lines) + 1:
        return None
    cells[width - 1 :: width] = ends[:-1]
    return cells


def _read_columns(handle: TextIO, width: int, positions: list[int]) -> list[list[str]]:
    """The cells at ``positions`` of each row left in ``handle``, one list
    per position. Blocks of lines are split at commas until one fails
    :func:`_split_block`; csv reads the rest of the file from there, which
    is exact because no earlier block held a quote, so no record crosses
    into it. As with csv.DictReader, a short row reads as empty cells and
    a blank line is not a row."""
    columns = [[] for _ in positions]
    while block := handle.readlines(_BLOCK_BYTES):
        cells = _split_block(block, width)
        if cells is None:
            get = operator.itemgetter(*positions)
            pad = [""] * width
            rows = [
                get(row) if len(row) >= width else get(row + pad)
                for row in csv.reader(itertools.chain(block, handle))
                if row
            ]
            for column, texts in zip(columns, zip(*rows)):
                column.extend(texts)
            break
        for column, j in zip(columns, positions):
            column += cells[j::width]
        del block, cells  # before the next block is read: one block sets the peak
    return columns


def load_csv(
    path: str | Path,
    schema: Mapping[str, str] | None = None,
    *,
    missing: Iterable[str] = DEFAULT_MISSING,
    round_map: RoundYearMap = DEFAULT_ROUND_MAP,
    labor_merge: Mapping[str, str] = DEFAULT_LABOR_MERGE,
) -> tuple[Survey, LoadReport]:
    """Read survey rows from a CSV file into a :class:`Survey`.

    ``schema`` maps the logical field names (keys of
    :data:`IDENTITY_SCHEMA`, the default) to the file's column names. One
    rule applies to every schema: a column of a required field
    (``country``, ``age``, ``happiness``, ``weight``) must be in the
    header, an optional field (a control, ``round`` or ``period_year``)
    whose column is absent is left missing, and at least one of
    ``round`` / ``period_year`` must be read. The fields actually read,
    with their columns, are :attr:`LoadReport.columns`. When only years
    are read, rounds are recovered through ``round_map``; if any observed
    year is off that grid, all years are instead ranked and the ranks
    used as synthetic round numbers (the year values themselves stay
    untouched).

    Rows are read in blocks of lines. A block with no quote, ``\\r`` or
    NUL whose rows all have the header's width is split at its commas;
    from the first other block on, the :mod:`csv` module reads the rest
    of the file, with the same cells. The country and each control are
    coded once, into levels in first-appearance order over every row of
    the file (so a level may hold no kept row), each distinct cell
    stripped once. A numeric cell counts as parseable when ``float``
    reads it as a finite number, so ``inf`` and ``NaN`` are
    unparseable. Rows that
    cannot be used are dropped and tallied, each under the first rule it
    fails, in the returned :class:`LoadReport`; the row order of the
    file is preserved. Raises :class:`DataError` for a schema key that
    is not a logical field, a required field the schema does not map, a
    required column absent from the header, a file with neither a round
    nor a year column, or no usable rows.
    """
    schema = dict(IDENTITY_SCHEMA if schema is None else schema)
    missing = frozenset(missing)

    unknown = sorted(set(schema) - set(IDENTITY_SCHEMA))
    if unknown:
        raise DataError(f"unknown fields in schema: {unknown}")
    for logical in _REQUIRED:
        if logical not in schema:
            raise DataError(f"schema must map the {logical!r} column")
    if "round" not in schema and "period_year" not in schema:
        raise DataError("schema must map 'round' or 'period_year' (or both)")

    path = Path(path)
    with path.open(newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        header = next(reader, [])
        absent = [col for name, col in schema.items() if name not in _OPTIONAL and col not in header]
        schema = {name: col for name, col in schema.items() if col in header}
        if "round" not in schema and "period_year" not in schema:
            raise DataError(f"{path} has neither a 'round' nor a 'period_year' column")
        if absent:
            raise DataError(f"columns not in file header: {absent}")
        # Only the read columns are kept. A repeated column name refers to
        # its last occurrence.
        position = {col: j for j, col in enumerate(header)}
        texts = _read_columns(handle, len(header), [position[col] for col in schema.values()])
    if not texts[0]:
        raise DataError(f"no usable rows in {path}")
    # Each column's cells are released once it is coded: they set the peak.
    cells = dict(zip(schema, texts))
    del texts
    column = {}
    for name in schema:
        texts = cells.pop(name)
        if name == "country":
            column[name] = _factor(texts, str.strip)
        elif name in CONTROL_VARS:
            column[name] = _control(texts, missing, labor_merge if name == "labor_status" else {})
        else:
            column[name] = _numbers(texts, missing)
    del texts

    age, happy, weight = column["age"], column["happiness"], column["weight"]
    rules = [
        ("unparseable age", _not_whole(age)),
        ("age out of range", (age < 15) | (age > 120)),
        ("unparseable happiness", np.isnan(happy)),
        ("happiness out of range", ~((happy >= 0.0) & (happy <= 10.0))),
        ("unparseable weight", np.isnan(weight)),
        ("nonpositive weight", ~(weight > 0)),
    ]
    if "round" in schema:
        rnd = column["round"]
        rules.append(
            ("unparseable round", _not_whole(rnd) | (rnd < 1) | (rnd >= _INT_LIMIT))
        )
    if "period_year" in schema:
        year = column["period_year"]
        rules.append(
            ("unparseable survey year", _not_whole(year) | (np.abs(year) >= _INT_LIMIT))
        )
    keep, dropped = _tally(len(age), rules)
    report = LoadReport(
        rows_read=len(age), rows_kept=int(keep.sum()), dropped=dropped, columns=schema
    )
    if not report.rows_kept:
        raise DataError(f"no usable rows in {path}")

    rounds = rnd[keep].astype(np.int64) if "round" in schema else None
    years = year[keep].astype(np.int64) if "period_year" in schema else None
    if rounds is None:
        offset, remainder = np.divmod(years - round_map.base, round_map.step)
        if np.any((remainder != 0) | (offset < 1)):
            rounds = np.unique(years, return_inverse=True)[1] + 1
            report.notes.append(
                "survey years do not follow the round-year grid; "
                "rounds assigned by rank over observed years"
            )
        else:
            rounds = offset
    if years is None:
        years = round_map.base + round_map.step * rounds

    survey = Survey(
        country_codes=column["country"][0][keep],
        country_levels=column["country"][1],
        round=rounds,
        period_year=years,
        age=age[keep].astype(np.int64),
        happiness=happy[keep],
        weight=weight[keep],
        controls={
            name: (column[name][0][keep], column[name][1])
            for name in CONTROL_VARS
            if name in schema
        },
    )
    return survey, report


def save_csv(survey: Survey, path: str | Path) -> None:
    """Write a survey with canonical column names, a missing control as
    an empty cell; round-trips with :func:`load_csv` under the identity
    schema."""
    columns = [getattr(survey, name) for name in _FIELDS]
    for name in CONTROL_VARS:
        codes, levels = survey.controls[name]
        columns.append(np.array([*levels, ""], dtype=object)[codes])
    write_csv(path, list(IDENTITY_SCHEMA), zip(*(column.tolist() for column in columns)))


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


def apply_filter(survey: Survey, spec: FilterSpec) -> tuple[Survey, FilterReport]:
    """Restrict a sample, preserving order: the rows :func:`filter_mask`
    keeps, and its report. Raises :class:`EmptySampleError` when nothing
    survives, since an empty sample cannot support any fit."""
    keep, report = filter_mask(survey, spec)
    if not report.n_kept:
        raise EmptySampleError(f"filter removed all {len(survey)} records")
    return survey.take(keep), report


def cohort_bin(birth_year: int, width: int = 5) -> str:
    """Birth-cohort bin label, e.g. ``cohort_bin(1972)`` -> ``"1970-1974"``.

    Bins are anchored at multiples of ``width`` (floor division, so
    negative years bin correctly too).
    """
    if width < 1:
        raise ValueError(f"bin width must be >= 1, got {width}")
    start = (birth_year // width) * width
    return f"{start}-{start + width - 1}"
