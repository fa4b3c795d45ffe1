"""Survey microdata: the columnar :class:`Survey`, CSV loading and
cohort bins.

A survey keeps one numpy array per field, the country and each control
as int codes into a tuple of levels, and is never changed in place, so
one survey can be shared freely between model fits. Loading is tolerant
of messy input (rows are dropped with a counted reason, never silently).
A fit restricts the sample to the cells of a pass over the survey that
it keeps (see :mod:`agecurve.models`), and keeps nothing on the survey.
"""

from __future__ import annotations

import csv
import functools
import io
import itertools
import math
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import BinaryIO, Callable, Iterable, Mapping, Sequence

import numpy as np

from .render import write_columns

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
    "load_csv",
    "save_csv",
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

    def year(self, round_number: int | np.ndarray) -> int | np.ndarray:
        """The fieldwork year of a round, or of each of an array of them."""
        return self.base + self.step * round_number

    def round_for(self, year: int | np.ndarray) -> int | np.ndarray | None:
        """The round of a fieldwork year, or of each of an array of them;
        ``None`` when any year is off the grid."""
        offset, remainder = divmod(year - self.base, self.step)
        if np.any((remainder != 0) | (offset < 1)):
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
    return _Codes(level).add(cells).result()


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
    ``controls`` share one column, missing on every row. ``mediator`` is
    an optional synthetic-data column, never read from CSV files, NaN
    where a row has none. ``birth_year`` is derived as ``period_year -
    age``, so the three can never disagree. Every age is at least 15,
    every weight positive and every round at least 1. Every column is a
    read-only array.

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
        absent = (np.full(n, -1, np.int64), ()) if set(CONTROL_VARS) - set(self.controls) else None
        controls = {}
        for name in CONTROL_VARS:
            codes, levels = self.controls.get(name, absent)
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
        order the index gives; codes and levels pass through, but for a
        control without levels, which is absent."""
        rows = np.asarray(rows)
        if rows.dtype != bool:
            rows = rows.astype(np.intp)
        return Survey(
            country_codes=self.country_codes[rows],
            country_levels=self.country_levels,
            **{name: getattr(self, name)[rows] for name in _NUMERIC},
            controls={name: (codes[rows], levels) for name, (codes, levels) in self.controls.items() if levels},
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


def _numbers(cells: Sequence[str], missing: frozenset[str], exact: bool) -> np.ndarray:
    """:func:`_parse_number` over a column, NaN where it gives ``None``.
    ``float`` reads the cells directly, a non-finite value becoming NaN,
    when ``exact`` says that no missing token is a number; a cell it
    rejects sends the column to one parse per distinct cell."""
    if exact:
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


def _control_level(missing: frozenset[str], merge: Mapping[str, str], text: str) -> str | None:
    """A control cell's level: its stripped text after ``merge``, or
    ``None`` for a missing token."""
    value = text.strip()
    return None if value in missing else merge.get(value, value)


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


# Bytes read per block on the byte path; csv reads rows in batches of one
# per 64 of these bytes. One block, not the file, sets the read's memory.
_BLOCK_BYTES = 1 << 20
# The zero bytes after each block, so that each offset starts a word.
_PAD = bytes(24)

# The decimal kernel reads at most this many digits: below 2**53, so the
# mantissa and its power of ten are exact doubles.
_DIGITS = 15
_SCALES = 10.0 ** np.arange(_DIGITS + 3)
# The low k bytes of a little-endian 64-bit word, k = 0..8.
_LOW_BYTES = np.array([(1 << 8 * k) - 1 for k in range(9)], np.uint64)


def _decimals(words: np.ndarray, starts: np.ndarray, lens: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The value of each cell of the form ``-?digits[.digits]`` with one to
    :data:`_DIGITS` digits (``1.`` and ``.5`` too), and the mask of those
    cells. The mantissa over a power of ten is one correctly rounded
    division of exact doubles, so bit for bit what ``float`` reads
    (Clinger 1990). ``words`` holds the 8 bytes from each block offset."""
    minus = words[starts] & _LOW_BYTES[1] == 45
    mantissa = np.zeros(len(lens), np.int64)
    count, points, places = np.zeros((3, len(lens)), np.int8)  # of at most _DIGITS + 2 bytes
    for k in range(min(int(lens.max(initial=0)), _DIGITS + 2)):
        if k % 8 == 0:  # the cells' next 8 bytes, zero past each end
            word = words[starts + k] & _LOW_BYTES[np.clip(lens - k, 0, 8)]
            cell_bytes = word.astype("<u8", copy=False).view(np.uint8).reshape(-1, 8)
        byte = cell_bytes[:, k % 8]
        digit = byte - np.uint8(48)
        is_digit = digit < 10
        np.copyto(mantissa, mantissa * 10 + digit, where=is_digit)
        places += is_digit & (points > 0)
        count += is_digit
        points += byte == 46
    ok = (count + points + minus == lens) & (points <= 1) & (count >= 1) & (count <= _DIGITS)
    values = mantissa / _SCALES[places]
    return np.where(minus, -values, values), ok


def _texts(data: bytes, starts: np.ndarray, lens: np.ndarray) -> list[str]:
    return [data[s : s + n].decode() for s, n in zip(starts.tolist(), lens.tolist())]


def _joined(parts: list[np.ndarray]) -> np.ndarray:
    """A column from its parts, the first an empty one of the column's
    dtype: a lone block is the column itself, not a copy of it."""
    return parts[1] if len(parts) == 2 else np.concatenate(parts)


class _Numbers:
    """A numeric column read block by block: :func:`_parse_number` of each
    cell, NaN where it gives ``None``."""

    def __init__(self, missing: frozenset[str]) -> None:
        self.missing, self.parts = missing, [np.empty(0)]
        # A missing token that is a number sends every cell to ``_numbers``.
        self.exact = all(_parse_number(token, frozenset()) is None for token in missing)

    def add(self, texts: Sequence[str]) -> None:
        self.parts.append(_numbers(texts, self.missing, self.exact))

    def add_block(self, data: bytes, words: np.ndarray, starts: np.ndarray, lens: np.ndarray) -> None:
        values, ok = _decimals(words, starts, lens)
        ok &= self.exact
        if not ok.all():
            values[~ok] = _numbers(_texts(data, starts[~ok], lens[~ok]), self.missing, self.exact)
        self.parts.append(values)

    def result(self) -> np.ndarray:
        return _joined(self.parts)


def distinct_codes(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct values in ascending order, and each value's index
    among them: ``np.unique(values, return_inverse=True)`` without its
    sort when the integer ``values`` span no more numbers than they
    hold, else in half its temporary memory."""
    if len(values) and int(values.max()) - int(values.min()) < len(values):
        low = values.min()
        present = np.bincount(values - low) > 0
        return np.flatnonzero(present) + low, (np.cumsum(present) - 1)[values - low]
    ordered = np.sort(values)
    starts = np.concatenate((ordered[:1], ordered[1:][ordered[1:] != ordered[:-1]]))
    return starts, np.searchsorted(starts, values)


class _Codes:
    """A coded column read block by block: int codes of each cell's
    ``level(text)`` (-1 where that is ``None``) into levels in
    first-appearance order; ``level`` runs once per distinct text."""

    def __init__(self, level: Callable = lambda cell: cell) -> None:
        self.level, self.code, self.index = level, {}, {}
        self.parts = [np.empty(0, np.int64)]

    def _merge(self, texts: Iterable) -> None:
        for text in texts:
            if text not in self.code:
                value = self.level(text)
                self.code[text] = -1 if value is None else self.index.setdefault(value, len(self.index))

    def add(self, texts: Sequence) -> _Codes:
        self._merge(dict.fromkeys(texts))
        self.parts.append(np.fromiter(map(self.code.__getitem__, texts), np.int64, len(texts)))
        return self

    def add_block(self, data: bytes, words: np.ndarray, starts: np.ndarray, lens: np.ndarray) -> None:
        """Code a plain block's cells by their keys, each cell's bytes zero
        past its end, which a plain block's lack of NUL keeps distinct; or
        as text when a cell is longer than the 7 bytes a key holds."""
        if lens.max(initial=0) > 7:
            self.add(_texts(data, starts, lens))
            return
        keys = words[starts] & _LOW_BYTES[lens]  # the top byte zero, so nonnegative int64
        distinct, inverse = distinct_codes(keys.view(np.int64))
        texts = [key.to_bytes(8, "little").rstrip(b"\0").decode() for key in distinct.tolist()]
        if any(text not in self.code for text in texts):  # code new texts by first appearance
            first = np.full(len(texts), len(keys))
            np.minimum.at(first, inverse, np.arange(len(keys)))
            self._merge([texts[i] for i in np.argsort(first)])
        self.parts.append(np.array([self.code[text] for text in texts], np.int64)[inverse])

    def result(self) -> tuple[np.ndarray, tuple]:
        return _joined(self.parts), tuple(self.index)


def _plain_block(data: bytes, width: int) -> tuple[np.ndarray, np.ndarray] | None:
    """The 8 bytes from each offset of a block of whole, nonblank lines
    followed by ``_PAD``, and where each cell ends, one row of ``width``
    a line; or ``None`` when csv might read the block otherwise: it holds
    a quote, ``\\r`` or NUL, a line longer than the field size limit, or
    a row of another width. One mask of the block's newlines gives the
    row count and, with the commas, the cell ends."""
    if b'"' in data or b"\r" in data or data.find(b"\0", 0, -len(_PAD)) >= 0:
        return None
    buf = np.frombuffer(data, np.uint8)
    newline = buf == 10
    rows = np.count_nonzero(newline)
    ends = np.flatnonzero(newline | (buf == 44))
    # With ``rows`` newlines in all, every row has ``width`` cells exactly
    # when each ``width``-th cell ends in one.
    if len(ends) != rows * width or not (buf[ends[width - 1 :: width]] == 10).all():
        return None
    ends = ends.reshape(rows, width)
    if np.diff(ends[:, -1], prepend=-1).max(initial=0) > csv.field_size_limit() + 1:
        return None
    return np.ndarray((len(buf) - 7,), "<u8", buf, 0, (1,)), ends


def _header(handle: BinaryIO) -> list[str]:
    """csv's first record of a binary file, after a UTF-8 byte-order mark
    if it starts with one, leaving ``handle`` at the next."""
    start = 3 if handle.read(3) == b"\xef\xbb\xbf" else 0
    handle.seek(start)
    lines = []
    text = io.TextIOWrapper(handle, encoding="utf-8", newline="")
    header = next(csv.reader(lines.append(line) or line for line in iter(text.readline, "")), [])
    text.detach().seek(start + len("".join(lines).encode()))
    return header


def _read_columns(handle: BinaryIO, width: int, columns: Sequence[tuple[int, _Numbers | _Codes]]) -> None:
    """Feed each ``(position, column)`` the cells at that position of each
    row left in the binary ``handle``: from its bytes while
    :func:`_plain_block` accepts the blocks, each column sending the
    cells its kernel cannot read to the str route, then as str cells from
    csv, which is exact because no earlier block held a quote. As with
    csv.DictReader, a short row reads as empty cells and a blank line is
    not a row. Raises ``UnicodeDecodeError`` for bytes that are not
    UTF-8, and :class:`csv.Error` where csv refuses a row."""
    while True:
        start = handle.tell()
        data, tail = handle.read(_BLOCK_BYTES), handle.readline()
        if not data:
            return
        # one copy adds the pad, and a newline if the last line lacks one
        data = b"".join((data, tail, b"" if (tail or data).endswith(b"\n") else b"\n", _PAD))
        view = np.frombuffer(data, np.uint8)
        if view.max() > 127:  # the check that the block is UTF-8, which ASCII is
            data.decode()
        newline = view == 10
        if newline[0] or (newline[1:] & newline[:-1]).any():  # a blank line is not a row
            while b"\n\n" in data or data.startswith(b"\n"):
                data = data.replace(b"\n\n", b"\n").lstrip(b"\n")
        block = _plain_block(data, width)
        if block is None:
            break
        words, ends = block
        line_starts = np.concatenate(([-1], ends[:, -1]))[:-1] + 1
        for j, column in columns:
            starts = ends[:, j - 1] + 1 if j else line_starts
            column.add_block(data, words, starts, ends[:, j] - starts)
    handle.seek(start)
    reader = csv.reader(io.TextIOWrapper(handle, encoding="utf-8", newline=""))
    pad = [""] * width
    while batch := list(itertools.islice(reader, max(_BLOCK_BYTES >> 6, 1))):
        rows = [row if len(row) >= width else row + pad for row in batch if row]
        for j, column in columns:
            column.add([row[j] for row in rows])


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

    The :mod:`csv` module reads the header; the rows are read as bytes, in
    blocks of whole lines of about 1 MiB; only a block with a byte past
    ASCII is decoded, to check that it is UTF-8. A block with no quote,
    ``\\r`` or NUL, no line past the csv field size limit, and rows all of
    the header's width takes the byte path: numpy scans it once for its
    newlines and commas, reads a numeric cell ``-?digits[.digits]`` of at
    most 15 digits and codes a country or control cell of at most 7 bytes
    from those bytes; ``float`` reads any other numeric cell
    (every one, when a missing token is a number), and a coded column's
    cells are read as text in a block where one is longer. From the first
    other block on, csv reads the rows, with the same cells. The country and
    each control are coded once, into levels in first-appearance order over
    every row of the file (so a level may hold no kept row), each distinct
    cell stripped once. A numeric cell counts as parseable when ``float``
    reads it as a finite number, so ``inf`` and ``NaN`` are unparseable.
    Rows that cannot be used are dropped and tallied, each under the first
    rule it fails, in the returned :class:`LoadReport`; the row order of the
    file is preserved. Raises :class:`DataError` for a schema key that is
    not a logical field, a required field the schema does not map, a
    required column absent from the header, a file with neither a round nor
    a year column, bytes that are not UTF-8, a row that csv refuses (such as
    a field past its size limit), or no usable rows.
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
    try:
        with path.open("rb") as handle:
            header = _header(handle)
            absent = [col for name, col in schema.items() if name not in _OPTIONAL and col not in header]
            schema = {name: col for name, col in schema.items() if col in header}
            if "round" not in schema and "period_year" not in schema:
                raise DataError(f"{path} has neither a 'round' nor a 'period_year' column")
            if absent:
                raise DataError(f"columns not in file header: {absent}")
            readers = {}
            for name in schema:
                if name == "country":
                    readers[name] = _Codes(str.strip)
                elif name in CONTROL_VARS:
                    merge = labor_merge if name == "labor_status" else {}
                    readers[name] = _Codes(functools.partial(_control_level, missing, merge))
                else:
                    readers[name] = _Numbers(missing)
            # Only the read columns are kept. A repeated column name refers
            # to its last occurrence.
            position = {col: j for j, col in enumerate(header)}
            _read_columns(handle, len(header), [(position[schema[n]], r) for n, r in readers.items()])
    except UnicodeDecodeError as exc:
        raise DataError(f"{path} is not UTF-8 text ({exc.reason})") from exc
    except csv.Error as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    # each reader, and the blocks it holds, is released once its column is formed
    column = {name: readers.pop(name).result() for name in schema}
    if not len(column["age"]):
        raise DataError(f"no usable rows in {path}")

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
    if report.rows_kept == len(age):  # every row kept: views, not copies
        keep = slice(None)

    rounds = rnd[keep].astype(np.int64) if "round" in schema else None
    years = year[keep].astype(np.int64) if "period_year" in schema else None
    if rounds is None:
        rounds = round_map.round_for(years)
        if rounds is None:
            rounds = distinct_codes(years)[1] + 1
            report.notes.append(
                "survey years do not follow the round-year grid; "
                "rounds assigned by rank over observed years"
            )
    if years is None:
        years = round_map.year(rounds)

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
    write_columns(path, list(IDENTITY_SCHEMA), columns)


def cohort_bin(birth_year: int, width: int = 5) -> str:
    """Birth-cohort bin label, e.g. ``cohort_bin(1972)`` -> ``"1970-1974"``.

    Bins are anchored at multiples of ``width`` (floor division, so
    negative years bin correctly too).
    """
    if width < 1:
        raise ValueError(f"bin width must be >= 1, got {width}")
    start = (birth_year // width) * width
    return f"{start}-{start + width - 1}"
