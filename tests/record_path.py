"""The per-row reference path: agecurve's record-based ``load_csv``,
``apply_filter``, ``encode_categorical`` and ``build_design`` as they
were before the columnar ``Survey``, with their row type
``SurveyRecord``, kept verbatim so that ``test_columnar_equivalence.py``
can check the columnar path against them. Only the imports differ.
:func:`rows` reads a ``Survey`` as records, for comparing the two paths.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from agecurve.dataset import (
    CONTROL_VARS,
    DEFAULT_LABOR_MERGE,
    DEFAULT_MISSING,
    DEFAULT_ROUND_MAP,
    IDENTITY_SCHEMA,
    DataError,
    EmptySampleError,
    LoadReport,
    RoundYearMap,
    Survey,
    cohort_bin,
)
from agecurve.design import (
    _SCHEME_REFERENCES,
    _SCHEMES,
    DesignError,
    DesignMatrix,
    TermSpec,
    age_bin_label,
)
from country_path import FilterReport, FilterSpec


@dataclass(frozen=True)
class SurveyRecord:
    """One survey response: the row type of :class:`Survey`, and a
    constructor for small samples built by hand.

    ``birth_year`` is derived, not stored: it always equals
    ``period_year - age``, so the three fields can never disagree.
    ``happiness`` is kept as a float; the 0..10 integer scale of real
    survey data is enforced at load time, while synthetic generators are
    free to produce continuous values.

    ``mediator`` is a synthetic-data channel used by the simulation
    experiments. It is never read from CSV files.
    """

    country: str
    round: int
    period_year: int
    age: int
    happiness: float
    weight: float
    sex: str | None = None
    education: str | None = None
    marital: str | None = None
    labor_status: str | None = None
    mediator: float | None = None
    birth_year: int = field(init=False, compare=False)

    def __post_init__(self) -> None:
        if self.age < 15:
            raise ValueError(f"age {self.age} below the survey minimum of 15")
        if not self.weight > 0:
            raise ValueError(f"weight must be positive, got {self.weight}")
        if self.round < 1:
            raise ValueError(f"round must be a positive integer, got {self.round}")
        object.__setattr__(self, "birth_year", self.period_year - self.age)

    def control(self, name: str) -> str | None:
        if name not in CONTROL_VARS:
            raise KeyError(f"unknown control variable {name!r}")
        return getattr(self, name)


def rows(survey: Survey) -> list[SurveyRecord]:
    """The rows of ``survey`` as records, with ``None`` for a missing
    control or mediator."""
    fields = ("country", "round", "period_year", "age", "happiness", "weight")
    columns = [getattr(survey, name).tolist() for name in fields]
    for name in CONTROL_VARS:
        codes, levels = survey.controls[name]
        columns.append([levels[code] if code >= 0 else None for code in codes.tolist()])
    mediator = [None] * len(survey) if survey.mediator is None else survey.mediator.tolist()
    columns.append([None if m != m else m for m in mediator])
    return [SurveyRecord(*values) for values in zip(*columns)]


def _parse_number(text: str, missing: frozenset[str]) -> float | None:
    s = text.strip()
    if s in missing:
        return None
    try:
        return float(s)
    except ValueError:
        return None


def load_csv(
    path: str | Path,
    schema: Mapping[str, str] | None = None,
    *,
    missing: Iterable[str] = DEFAULT_MISSING,
    round_map: RoundYearMap = DEFAULT_ROUND_MAP,
    labor_merge: Mapping[str, str] = DEFAULT_LABOR_MERGE,
) -> tuple[list[SurveyRecord], LoadReport]:
    """Read survey rows from a CSV file.

    ``schema`` maps the logical field names (keys of
    :data:`IDENTITY_SCHEMA`) to the file's column names; omitted control
    variables are simply left unset on the records. The file must supply
    ``country``, ``age``, ``happiness``, ``weight``, and at least one of
    ``round`` / ``period_year``. When only years are present, rounds are
    recovered through ``round_map``; if any observed year is off that
    grid, all years are instead ranked and the ranks used as synthetic
    round numbers (the year values themselves stay untouched).

    Rows that cannot be used are dropped and tallied by reason in the
    returned :class:`LoadReport`; the row order of the file is preserved.
    Raises :class:`DataError` if mapped columns are absent from the
    header or no usable rows remain. When ``schema`` is ``None``, the
    canonical names of :data:`IDENTITY_SCHEMA` are assumed and optional
    columns (controls, and one of round / period_year) may simply be
    absent from the file; an explicit schema is enforced exactly.
    """
    explicit_schema = schema is not None
    schema = dict(schema or IDENTITY_SCHEMA)
    missing = frozenset(missing)

    required = ("country", "age", "happiness", "weight")
    for logical in required:
        if logical not in schema:
            raise DataError(f"schema must map the {logical!r} column")
    if "round" not in schema and "period_year" not in schema:
        raise DataError("schema must map 'round' or 'period_year' (or both)")

    path = Path(path)
    with path.open(newline="", encoding="utf-8") as handle:
        reader = csv.DictReader(handle)
        header = reader.fieldnames or []
        if not explicit_schema:
            optional = set(CONTROL_VARS) | {"round", "period_year"}
            schema = {
                logical: col
                for logical, col in schema.items()
                if logical not in optional or col in header
            }
            if "round" not in schema and "period_year" not in schema:
                raise DataError(
                    f"{path} has neither a 'round' nor a 'period_year' column"
                )
        absent = [col for col in schema.values() if col not in header]
        if absent:
            raise DataError(f"columns not in file header: {absent}")
        raw_rows = list(reader)

    report = LoadReport(rows_read=len(raw_rows))

    def cell(row: Mapping[str, str], logical: str) -> str:
        return (row.get(schema[logical]) or "").strip()

    # First pass: parse and validate, keeping provisional tuples so that
    # synthetic rounds (a rank over all observed years) can be assigned
    # after every year has been seen.
    parsed: list[dict] = []
    years_seen: set[int] = set()
    need_synthetic = False
    for row in raw_rows:
        age_val = _parse_number(cell(row, "age"), missing)
        if age_val is None or age_val != int(age_val):
            report.dropped["unparseable age"] += 1
            continue
        age = int(age_val)
        if age < 15 or age > 120:
            report.dropped["age out of range"] += 1
            continue

        happy = _parse_number(cell(row, "happiness"), missing)
        if happy is None:
            report.dropped["unparseable happiness"] += 1
            continue
        if not 0.0 <= happy <= 10.0:
            report.dropped["happiness out of range"] += 1
            continue

        weight = _parse_number(cell(row, "weight"), missing)
        if weight is None:
            report.dropped["unparseable weight"] += 1
            continue
        if weight <= 0:
            report.dropped["nonpositive weight"] += 1
            continue

        rnd: int | None = None
        year: int | None = None
        if "round" in schema:
            rnd_val = _parse_number(cell(row, "round"), missing)
            if rnd_val is None or rnd_val != int(rnd_val) or int(rnd_val) < 1:
                report.dropped["unparseable round"] += 1
                continue
            rnd = int(rnd_val)
        if "period_year" in schema:
            year_val = _parse_number(cell(row, "period_year"), missing)
            if year_val is None or year_val != int(year_val):
                report.dropped["unparseable survey year"] += 1
                continue
            year = int(year_val)
        if rnd is None and year is not None:
            years_seen.add(year)
            if round_map.round_for(year) is None:
                need_synthetic = True

        controls: dict[str, str | None] = {}
        for name in CONTROL_VARS:
            if name in schema:
                value = cell(row, name)
                if value in missing:
                    controls[name] = None
                else:
                    if name == "labor_status":
                        value = labor_merge.get(value, value)
                    controls[name] = value
            else:
                controls[name] = None

        parsed.append(
            {
                "country": cell(row, "country"),
                "round": rnd,
                "year": year,
                "age": age,
                "happiness": happy,
                "weight": weight,
                "controls": controls,
            }
        )

    year_rank: dict[int, int] = {}
    if need_synthetic:
        year_rank = {y: i + 1 for i, y in enumerate(sorted(years_seen))}
        report.notes.append(
            "survey years do not follow the round-year grid; "
            "rounds assigned by rank over observed years"
        )

    records: list[SurveyRecord] = []
    for item in parsed:
        rnd, year = item["round"], item["year"]
        if rnd is None:
            rnd = year_rank[year] if need_synthetic else round_map.round_for(year)
        if year is None:
            year = round_map.year(rnd)
        records.append(
            SurveyRecord(
                country=item["country"],
                round=rnd,
                period_year=year,
                age=item["age"],
                happiness=item["happiness"],
                weight=item["weight"],
                **item["controls"],
            )
        )

    report.rows_kept = len(records)
    if not records:
        raise DataError(f"no usable rows in {path}")
    return records, report


def apply_filter(
    records: Sequence[SurveyRecord], spec: FilterSpec
) -> tuple[list[SurveyRecord], FilterReport]:
    """Restrict a sample, preserving order.

    Each dropped record is tallied under the first rule it fails.
    Raises :class:`EmptySampleError` when nothing survives, since an
    empty sample cannot support any fit.
    """
    report = FilterReport(n_in=len(records))
    listwise = sorted(spec.listwise_vars)
    kept: list[SurveyRecord] = []
    for rec in records:
        if rec.age < spec.min_age:
            report.dropped["age below minimum"] += 1
            continue
        if spec.max_age is not None and rec.age > spec.max_age:
            report.dropped["age above maximum"] += 1
            continue
        if spec.countries is not None and rec.country not in spec.countries:
            report.dropped["country excluded"] += 1
            continue
        missing_var = next((v for v in listwise if rec.control(v) is None), None)
        if missing_var is not None:
            report.dropped[f"missing {missing_var}"] += 1
            continue
        kept.append(rec)
    report.n_kept = len(kept)
    if not kept:
        raise EmptySampleError(f"filter removed all {len(records)} records")
    return kept, report


def _level_sort_key(level: str) -> tuple[int, float, str]:
    try:
        return (0, float(level), "")
    except ValueError:
        return (1, 0.0, level)


def encode_categorical(
    records: Sequence[SurveyRecord],
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
    values: list[str] = []
    for i, rec in enumerate(records):
        value = rec.control(variable)
        if value is None:
            raise DesignError(
                f"record {i} has no {variable!r}; apply listwise deletion first: drop "
                f"the rows with a missing value (Survey.take), as a controls spec does"
            )
        values.append(value)

    observed = sorted(set(values), key=_level_sort_key)
    if declared_levels is None:
        declared = list(observed)
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
    if reference not in observed:
        raise DesignError(f"reference level {reference!r} has no observations")

    dropped: list[tuple[str, str, str]] = []
    kept_levels: list[str] = []
    for level in declared:
        if level == reference:
            continue
        if level in set(observed):
            kept_levels.append(level)
        else:
            dropped.append((variable, level, "no observations"))
    if len(observed) == 1:
        dropped.append((variable, reference, "only one observed level"))

    n = len(records)
    columns = np.zeros((n, len(kept_levels)), dtype=np.float64)
    index = {level: j for j, level in enumerate(kept_levels)}
    for i, value in enumerate(values):
        j = index.get(value)
        if j is not None:
            columns[i, j] = 1.0
    labels = [f"{variable}={level}" for level in kept_levels]
    return columns, labels, dropped


def _encode_simple_factor(
    term_name: str,
    row_levels: list[str],
    ordered_levels: list[str],
    reference: str | None,
    label_prefix: str,
) -> tuple[np.ndarray, list[str], list[tuple[str, str, str]]]:
    """Shared dummy coding for period and cohort factors, whose levels
    come straight from the data."""
    if reference is None:
        reference = ordered_levels[0]
    if reference not in ordered_levels:
        raise DesignError(
            f"{term_name} reference level {reference!r} not observed; "
            f"observed levels: {ordered_levels}"
        )
    dropped: list[tuple[str, str, str]] = []
    contrast = [lvl for lvl in ordered_levels if lvl != reference]
    if not contrast:
        dropped.append(
            (term_name, reference, "only one observed level; no contrast columns")
        )
    n = len(row_levels)
    columns = np.zeros((n, len(contrast)), dtype=np.float64)
    index = {lvl: j for j, lvl in enumerate(contrast)}
    for i, lvl in enumerate(row_levels):
        j = index.get(lvl)
        if j is not None:
            columns[i, j] = 1.0
    labels = [f"{label_prefix}:{lvl}" for lvl in contrast]
    return columns, labels, dropped


def build_design(
    records: Sequence[SurveyRecord], terms: Sequence[TermSpec]
) -> DesignMatrix:
    """Assemble the design matrix for a term list.

    Exactly one intercept is required; ``age_linear`` and ``age_bins``
    are mutually exclusive (they answer the same question two ways);
    duplicate terms of any kind are rejected. Columns appear in term
    order, with factor levels in their natural order.
    """
    if not records:
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

    n = len(records)
    ages = np.array([rec.age for rec in records], dtype=np.float64)
    blocks: list[np.ndarray] = []
    labels: list[str] = []
    dropped: list[tuple[str, str, str]] = []

    for term in terms:
        if term.kind == "intercept":
            blocks.append(np.ones((n, 1)))
            labels.append("const")
        elif term.kind == "age_linear":
            blocks.append(ages[:, None])
            labels.append("age")
        elif term.kind == "age_squared":
            blocks.append((ages**2)[:, None])
            labels.append("age_sq")
        elif term.kind == "age_bins":
            scheme = term.scheme or "coarse"
            scheme_levels = [b[0] for b in _SCHEMES[scheme]]
            row_levels = [age_bin_label(rec.age, scheme) for rec in records]
            observed = set(row_levels)
            reference = term.reference_level or _SCHEME_REFERENCES[scheme]
            if reference not in observed:
                raise DesignError(
                    f"reference bin {reference!r} has no observations"
                )
            contrast = []
            for level in scheme_levels:
                if level == reference:
                    continue
                if level in observed:
                    contrast.append(level)
                else:
                    dropped.append(("age_bins", level, "no observations"))
            cols = np.zeros((n, len(contrast)))
            index = {lvl: j for j, lvl in enumerate(contrast)}
            for i, lvl in enumerate(row_levels):
                j = index.get(lvl)
                if j is not None:
                    cols[i, j] = 1.0
            blocks.append(cols)
            labels.extend(f"bin:{lvl}" for lvl in contrast)
        elif term.kind == "period_factor":
            row_levels = [str(rec.period_year) for rec in records]
            ordered = sorted(set(row_levels), key=int)
            cols, labs, drops = _encode_simple_factor(
                "period_factor", row_levels, ordered, term.reference_level, "period"
            )
            blocks.append(cols)
            labels.extend(labs)
            dropped.extend(drops)
        elif term.kind == "cohort_factor":
            width = term.width or 5
            starts: dict[str, int] = {}
            row_levels = []
            for rec in records:
                label = cohort_bin(rec.birth_year, width)
                starts[label] = (rec.birth_year // width) * width
                row_levels.append(label)
            ordered = sorted(starts, key=starts.__getitem__)
            cols, labs, drops = _encode_simple_factor(
                "cohort_factor", row_levels, ordered, term.reference_level, "cohort"
            )
            blocks.append(cols)
            labels.extend(labs)
            dropped.extend(drops)
        elif term.kind == "control_factor":
            assert term.name is not None
            cols, labs, drops = encode_categorical(
                records, term.name, term.reference_level
            )
            blocks.append(cols)
            labels.extend(labs)
            dropped.extend(drops)
        else:
            raise DesignError(f"unknown term kind {term.kind!r}")

    values = np.hstack(blocks)
    weights = np.array([rec.weight for rec in records], dtype=np.float64)
    response = np.array([rec.happiness for rec in records], dtype=np.float64)
    return DesignMatrix(values, labels, weights, response, dropped)
