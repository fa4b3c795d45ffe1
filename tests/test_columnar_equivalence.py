"""The package's loading and design building against the per-row
reference in ``record_path.py``.

Random small survey files are loaded, filtered and turned into designs
by both paths, which must agree exactly: the same records, the same row
and drop tallies, bit-identical design values, weights and responses,
and the same labels, dropped levels and error messages. The columnar
path filters with the frozen ``filter_mask`` of ``country_path.py``,
the reference for the fits' drop tallies. The files mix
unmapped columns in with the mapped ones, repeat header names (the last
occurrence is the one read), shuffle the column order, and carry blank
lines and rows shorter or longer than the header.
"""

from __future__ import annotations

import csv

import numpy as np
from hypothesis import given, settings, strategies as st

import record_path
from agecurve import dataset, design
from agecurve.dataset import CONTROL_VARS, DataError, EmptySampleError
from agecurve.design import DesignError, TermSpec
from agecurve.models import PRESETS, terms_for
from country_path import FilterSpec, _filter_for, filter_mask

COUNTRIES = ("AA", "BB", "CC")
# Level pools per control: with a missing token ("NA", "", "."), with
# numeric levels whose text order differs from their value order
# ("9" < "10"), with a single level, missing on every row, and with the
# labor category that is merged into "other" on load.
CONTROL_POOLS = {
    "sex": (("female", "male"), ("female",), ("female", "male", "NA"), ("NA",)),
    "education": (("2", "9", "10"), ("9", "10", ""), ("3",), ("",)),
    "marital": (
        ("married", "single", "widowed"), ("married",), ("single", ".", "married"), (".",)
    ),
    "labor_status": (
        ("employed", "retired", "community or military service"),
        ("other", "NA"),
        ("NA",),
    ),
}
# Some pools leave age bins empty, including a reference bin.
AGE_POOLS = (range(15, 96), range(15, 60), range(30, 50), range(60, 100))
# Year pools on the round grid and off it (2003).
YEAR_POOLS = ((2002, 2004, 2006, 2008), (2003, 2004, 2010), (2002, 2016))
BAD_CELLS = {
    "age": ("NA", "12", "200", "40.5", "x"),
    "happiness": ("x", "11", "-1"),
    "weight": ("0", "", "-2", "w"),
    "round": ("0", "x", "1.5"),
    "period_year": ("x", "2004.5"),
}
# Columns no schema maps, and the junk cells of every column that is not
# read: an unmapped one, or an earlier occurrence of a repeated name.
UNMAPPED = ("idno", "pspwght", "stratum")
JUNK_CELLS = ("x", "", "NA", "999", "-1", "2004", "female")
EXTRA_TERMS = (
    [
        TermSpec.intercept(),
        TermSpec.age_bins("fine", reference="15-24"),
        TermSpec.period(2004),
        TermSpec.cohort(width=10),
    ],
    [
        TermSpec.intercept(),
        TermSpec.age_linear(),
        TermSpec.control("education", reference="10"),
        TermSpec.control("sex"),
    ],
)


@st.composite
def survey_files(draw):
    timing = draw(st.sampled_from((("round",), ("period_year",), ("round", "period_year"))))
    years = draw(st.sampled_from(YEAR_POOLS))
    ages = draw(st.sampled_from(AGE_POOLS))
    pools = {name: draw(st.sampled_from(options)) for name, options in CONTROL_POOLS.items()}
    controls = draw(st.lists(st.sampled_from(CONTROL_VARS), unique=True))
    mapped = ["country", "age", "happiness", "weight", *timing, *controls]
    unmapped = draw(st.lists(st.sampled_from(UNMAPPED), max_size=4))
    repeated = draw(st.lists(st.sampled_from(mapped), unique=True, max_size=2))
    header = draw(st.permutations([*mapped, *unmapped, *repeated]))
    last = {name: j for j, name in enumerate(header)}
    with_bad = draw(st.booleans())
    rows = []
    for _ in range(draw(st.integers(min_value=1, max_value=40))):
        cells = {
            "country": draw(st.sampled_from(COUNTRIES)),
            "age": str(draw(st.sampled_from(ages))),
            "happiness": str(draw(st.integers(min_value=0, max_value=10))),
            "weight": str(draw(st.sampled_from((0.5, 1.0, 1.25, 2.0)))),
            "round": str(draw(st.integers(min_value=1, max_value=8))),
            "period_year": str(draw(st.sampled_from(years))),
        }
        for name in controls:
            cells[name] = draw(st.sampled_from(pools[name]))
        if with_bad and draw(st.integers(min_value=0, max_value=5)) == 0:
            field = draw(st.sampled_from([f for f in BAD_CELLS if f in mapped]))
            cells[field] = draw(st.sampled_from(BAD_CELLS[field]))
        row = [
            cells[name] if name in mapped and j == last[name] else draw(st.sampled_from(JUNK_CELLS))
            for j, name in enumerate(header)
        ]
        cut = draw(st.integers(min_value=0, max_value=9))
        if with_bad and cut == 0:
            row = row[: draw(st.integers(min_value=0, max_value=len(row) - 1))]
        elif cut == 1:
            row.append(draw(st.sampled_from(JUNK_CELLS)))
        rows.append(row)  # an empty row is a blank line
    return header, rows


@st.composite
def filter_specs(draw):
    min_age = draw(st.sampled_from((15, 20, 40)))
    return FilterSpec(
        min_age=min_age,
        max_age=draw(st.sampled_from((None, 69, 90))),
        countries=draw(st.sampled_from((None, frozenset({"AA"}), frozenset({"BB", "CC"})))),
        listwise_vars=frozenset(draw(st.lists(st.sampled_from(CONTROL_VARS), unique=True))),
    )


def outcome(func, *args):
    """``(result, None)`` or ``(None, (error type, message))`` for the
    package's own data and design errors."""
    try:
        return func(*args), None
    except (DataError, DesignError) as exc:
        return None, (type(exc), str(exc))


def assert_designs_equal(new, old):
    assert np.array_equal(new.values, old.values)
    assert np.array_equal(new.row_weights, old.row_weights)
    assert np.array_equal(new.response, old.response)
    assert new.column_labels == old.column_labels
    assert new.dropped_levels == old.dropped_levels


def check_filter_and_design(survey, records, spec, terms):
    keep, new_report = filter_mask(survey, spec)
    old, old_error = outcome(record_path.apply_filter, records, spec)
    # the reference refuses an empty sample, where the mask keeps no row
    if old is None:
        assert old_error[0] is EmptySampleError and not keep.any()
        return
    new_kept, (old_kept, old_report) = survey.take(keep), old
    assert record_path.rows(new_kept) == old_kept
    assert (new_report.n_in, new_report.n_kept) == (old_report.n_in, old_report.n_kept)
    assert new_report.dropped == old_report.dropped

    old_design, old_error = outcome(record_path.build_design, old_kept, terms)
    new_design, new_error = outcome(design.build_design, new_kept, terms)
    assert new_error == old_error
    if old_design is not None:
        assert_designs_equal(new_design, old_design)

    for name in CONTROL_VARS:
        levels = sorted({rec.control(name) for rec in old_kept} - {None})
        for reference in (None, levels[-1] if levels else None):
            control = [TermSpec.intercept(), TermSpec.control(name, reference)]
            expected = outcome(record_path.build_design, old_kept, control)
            got = outcome(design.build_design, new_kept, control)
            assert got[1] == expected[1]
            if expected[0] is not None:
                assert_designs_equal(got[0], expected[0])


@settings(max_examples=60, deadline=None)
@given(data=survey_files(), extra_filter=filter_specs())
def test_columnar_path_matches_record_path(tmp_path_factory, data, extra_filter):
    header, rows = data
    path = tmp_path_factory.getbasetemp() / "columnar_equivalence.csv"
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)

    loaded, load_error = outcome(dataset.load_csv, path)
    expected, expected_error = outcome(record_path.load_csv, path)
    assert load_error == expected_error
    if expected is None:
        return
    (survey, report), (records, expected_report) = loaded, expected
    assert record_path.rows(survey) == records
    assert (report.rows_read, report.rows_kept, report.notes) == (
        expected_report.rows_read, expected_report.rows_kept, expected_report.notes
    )
    assert report.dropped == expected_report.dropped

    for spec in PRESETS.values():
        for country in (None, *COUNTRIES):
            check_filter_and_design(survey, records, _filter_for(spec, country), terms_for(spec))
    for terms in EXTRA_TERMS:
        check_filter_and_design(survey, records, extra_filter, terms)

