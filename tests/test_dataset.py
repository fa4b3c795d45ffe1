import csv
import math
import re
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from agecurve import (
    PRESETS,
    DataError,
    Survey,
    TermSpec,
    batch_fit,
    build_design,
    cohort_bin,
    load_csv,
    save_csv,
)
from agecurve import dataset
from agecurve.dataset import CONTROL_VARS, DEFAULT_MISSING, ESS_SCHEMA, IDENTITY_SCHEMA, RoundYearMap
from record_path import SurveyRecord, rows


def row(**kwargs):
    defaults = dict(
        country="DE", round=1, period_year=2002, age=40, happiness=7.0, weight=1.0
    )
    defaults.update(kwargs)
    return defaults


def rec(**kwargs):
    return SurveyRecord(**row(**kwargs))


class TestFromRows:
    def test_birth_year_is_derived(self):
        survey = Survey.from_rows([row(period_year=2010, age=43)])
        assert survey.birth_year.tolist() == [1967]

    @pytest.mark.parametrize(
        "field,value", [("age", 14), ("weight", 0.0), ("round", 0), ("happy", 7)]
    )
    def test_rejects(self, field, value):
        """An age below 15, a nonpositive weight, round 0 and an unknown
        key each raise, naming the field."""
        with pytest.raises(ValueError, match=field):
            Survey.from_rows([row(), row(**{field: value})])

    def test_absent_or_none_control_is_missing(self):
        survey = Survey.from_rows([row(sex="female"), row(sex=None), row(mediator=0.5), row()])
        codes, levels = survey.controls["sex"]
        assert codes.tolist() == [0, -1, -1, -1] and levels == ("female",)
        assert survey.controls["marital"][0].tolist() == [-1] * 4
        assert rows(survey)[2] == rec(mediator=0.5)
        assert rows(survey)[3].mediator is None
        assert Survey.from_rows([row()]).mediator is None

    def test_country_is_coded_once(self):
        survey = Survey.from_rows([row(country="FR"), row(), row(country="FR")])
        assert survey.country_codes.tolist() == [0, 1, 0]
        assert survey.country_levels == ("FR", "DE")
        assert survey.country.tolist() == ["FR", "DE", "FR"]
        taken = survey.take([1, 2])
        assert taken.country_codes.tolist() == [1, 0] and taken.country_levels == ("FR", "DE")

    def test_row_without_country_is_refused(self):
        """``None`` is no country's name: it is the pooled sample of
        ``fit_spec``."""
        with pytest.raises(ValueError, match="every row needs a country"):
            Survey.from_rows([row(), row(country=None)])

    def test_unknown_control_is_refused(self):
        survey = Survey.from_rows([row(), row(country="FR")])
        with pytest.raises(ValueError, match=r"unknown control variables: \['income'\]"):
            replace(survey, controls={"income": ([0, 0], ("low",))})

    @pytest.mark.parametrize("column", [
        {"age": [40, 50, 60]}, {"weight": [1.0]}, {"mediator": [0.5, 0.5, 0.5]},
        {"controls": {"sex": ([0, 0, 0], ("male",))}},
    ], ids=["age", "weight", "mediator", "control"])
    def test_ragged_column_is_refused(self, column):
        survey = Survey.from_rows([row(), row(country="FR")])
        with pytest.raises(ValueError, match="every survey column needs one entry per row"):
            replace(survey, **column)

    @pytest.mark.parametrize(
        "codes,levels", [([0, 2], ("DE", "FR")), ([0, -1], ("DE", "FR")), ([0, 1], ("DE", "DE"))]
    )
    def test_country_codes_index_distinct_levels(self, codes, levels):
        survey = Survey.from_rows([row(), row(country="FR")])
        with pytest.raises(ValueError, match="every row needs a country"):
            replace(survey, country_codes=codes, country_levels=levels)


class TestRoundYearMap:
    def test_forward(self):
        m = RoundYearMap()
        assert [m.year(r) for r in (1, 8)] == [2002, 2016]

    def test_inverse(self):
        m = RoundYearMap()
        assert m.round_for(2002) == 1
        assert m.round_for(2016) == 8
        assert m.round_for(2003) is None
        assert m.round_for(2000) is None

    def test_inverse_of_an_array(self):
        m = RoundYearMap()
        rounds = m.round_for(np.array([2016, 2002, 2002, 2010]))
        assert rounds.dtype == np.int64 and rounds.tolist() == [8, 1, 1, 5]
        assert m.round_for(np.array([2002, 2003])) is None
        assert m.round_for(np.array([2004, 2000])) is None


def write_rows(path, header, rows):
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


class TestLoadCsv:
    HEADER = ["country", "round", "age", "happiness", "weight"]

    def test_basic(self, tmp_path):
        path = tmp_path / "d.csv"
        write_rows(path, self.HEADER, [["DE", 1, 40, 7, 1.0], ["DE", 2, 50, 6, 0.5]])
        survey, report = load_csv(path)
        assert report.rows_read == 2 and report.rows_kept == 2
        assert report.summary() == "loaded 2 rows"
        assert report.columns == {name: name for name in self.HEADER}
        assert survey.round.tolist() == [1, 2]
        assert survey.period_year.tolist() == [2002, 2004]

    def test_drop_reasons_counted(self, tmp_path):
        path = tmp_path / "d.csv"
        write_rows(
            path,
            self.HEADER,
            [
                ["DE", 1, 40, 7, 1.0],
                ["DE", 1, "NA", 7, 1.0],     # unparseable age
                ["DE", 1, 12, 7, 1.0],       # age below 15
                ["DE", 1, 200, 7, 1.0],      # age above 120
                ["DE", 1, 40, 11, 1.0],      # happiness out of range
                ["DE", 1, 40, "x", 1.0],     # unparseable happiness
                ["DE", 1, 40, 7, 0],         # nonpositive weight
                ["DE", 1, 40, 7, ""],        # unparseable weight
            ],
        )
        survey, report = load_csv(path)
        assert len(survey) == 1
        assert report.dropped["unparseable age"] == 1
        assert report.dropped["age out of range"] == 2
        assert report.dropped["happiness out of range"] == 1
        assert report.dropped["unparseable happiness"] == 1
        assert report.dropped["nonpositive weight"] == 1
        assert report.dropped["unparseable weight"] == 1
        assert report.summary() == (
            "loaded 1 of 8 rows (dropped age out of range: 2, "
            "happiness out of range: 1, nonpositive weight: 1, "
            "unparseable age: 1, unparseable happiness: 1, unparseable weight: 1)"
        )

    def test_years_only_on_grid(self, tmp_path):
        path = tmp_path / "d.csv"
        write_rows(
            path,
            ["country", "period_year", "age", "happiness", "weight"],
            [["DE", 2002, 40, 7, 1], ["DE", 2006, 41, 7, 1]],
        )
        survey, _ = load_csv(path)
        assert survey.round.tolist() == [1, 3]

    @pytest.mark.parametrize(
        "years, rounds",
        [
            ([2004, 2003, 2005, 2003], [2, 1, 3, 1]),  # span fewer years than rows
            ([2011, 2003, 2007, 2011], [3, 1, 2, 3]),  # span more years than rows
        ],
    )
    def test_years_off_grid_get_rank_rounds(self, tmp_path, years, rounds):
        path = tmp_path / "d.csv"
        write_rows(
            path,
            ["country", "period_year", "age", "happiness", "weight"],
            [["DE", year, 40 + i, 7, 1] for i, year in enumerate(years)],
        )
        survey, report = load_csv(path)
        assert survey.round.tolist() == rounds
        assert survey.period_year.tolist() == years
        assert any("rank" in note for note in report.notes)

    def test_missing_column_is_error(self, tmp_path):
        path = tmp_path / "d.csv"
        write_rows(path, ["country", "round", "age", "happiness"], [["DE", 1, 40, 7]])
        with pytest.raises(DataError, match="weight"):
            load_csv(path)

    def test_explicit_schema_leaves_absent_control_missing(self, tmp_path):
        path = tmp_path / "d.csv"
        write_rows(path, ["cntry", "essround", "agea", "happy", "dweight", "gndr"],
                   [["DE", 4, 40, 7, 1.1, "female"]])
        survey, report = load_csv(path, ESS_SCHEMA)
        assert survey.controls["education"][0].tolist() == [-1]
        assert rows(survey) == [rec(round=4, period_year=2008, weight=1.1, sex="female")]
        assert report.columns == {
            "country": "cntry", "round": "essround", "age": "agea", "happiness": "happy",
            "weight": "dweight", "sex": "gndr",
        }

    @pytest.mark.parametrize("schema", [None, ESS_SCHEMA])
    def test_one_column_rule_for_every_schema(self, tmp_path, schema):
        """With or without an explicit schema, an absent required column
        is named and a file with no round or year column says so."""
        names = dict(ESS_SCHEMA if schema else IDENTITY_SCHEMA)
        path = tmp_path / "d.csv"
        write_rows(path, [names[f] for f in ("country", "round", "age", "happiness")],
                   [["DE", 1, 40, 7]])
        with pytest.raises(DataError, match=rf"columns not in file header: \['{names['weight']}'\]"):
            load_csv(path, schema)
        write_rows(path, [names[f] for f in ("country", "age", "happiness", "weight")],
                   [["DE", 40, 7, 1]])
        with pytest.raises(DataError, match="has neither a 'round' nor a 'period_year' column"):
            load_csv(path, schema)

    def test_schema_must_map_the_required_fields(self, tmp_path):
        path = tmp_path / "d.csv"
        write_rows(path, self.HEADER, [["DE", 1, 40, 7, 1.0]])
        with pytest.raises(DataError, match="schema must map the 'weight' column"):
            load_csv(path, {name: name for name in self.HEADER if name != "weight"})
        with pytest.raises(DataError, match=r"schema must map 'round' or 'period_year' \(or both\)"):
            load_csv(path, {name: name for name in self.HEADER if name != "round"})

    def test_unknown_schema_fields_are_named(self, tmp_path):
        path = tmp_path / "d.csv"
        write_rows(path, self.HEADER, [["DE", 1, 40, 7, 1.0]])
        schema = {**IDENTITY_SCHEMA, "hapiness": "age", "wieght": "weight"}
        with pytest.raises(DataError, match=r"unknown fields in schema: \['hapiness', 'wieght'\]"):
            load_csv(path, schema)

    def test_no_usable_rows_is_error(self, tmp_path):
        path = tmp_path / "d.csv"
        write_rows(path, self.HEADER, [["DE", 1, 40, 7, 0]])
        with pytest.raises(DataError, match="no usable rows"):
            load_csv(path)

    def test_ess_schema_and_labor_merge(self, tmp_path):
        path = tmp_path / "d.csv"
        write_rows(
            path,
            ["cntry", "essround", "agea", "happy", "dweight", "gndr",
             "eisced", "maritalb", "mnactic"],
            [["DE", 4, 40, 7, 1.1, "female", "3", "married",
              "community or military service"]],
        )
        survey, _ = load_csv(path, ESS_SCHEMA)
        (r,) = rows(survey)
        assert (r.country, r.round, r.period_year) == ("DE", 4, 2008)
        assert r.labor_status == "other"

    @pytest.mark.parametrize("value", ["inf", "-inf", "Infinity", "NAN", "1e999"])
    @pytest.mark.parametrize(
        "field,reason",
        [
            ("age", "unparseable age"),
            ("round", "unparseable round"),
            ("period_year", "unparseable survey year"),
            ("happiness", "unparseable happiness"),
            ("weight", "unparseable weight"),
        ],
    )
    def test_non_finite_cell_is_unparseable(self, tmp_path, field, reason, value):
        header = ["country", "round", "period_year", "age", "happiness", "weight"]
        good = {"country": "DE", "round": 1, "period_year": 2002, "age": 40,
                "happiness": 7, "weight": 1.0}
        bad = dict(good, **{field: value})
        path = tmp_path / "d.csv"
        write_rows(path, header, [[row[c] for c in header] for row in (good, bad)])
        survey, report = load_csv(path)
        assert survey.age.tolist() == [40]
        assert report.dropped == {reason: 1}

    def test_blank_lines_and_short_rows(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text(
            "country,round,age,happiness,weight,sex\n"
            "DE,1,40,7,1.0\n"
            "\n"
            "DE,2,41,6\n",
            encoding="utf-8",
        )
        survey, report = load_csv(path)
        assert report.rows_read == 2 and report.dropped == {"unparseable weight": 1}
        assert rows(survey) == [rec(age=40)]

    def test_long_country_cell_costs_only_its_row(self, tmp_path):
        long_name = "X" * 10_000
        lines = [[long_name, 1, 40, 7, 1.0]] + [["DE", 1, 41, 7, 1.0]] * 2_000
        path = tmp_path / "d.csv"
        write_rows(path, self.HEADER, lines)
        survey, _ = load_csv(path)
        # Padding every row to the longest cell would cost 40,000 bytes a row.
        assert survey.country.nbytes < 100 * len(survey)
        results = batch_fit(survey, PRESETS["quad-nocontrols-nocap"])
        assert [res.country for res in results] == [long_name, "DE"]
        assert results[0].error == "1 observations cannot identify 3 coefficients"
        own = survey.take(survey.country_codes == survey.country_levels.index(long_name))
        assert rows(own) == [rec(country=long_name, age=40)]

    @pytest.mark.parametrize("column", [0, 4, 5])  # the country, the weight, a column not read
    def test_bytes_not_utf8_are_refused_in_any_column(self, tmp_path, column):
        cells = [b"DE", b"1", b"40", b"7", b"1.0", b"x"]
        cells[column] = b"D\xe9" if column != 4 else b"1.\xe9"
        path = tmp_path / "d.csv"
        # Past the first 8 KiB, which reading the header decodes.
        rows = b"DE,1,41,7,1.0,y\n" * 1000 + b",".join(cells) + b"\n"
        path.write_bytes(b"country,round,age,happiness,weight,note\n" + rows)
        with pytest.raises(DataError, match=f"{path} is not UTF-8 text"):
            load_csv(path)

    def test_missing_control_becomes_none(self, tmp_path):
        path = tmp_path / "d.csv"
        write_rows(
            path,
            self.HEADER + ["sex"],
            [["DE", 1, 40, 7, 1, "NA"], ["DE", 1, 41, 7, 1, "male"]],
        )
        survey, _ = load_csv(path)
        assert [r.sex for r in rows(survey)] == [None, "male"]


def test_save_load_round_trip(tmp_path):
    survey = Survey.from_rows([
        row(age=40, happiness=7.5, weight=1.25, sex="female"),
        row(age=82, round=8, period_year=2016, happiness=3.0, education="2"),
    ])
    path = tmp_path / "r.csv"
    save_csv(survey, path)
    loaded, report = load_csv(path)
    assert report.rows_kept == 2
    assert rows(loaded) == rows(survey)


# Cells that a plain file can hold as they are, and cells that need the
# csv module: a quote, a line break, NUL or a comma. The plain cells hold
# multibyte and whitespace-like text ("\xa0" and "\x85" are whitespace to
# str.strip and float, but no line break to csv), a country of 9 bytes, past
# the 7 that a packed key holds, and numbers that the decimal kernel reads
# ("-0", "007", "1.", ".5", "0.1") or leaves to float ("+3", 16 digits,
# "1e5", Arabic-Indic digits).
PLAIN_CELLS = (
    "DE", "FR", "1", "2", "40", "7", "1.5", "NA", "", "x", " 7 ", "1_0", "inf",
    "Ö", "\xa0DE", "\x85", " ", "Lithuania",
    "-0", "007", "1.", ".5", "+3", "0.1", "1234567890123456", "1e5", "\u0661\u0662",
)
SPECIAL_CELLS = (",", '"', "\n", "\r\n", "\r", "\0", "a,b", 'say "hi"', '"DE"')
# Coded cells of up to 7 bytes, which a packed key holds, and longer ones:
# "Slovenia" is 8 bytes, the first that a key cannot hold with its length.
CODED_CELLS = ("DE", "FR", "AT", "Ö", "\xa0DE", " DE", "NA", "", "1", "Slovenia", "Lithuania", "Österreich")
READ_NAMES = ("country", "round", "age", "happiness", "weight")


@st.composite
def tables(draw, cells):
    """A header (possibly empty) and rows of ``cells``; rows may be empty,
    short or long, and a header name may repeat or be one no schema reads."""
    header = draw(st.permutations(
        READ_NAMES + tuple(draw(st.lists(st.sampled_from(READ_NAMES + ("sex", "idno")), max_size=3)))
    ))
    if draw(st.integers(0, 9)) == 0:
        header = []
    # Most rows have the header's width, so that blocks reach the split
    # path; the rest are blank, short or long.
    width = len(header)
    size = st.sampled_from((width,) * 4 + (0, max(width - 1, 0), width + 1))
    rows = draw(st.lists(
        size.flatmap(lambda n: st.lists(st.sampled_from(cells), min_size=n, max_size=n)),
        max_size=12,
    ))
    return header, rows


def outcome(path):
    """What :func:`load_csv` gives for ``path``, as comparable values."""
    try:
        survey, report = load_csv(path)
    except (DataError, csv.Error) as exc:
        return type(exc), str(exc)
    columns = {
        name: getattr(survey, name).tolist()
        for name in ("country_codes", "round", "period_year", "age", "happiness", "weight")
    }
    controls = {name: (codes.tolist(), levels) for name, (codes, levels) in survey.controls.items()}
    return survey.country_levels, columns, controls, vars(report)


def csv_outcome(path, read=outcome):
    """``read(path)`` with every block sent to the csv module."""
    with mock.patch.object(dataset, "_plain_block", return_value=None):
        return read(path)


def cells_read(path):
    """The cells of every column of ``path`` after its header, as
    :func:`load_csv` reads them before any cell is stripped: each column
    coded with its raw text as the level, then spelled out."""
    with path.open("rb") as handle:
        columns = [dataset._Codes() for _ in dataset._header(handle)]
        try:
            dataset._read_columns(handle, len(columns), list(enumerate(columns)))
        except csv.Error as exc:
            return str(exc)
    return [[levels[code] for code in codes.tolist()] for codes, levels in (c.result() for c in columns)]


def spied_outcome(path):
    """:func:`outcome` of ``path``, and what :func:`dataset._plain_block`
    gave for each block, ``None`` for a block sent to the csv module."""
    blocks, plain_block = [], dataset._plain_block

    def spy(*args):
        blocks.append(plain_block(*args))
        return blocks[-1]

    with mock.patch.object(dataset, "_plain_block", spy):
        return outcome(path), blocks


def write_plain(path, header, rows):
    path.write_text("".join(",".join(row) + "\n" for row in [header, *rows]), encoding="utf-8")


def write_quoted(path, header, rows):
    with path.open("w", newline="", encoding="utf-8") as handle:
        csv.writer(handle, quoting=csv.QUOTE_ALL, lineterminator="\r\n").writerows([header, *rows])


class TestReadPaths:
    """A block with no quote, \\r or NUL whose rows have the header's
    width takes the byte path; every other block, and all after it, goes
    to the csv module. Both must read any file alike."""

    @settings(max_examples=150, deadline=None)
    @given(table=tables(PLAIN_CELLS * 3 + SPECIAL_CELLS), block=st.integers(1, 200),
           last_newline=st.booleans(), long_cell=st.integers(0, 9).map(lambda k: k == 0))
    def test_split_path_reads_as_csv(self, tmp_path_factory, table, block, last_newline, long_cell):
        header, rows = table
        if long_cell and rows and rows[-1]:
            # csv refuses a field past its size limit; so must the byte path.
            rows[-1][0] = "x" * (csv.field_size_limit() + 1)
        path = tmp_path_factory.getbasetemp() / "read_paths.csv"
        for write in (write_plain, write_quoted):
            try:
                write(path, header, rows)
            except csv.Error:
                continue  # before 3.11, csv.writer refuses NUL
            if not last_newline:
                path.write_text(path.read_text(encoding="utf-8").rstrip("\r\n"), encoding="utf-8")
            with mock.patch.object(dataset, "_BLOCK_BYTES", block):
                assert outcome(path) == csv_outcome(path)
                if header:
                    assert cells_read(path) == csv_outcome(path, cells_read)

    @settings(max_examples=100, deadline=None)
    @given(table=tables(PLAIN_CELLS), block=st.integers(1, 200))
    def test_plain_and_quoted_files_load_alike(self, tmp_path_factory, table, block):
        header, rows = table
        # A row of one empty cell is a blank line when written plain.
        rows = [row if any(row) or len(row) > 1 else [] for row in rows]
        # One path for both files, as error messages name it.
        path = tmp_path_factory.getbasetemp() / "plain_or_quoted.csv"
        got = []
        for write in (write_plain, write_quoted):
            write(path, header, rows)
            with mock.patch.object(dataset, "_BLOCK_BYTES", block):
                got.append(outcome(path))
        assert got[0] == got[1]

    @pytest.mark.parametrize("lines", [
        ["DE,1,40,7", "DE,1,41,7,1.0,x"],           # a short and a long row, 10 cells
        ["DE,1,40,7,1.0,FR,2,41,6,2.0"],            # a row twice the header's width
        ['"DE",1,40,7,1.0', 'DE,1,41,"7",1.0'],     # quoted cells
        ["DE,1,40,7,1.0\rDE,1,41,7,1.0"],           # a lone carriage return
        ["DE,1,40,7,1.0\r", "DE,1,41,7,1.0\r"],     # CRLF line ends
        ["DE,1,40,7,1.0", "D\0E,1,41,7,1.0"],        # NUL, which csv refuses before 3.11
        ["DE,1,40,7,1.0", "x" * (csv.field_size_limit() + 1) + ",1,41,7,1.0"],  # past the size limit
    ])
    def test_blocks_the_split_path_refuses(self, tmp_path, lines):
        path = tmp_path / "d.csv"
        path.write_text("\n".join(["country,round,age,happiness,weight", *lines, ""]), encoding="utf-8")
        assert outcome(path) == csv_outcome(path)
        assert cells_read(path) == csv_outcome(path, cells_read)

    @pytest.mark.parametrize("write", [write_plain, write_quoted])
    @pytest.mark.parametrize("block", [1, 7, 1 << 16])
    def test_byte_order_mark_loads_as_without(self, tmp_path, write, block):
        """A file that starts with a UTF-8 byte-order mark, as spreadsheet
        "CSV UTF-8" exports do, loads as the same file without one: the
        same columns, levels and LoadReport, from its first row on."""
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        header = ["country", "round", "age", "happiness", "weight", "sex"]
        write(plain, header, [["DE", "1", "40", "7", "1.0", "1"], ["FR", "2", "50", "x", "0.5", "2"],
                              ["FR", "2", "61", "6", "2.0", ""]])
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        with mock.patch.object(dataset, "_BLOCK_BYTES", block):
            expected = outcome(plain)
            assert expected[1]["age"] == [40, 61]
            assert outcome(marked) == expected

    def test_quoted_header_then_plain_rows(self, tmp_path):
        """csv reads a header record of two lines, with a name of multibyte
        characters, and the plain rows after it, blank lines among them,
        still take the byte path."""
        path = tmp_path / "d.csv"
        text = 'country,round,age,happiness,weight,"x\ny",Größe\nDE,1,40,7,1.0,a,\n\n\nFR,2,50,6,2.0,b,\n'
        path.write_text(text, encoding="utf-8")
        blocks, plain_block = [], dataset._plain_block

        def spy(*args):
            blocks.append(plain_block(*args))
            return blocks[-1]

        with mock.patch.object(dataset, "_plain_block", spy):
            got = outcome(path)
        assert len(blocks) == 1 and blocks[0] is not None and got == csv_outcome(path)
        assert got[0] == ("DE", "FR") and cells_read(path)[5] == ["a", "b"]

    # The first rows of BOUNDARY end at offsets 20 and 64 of the rows, each
    # followed by a blank line: blocks of 20 or 64 bytes end on those lines.
    BOUNDARY = ("DE,1,40,7,1.0000000\n\nFR,2,41,6,2.00000000\nDE,1,42,5,1.000000000\n"
                "\nFR,2,43,6,2.0\n")

    @pytest.mark.parametrize("block", [1, 20, 64])
    @pytest.mark.parametrize("rows", [
        "\nDE,1,40,7,1.0\nFR,2,41,6,2.0\n",                # the first line blank
        *("DE,1,40,7,1.0" + "\n" * k + "FR,2,41,6,2.0\n" for k in (2, 3, 4)),  # runs of newlines
        BOUNDARY,
        "\n\n\n",                                         # every line blank
    ])
    def test_blank_lines(self, tmp_path, monkeypatch, block, rows):
        """A blank line is not a row, wherever it falls in a block; a
        block with one stays on the byte path."""
        assert self.BOUNDARY[19:21] == self.BOUNDARY[63:65] == "\n\n"
        path = tmp_path / "d.csv"
        path.write_text("country,round,age,happiness,weight\n" + rows, encoding="utf-8")
        monkeypatch.setattr(dataset, "_BLOCK_BYTES", block)
        got, blocks = spied_outcome(path)
        assert got == csv_outcome(path)
        assert cells_read(path) == csv_outcome(path, cells_read)
        if rows.strip():
            assert blocks and None not in blocks
            assert got[1]["age"] == list(range(40, 40 + rows.count("DE") + rows.count("FR")))
        else:
            assert got == (DataError, f"no usable rows in {path}")

    # Coded cells that are byte prefixes of one another, empty, or differ
    # only by a space; SHORT's keys span fewer numbers than its rows, so
    # they are coded through a bincount and PREFIXES's through a sort.
    PREFIXES = ["100", "1", "1 ", "", "1000000", " 1", "10", "1", "", "1000000"]
    SHORT = ["10", "1", "", "1 ", " 1", "10"] * 2100

    @pytest.mark.parametrize("cells", [PREFIXES, SHORT], ids=["prefixes", "short"])
    def test_coded_keys_of_prefix_cells(self, tmp_path, cells):
        path = tmp_path / "d.csv"
        write_plain(path, ["country", "round", "age", "happiness", "weight"],
                    [[cell, "1", "40", "7", "1"] for cell in cells])
        _, blocks = spied_outcome(path)
        assert len(blocks) == 1 and blocks[0] is not None
        got = cells_read(path)
        assert got[0] == cells and got == csv_outcome(path, cells_read)

    def test_utf8_checked_in_every_block(self, tmp_path, monkeypatch):
        """Past the first block, a Latin-1 byte is refused, even in a column
        not read, and a multibyte name reads as csv reads it, on the byte
        path."""
        monkeypatch.setattr(dataset, "_BLOCK_BYTES", 64)
        path = tmp_path / "d.csv"
        header = b"country,round,age,happiness,weight,note\n"
        rows = b"DE,1,40,7,1.0,x\n" * 20
        path.write_bytes(header + rows + b"DE,1,41,7,1.0,\xe9\n" + rows)
        with pytest.raises(DataError, match=f"{path} is not UTF-8 text"):
            load_csv(path)
        path.write_bytes(header + rows + "België,1,41,7,1.0,x\n".encode() + rows)
        got, blocks = spied_outcome(path)
        assert len(blocks) > 2 and None not in blocks
        assert got == csv_outcome(path)
        assert got[0] == ("DE", "België") and got[1]["country_codes"] == [0] * 20 + [1] + [0] * 20

    @settings(max_examples=100, deadline=None)
    @given(cells=st.lists(st.tuples(st.sampled_from(CODED_CELLS), st.sampled_from(CODED_CELLS)), min_size=1,
                          max_size=40),
           block=st.integers(1, 200))
    def test_coded_cells_in_first_appearance_order(self, tmp_path_factory, cells, block):
        """Country and control cells, of up to 7 bytes or longer, get
        levels in first-appearance order within and across blocks."""
        path = tmp_path_factory.getbasetemp() / "coded.csv"
        write_plain(path, ["country", "sex", "round", "age", "happiness", "weight"],
                    [[country, sex, "1", "40", "7", "1"] for country, sex in cells])
        with mock.patch.object(dataset, "_BLOCK_BYTES", block):
            survey, _ = load_csv(path)
        countries = [country.strip() for country, _ in cells]
        sexes = [sex.strip() for _, sex in cells]
        assert survey.country_levels == tuple(dict.fromkeys(countries))
        assert survey.country.tolist() == countries
        codes, levels = survey.controls["sex"]
        assert levels == tuple(dict.fromkeys(s for s in sexes if s not in DEFAULT_MISSING))
        assert [levels[c] if c >= 0 else None for c in codes.tolist()] == [
            None if s in DEFAULT_MISSING else s for s in sexes
        ]

    @pytest.mark.parametrize("block", [1, 20, 40])
    def test_levels_first_seen_in_a_later_block(self, tmp_path, monkeypatch, block):
        """Blocks whose coded cells are all known keep their codes; a later
        block that brings new levels, after known ones and in another
        order than their keys sort, codes them by first appearance, as csv
        does. A new text for a known level (" FR") gets that level."""
        header = ["country", "sex", "round", "age", "happiness", "weight"]
        known = [["DE", "male"], ["FR", "female"], ["DE", "male"], ["FR", "female"], ["DE", "NA"]]
        later = [["FR", "female"], ["AT", "other"], [" FR", "male"], ["PL", "x"], ["AT", "female"]]
        path = tmp_path / "d.csv"
        write_plain(path, header, [[*cells, "1", "40", "7", "1"] for cells in known + later])
        monkeypatch.setattr(dataset, "_BLOCK_BYTES", block)
        got = outcome(path)
        assert got == csv_outcome(path)
        assert cells_read(path) == csv_outcome(path, cells_read)
        assert got[0] == ("DE", "FR", "AT", "PL")
        assert got[2]["sex"] == ([0, 1, 0, 1, -1, 1, 2, 0, 3, 1], ("male", "female", "other", "x"))

    def test_missing_token_that_is_a_number(self, tmp_path):
        """A cell equal to a missing token is missing even where the token
        reads as a number."""
        path = tmp_path / "d.csv"
        write_plain(path, ["country", "round", "age", "happiness", "weight"],
                    [["DE", "1", "40", "7", "1"], ["DE", "1", "41", "5", "1"]])
        for missing in ({"7"}, {" 7"}):
            survey, report = load_csv(path, missing=missing)
            assert survey.happiness.tolist() == ([5.0] if missing == {"7"} else [7.0, 5.0])
            assert (report.dropped == {"unparseable happiness": 1}) == (missing == {"7"})

    def test_quote_after_the_first_block(self, tmp_path, monkeypatch):
        """A quoted field that holds a comma and a line break, after
        blocks already read as bytes, is read whole by the csv module."""
        header = ["country", "round", "age", "happiness", "weight", "sex"]
        rows = [["DE", "1", str(20 + i), "7", "1.0", "male"] for i in range(40)]
        rows.append(["FR", "2", "60", "5", "2.0", "not,\nsure"])
        rows += [["DE", "1", "30", "6", "1.0", ""], ["DE", "1", "31"]]
        path = tmp_path / "d.csv"
        write_plain(path, header, rows[:40])
        with path.open("a", newline="", encoding="utf-8") as handle:
            csv.writer(handle, lineterminator="\n").writerows(rows[40:])
        monkeypatch.setattr(dataset, "_BLOCK_BYTES", 64)
        got = outcome(path)
        assert got == csv_outcome(path)
        levels, columns, controls, report = got
        assert levels == ("DE", "FR") and columns["age"][40:] == [60, 30]
        assert controls["sex"] == ([0] * 40 + [1, -1], ("male", "not,\nsure"))
        assert report["dropped"] == {"unparseable happiness": 1}


# Text that is a decimal for the kernel: "-"?, digits, and a point with a
# digit on at least one side of it.
KERNEL_FORM = re.compile(r"-?([0-9]+\.?[0-9]*|\.[0-9]+)")


def kernel(cells):
    """:func:`dataset._decimals` over ``cells``, laid out as the first
    column of a plain block."""
    data = "".join("x," + cell + "\n" for cell in cells).encode() + dataset._PAD
    words, ends = dataset._plain_block(data, 2)
    starts = ends[:, 0] + 1
    return dataset._decimals(words, starts, ends[:, 1] - starts)


class TestDecimalKernel:
    """The kernel reads a decimal of at most 15 digits bit for bit as
    ``float`` does, and leaves every other cell to the str route."""

    DECIMALS = st.builds(
        lambda sign, whole, point, fraction: sign + whole + point + fraction,
        st.sampled_from(("", "-")), st.text("0123456789", max_size=17),
        st.sampled_from(("", ".")), st.text("0123456789", max_size=17),
    )
    OTHER = st.text(st.characters(exclude_characters=',\n\r"\0', exclude_categories=("Cs",)), max_size=20)

    @settings(max_examples=300)
    @given(cells=st.lists(st.one_of(DECIMALS, st.text("0123456789.-+eE_ ", max_size=20), OTHER), min_size=1))
    def test_reads_as_float_or_falls_back(self, cells):
        values, ok = kernel(cells)
        expected = [
            bool(KERNEL_FORM.fullmatch(cell)) and sum(map(str.isdigit, cell)) <= dataset._DIGITS
            for cell in cells
        ]
        assert ok.tolist() == expected
        floats = np.array([float(cell) for cell, fits in zip(cells, expected) if fits], np.float64)
        np.testing.assert_array_equal(values[ok].view(np.int64), floats.view(np.int64))

    def test_edge_cells(self):
        # 15 digits in up to 17 bytes, the most the kernel reads, are read;
        # 16 or 17 digits, or a cell past 17 bytes, are not.
        cells = ["-0", "007", "1.", ".5", "0.1", "-.5", "999999999999999", "0.00000000000001",
                 "-.123456789012345", "0.12345678901234",
                 "+3", "1234567890123456", "12345678901234567", "-0.123456789012345", "1e5",
                 "\u0661\u0662", ".", "-", "", "1.2.3", "1-", " 1"]
        values, ok = kernel(cells)
        assert ok.tolist() == [True] * 10 + [False] * 12
        assert values[:10].tolist() == [-0.0, 7.0, 1.0, 0.5, 0.1, -0.5, 999999999999999.0, 1e-14,
                                        -0.123456789012345, 0.12345678901234]
        assert math.copysign(1.0, values[0]) == -1.0
        # A block whose cells are all empty reads no byte of them.
        values, ok = kernel(["", "", ""])
        assert ok.tolist() == [False] * 3 and len(values) == 3


class TestNumbers:
    """``_numbers`` parses with ``float`` directly where it can, and gives
    what one :func:`_parse_number` per cell gives."""

    @staticmethod
    def expected(cells, missing):
        values = [dataset._parse_number(cell, missing) for cell in cells]
        return [math.nan if value is None else value for value in values]

    @pytest.mark.parametrize("missing", [DEFAULT_MISSING, frozenset({"-9"}), frozenset({" 7 "})])
    @pytest.mark.parametrize("tail", [[], ["NA"], ["x"]])
    def test_pinned_cells(self, missing, tail):
        cells = [" 7 ", "1_0", "inf", "-inf", "NaN", "1e999", "-9", "2.5", *tail]
        got = dataset._numbers(cells, missing, dataset._Numbers(missing).exact)
        np.testing.assert_array_equal(got, self.expected(cells, missing))
        assert got[:2].tolist() == [7.0, 10.0] and np.isnan(got[2:6]).all()
        assert math.isnan(got[6]) == ("-9" in missing)

    @given(cells=st.lists(st.one_of(st.sampled_from(PLAIN_CELLS), st.text("09.-eE_ inaNf", max_size=5))),
           missing=st.sets(st.sampled_from(("", "NA", "-9", "0", " 1", "nan", "1e999", "x"))))
    def test_matches_one_parse_per_cell(self, cells, missing):
        missing = frozenset(missing)
        np.testing.assert_array_equal(
            dataset._numbers(cells, missing, dataset._Numbers(missing).exact), self.expected(cells, missing)
        )


def test_survey_columns_are_read_only():
    survey = Survey.from_rows([row(age=40), row(age=50, sex="male")])
    design = build_design(survey, [TermSpec.intercept(), TermSpec.age_linear()])
    for column in (design.response, design.row_weights, survey.age, survey.country_codes,
                   survey.country, survey.controls["sex"][0], survey.birth_year):
        with pytest.raises(ValueError, match="read-only"):
            column[0] = column[1]
    with pytest.raises(AttributeError):
        survey.age = survey.age + 1
    assert rows(survey) == [rec(age=40), rec(age=50, sex="male")]



def test_absent_controls_share_one_read_only_column():
    """Every control a survey lacks reads -1 from one read-only buffer,
    and so does every control without levels in a survey ``take``
    selects rows from."""
    survey = Survey(
        country_codes=[0, 0, 0], country_levels=("A",), round=[1, 2, 3], period_year=[2002, 2004, 2006],
        age=[30, 40, 50], happiness=[5.0, 6.0, 7.0], weight=[1.0, 1.0, 1.0],
        controls={"sex": ([0, -1, 1], ("female", "male"))},
    )
    for sample in (survey, survey.take([2, 0])):
        absent = [codes for name, (codes, levels) in sample.controls.items() if name != "sex"]
        assert len(absent) == len(CONTROL_VARS) - 1
        for codes in absent:
            assert codes.tolist() == [-1] * len(sample) and not codes.flags.writeable
            assert np.shares_memory(codes, absent[0])
            with pytest.raises(ValueError, match="read-only"):
                codes[0] = 0
        assert not np.shares_memory(sample.controls["sex"][0], absent[0])
    codes, levels = survey.take([2, 0]).controls["sex"]
    assert codes.tolist() == [1, 0] and levels == ("female", "male")


class TestDropTallies:
    """Each country's rows in and rows dropped by reason, as ``batch_fit``
    counts them from the cells a spec leaves out. Only one row has a
    control, so every other row misses "education", the first control
    by name."""

    def make(self):
        return Survey.from_rows([
            row(age=20), row(age=40), row(age=70, country="FR"),
            row(age=90), row(age=30, sex="male"),
        ])

    def tallies(self, spec):
        return {r.country: (r.rows_in, r.dropped) for r in batch_fit(self.make(), PRESETS[spec])}

    def test_age_cap(self):
        assert self.tallies("quad-nocontrols-cap") == {
            "DE": (4, {"age above maximum": 1}), "FR": (1, {"age above maximum": 1}),
        }

    def test_listwise_deletion_after_the_age_cap(self):
        assert self.tallies("quad-controls-nocap") == {
            "DE": (4, {"missing education": 4}), "FR": (1, {"missing education": 1}),
        }
        assert self.tallies("quad-controls-cap") == {
            "DE": (4, {"age above maximum": 1, "missing education": 3}),
            "FR": (1, {"age above maximum": 1}),
        }

    def test_no_restriction_drops_nothing(self):
        assert self.tallies("quad-nocontrols-nocap") == {"DE": (4, {}), "FR": (1, {})}

    def test_emptied_country_is_tallied_with_its_error(self):
        results = batch_fit(self.make(), PRESETS["quad-nocontrols-cap"], ["FR", "XX"])
        assert [(r.rows_in, r.dropped, r.error) for r in results] == [
            (1, {"age above maximum": 1}, "filter removed all 1 records"),
            (0, {}, "country 'XX' not in the survey"),
        ]


class TestCohortBin:
    def test_anchors(self):
        assert cohort_bin(1970) == "1970-1974"
        assert cohort_bin(1974) == "1970-1974"
        assert cohort_bin(1969) == "1965-1969"
        assert cohort_bin(1972, width=10) == "1970-1979"

    def test_width_validation(self):
        with pytest.raises(ValueError):
            cohort_bin(1970, width=0)

    @given(year=st.integers(min_value=1800, max_value=2100),
           width=st.integers(min_value=1, max_value=12))
    def test_bin_contains_year(self, year, width):
        label = cohort_bin(year, width)
        start, end = (int(part) for part in label.rsplit("-", 1))
        assert start <= year <= end
        assert end - start == width - 1
        assert start % width == 0
