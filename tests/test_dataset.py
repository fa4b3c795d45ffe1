import csv
from dataclasses import replace

import pytest
from hypothesis import given, strategies as st

from agecurve import (
    PRESETS,
    DataError,
    EmptySampleError,
    FilterSpec,
    Survey,
    TermSpec,
    apply_filter,
    batch_fit,
    build_design,
    cohort_bin,
    load_csv,
    save_csv,
)
from agecurve.dataset import ESS_SCHEMA, IDENTITY_SCHEMA, RoundYearMap
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

    def test_years_off_grid_get_rank_rounds(self, tmp_path):
        path = tmp_path / "d.csv"
        write_rows(
            path,
            ["country", "period_year", "age", "happiness", "weight"],
            [["DE", 2011, 40, 7, 1], ["DE", 2003, 41, 7, 1], ["DE", 2007, 42, 7, 1]],
        )
        survey, report = load_csv(path)
        assert survey.round.tolist() == [3, 1, 2]
        assert survey.period_year.tolist() == [2011, 2003, 2007]
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
        kept, _ = apply_filter(survey, FilterSpec(countries=frozenset({long_name})))
        assert rows(kept) == [rec(country=long_name, age=40)]

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


class TestApplyFilter:
    def make(self):
        return Survey.from_rows([
            row(age=20), row(age=40), row(age=70, country="FR"),
            row(age=90), row(age=30, sex="male"),
        ])

    def test_age_window(self):
        kept, report = apply_filter(self.make(), FilterSpec(min_age=25, max_age=69))
        assert kept.age.tolist() == [40, 30]
        assert report.dropped["age below minimum"] == 1
        assert report.dropped["age above maximum"] == 2

    def test_country_and_listwise(self):
        kept, report = apply_filter(
            self.make(),
            FilterSpec(countries=frozenset({"DE"}), listwise_vars=frozenset({"sex"})),
        )
        assert kept.age.tolist() == [30]
        assert report.dropped["country excluded"] == 1
        assert report.dropped["missing sex"] == 3

    def test_order_preserved(self):
        survey = self.make()
        kept, _ = apply_filter(survey, FilterSpec())
        assert rows(kept) == rows(survey)

    def test_empty_result_raises(self):
        with pytest.raises(EmptySampleError):
            apply_filter(self.make(), FilterSpec(countries=frozenset({"XX"})))

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            FilterSpec(min_age=30, max_age=20)
        with pytest.raises(ValueError):
            FilterSpec(listwise_vars=frozenset({"happiness"}))


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
