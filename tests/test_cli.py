import csv
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import agecurve.cli
import agecurve.models
from agecurve.cli import COMMANDS, EXIT_CHECK_FAILED, RULES, build_parser, main
from agecurve.render import read_csv
from agecurve.simulate import default_attrition_config, experiment_attrition
from conftest import FITTABLE, survey_file, ushape


class TestFit:
    def test_single_spec(self, survey_csv, tmp_path, capsys):
        out = tmp_path / "out"
        code = main([
            "fit", "--input", str(survey_csv), "--out", str(out),
            "--spec", "quad-nocontrols-nocap",
        ])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "loaded" in stdout and "wrote" in stdout
        header, rows = read_csv(out / "fit_quad-nocontrols-nocap.csv")
        assert header[:4] == ["country", "model", "coefficient", "estimate"]
        countries = {row[0] for row in rows}
        assert countries == {"AA", "BB"}
        assert (out / "fit_quad-nocontrols-nocap.txt").is_file()
        age_rows = [r for r in rows if r[2] == "age" and r[0] == "AA"]
        assert len(age_rows) == 1 and age_rows[0][3] < 0

    def test_battery_with_controls(self, survey_csv, tmp_path):
        out = tmp_path / "out"
        code = main([
            "fit", "--input", str(survey_csv), "--out", str(out),
            "--spec", "quad-battery", "--format", "csv",
        ])
        assert code == 0
        for name in (
            "quad-controls-cap", "quad-nocontrols-cap",
            "quad-nocontrols-nocap", "quad-controls-nocap",
        ):
            assert (out / f"fit_{name}.csv").is_file()

    def test_battery_partial_failure_without_controls(self, tmp_path, capsys):
        path = survey_file(
            tmp_path / "nocontrols.csv", n=300, seed=103, country="AA", happiness_fn=ushape
        )
        code = main([
            "fit", "--input", str(path), "--out", str(tmp_path / "out"),
            "--spec", "quad-battery", "--format", "csv",
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "FAILED AA [quad-controls-cap]" in err
        assert (tmp_path / "out" / "fit_quad-nocontrols-nocap.csv").is_file()

    def test_unknown_spec_is_fatal(self, survey_csv, tmp_path, capsys):
        code = main([
            "fit", "--input", str(survey_csv), "--out", str(tmp_path / "o"),
            "--spec", "quad-everything",
        ])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_key_error_inside_command_propagates(self, survey_csv, tmp_path, monkeypatch):
        def broken(*args, **kwargs):
            raise KeyError("a bug, not bad input")

        monkeypatch.setattr(agecurve.cli, "_fit_plan", broken)
        with pytest.raises(KeyError, match="a bug"):
            main(["fit", "--input", str(survey_csv), "--out", str(tmp_path / "o")])

    def test_country_filter(self, survey_csv, tmp_path):
        out = tmp_path / "out"
        code = main([
            "fit", "--input", str(survey_csv), "--out", str(out),
            "--countries", "BB", "--format", "csv",
        ])
        assert code == 0
        _, rows = read_csv(out / "fit_quad-nocontrols-nocap.csv")
        assert {row[0] for row in rows} == {"BB"}

    def test_repeated_country_is_fitted_once(self, survey_csv, tmp_path, capsys):
        out = tmp_path / "out"
        code = main([
            "detect", "--rule", "quad_t15", "--input", str(survey_csv), "--out", str(out),
            "--countries", "BB, AA,BB,AA", "--format", "csv",
        ])
        assert code == 0
        assert "of 2 countries" in capsys.readouterr().out
        _, rows = read_csv(out / "detect_quad_t15.csv")
        assert [row[0] for row in rows] == ["BB", "AA"]

    def test_absent_country_is_named(self, survey_csv, tmp_path, capsys):
        code = main([
            "fit", "--input", str(survey_csv), "--out", str(tmp_path / "out"),
            "--countries", "AA,XX", "--format", "csv",
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "FAILED XX [quad-nocontrols-nocap]: country 'XX' not in the survey" in err

    def test_deterministic_outputs(self, survey_csv, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        argv = ["fit", "--input", str(survey_csv), "--format", "csv"]
        assert main(argv + ["--out", str(out_a)]) == 0
        assert main(argv + ["--out", str(out_b)]) == 0
        name = "fit_quad-nocontrols-nocap.csv"
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


class TestFitPlan:
    @pytest.mark.parametrize(
        "argv, passes",
        [
            (["report"], 2),
            (["fit", "--spec", "quad-battery"], 1),
            (["curves", "--scheme", "fine"], 1),
            *((["detect", "--rule", rule], 1) for rule in RULES),
        ],
        ids=["report", "fit-quad-battery", "curves-fine", *RULES],
    )
    def test_passes_per_command(self, survey_csv, tmp_path, monkeypatch, argv, passes):
        """A command builds one pass per form of the specs it names:
        ``report`` one for its four quadratic presets and one for its
        two range presets."""
        calls = []
        build = agecurve.models._pass
        monkeypatch.setattr(agecurve.models, "_pass", lambda *args: calls.append(args) or build(*args))
        assert main([*argv, "--input", str(survey_csv), "--out", str(tmp_path / "out")]) == 0
        assert len(calls) == passes


class TestInputHandling:
    def test_missing_input(self, tmp_path, capsys):
        code = main(["fit", "--input", str(tmp_path / "nope.csv")])
        assert code == 1
        assert "not found" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["fit", "--bogus"], ["detect", "--fixture", "table2"], []])
    def test_usage_error_is_fatal(self, capsys, argv):
        assert main(argv) == 1
        assert "usage: agecurve" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["--help"], ["report", "--help"]])
    def test_help_exits_zero(self, capsys, argv):
        assert main(argv) == 0
        assert "usage: agecurve" in capsys.readouterr().out

    def test_input_flag_required(self, capsys):
        code = main(["fit"])
        assert code == 1
        assert "--input" in capsys.readouterr().err

    def test_column_mapping_flag(self, tmp_path):
        canonical = survey_file(tmp_path / "c.csv", n=200, seed=104, happiness_fn=ushape)
        text = canonical.read_text()
        renamed = tmp_path / "renamed.csv"
        renamed.write_text(
            text.replace('"happiness"', '"satisfaction"').replace('"age"', '"years"'),
            encoding="utf-8",
        )
        code = main([
            "fit", "--input", str(renamed), "--out", str(tmp_path / "out"),
            "--map", "happiness=satisfaction", "--map", "age=years",
            "--format", "csv",
        ])
        assert code == 0

    def test_load_notes_on_stderr(self, tmp_path, capsys):
        """Years off the round-year grid are ranked into rounds, and the
        load note saying so reaches stderr."""
        rng = np.random.default_rng(5)
        path = tmp_path / "offgrid.csv"
        with path.open("w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            writer.writerow(["country", "year", "age", "happiness", "weight"])
            for i in range(600):
                age = int(rng.integers(15, 91))
                writer.writerow([
                    "AA", (2003, 2007, 2011)[i % 3], age,
                    round(ushape(age) + rng.normal(0.0, 0.6), 3), 1.0,
                ])
        code = main([
            "fit", "--input", str(path), "--out", str(tmp_path / "out"),
            "--map", "period_year=year", "--format", "csv",
        ])
        assert code == 0
        captured = capsys.readouterr()
        assert captured.out.splitlines()[0] == "loaded 600 rows"
        assert (
            "note: survey years do not follow the round-year grid; "
            "rounds assigned by rank over observed years\n"
        ) in captured.err

    def test_bad_map_syntax(self, survey_csv, tmp_path, capsys):
        code = main([
            "fit", "--input", str(survey_csv), "--out", str(tmp_path / "o"),
            "--map", "happiness",
        ])
        assert code == 1
        assert "logical=column" in capsys.readouterr().err

    def test_explicit_map_to_missing_column(self, survey_csv, tmp_path, capsys):
        code = main([
            "fit", "--input", str(survey_csv), "--out", str(tmp_path / "o"),
            "--map", "happiness=ladder",
        ])
        assert code == 1
        assert "ladder" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "maps,named",
        [
            (["sex=gender"], "['gender']"),  # an optional field: no gender column
            (["round=foo"], "['foo']"),  # the file's period_year column would do
            (["sex=gender", "marital=mstat"], "['gender', 'mstat']"),
        ],
    )
    def test_mapped_column_must_exist(self, tmp_path, capsys, maps, named):
        path = survey_file(tmp_path / "c.csv", n=200, seed=104, happiness_fn=ushape)
        argv = ["fit", "--input", str(path), "--out", str(tmp_path / "out")]
        code = main([*argv, *(arg for m in maps for arg in ("--map", m))])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == f"error: columns not in file header: {named}\n"

    def test_file_without_round_or_year(self, tmp_path, capsys):
        path = tmp_path / "no_timing.csv"
        path.write_text("country,age,happiness,weight\nAA,40,7,1\n", encoding="utf-8")
        code = main(["fit", "--input", str(path), "--out", str(tmp_path / "out")])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: {path} has neither a 'round' nor a 'period_year' column\n"
        )

    @pytest.mark.parametrize("source", ["map", "config"])
    def test_unknown_field_name_is_fatal(self, survey_csv, tmp_path, capsys, source):
        config = tmp_path / "cfg.ini"
        config.write_text("[columns]\nwieght = pweight\n", encoding="utf-8")
        extra = ["--map", "hapiness=age"] if source == "map" else ["--config", str(config)]
        code = main(["fit", "--input", str(survey_csv), "--out", str(tmp_path / "o"), *extra])
        err = capsys.readouterr().err
        assert code == 1
        assert [line for line in err.splitlines() if line.startswith("error:")] == [
            f"error: unknown fields in schema: {['hapiness' if source == 'map' else 'wieght']}"
        ]

    def test_columns_config_section(self, tmp_path):
        canonical = survey_file(tmp_path / "c.csv", n=200, seed=105, happiness_fn=ushape)
        renamed = tmp_path / "renamed.csv"
        renamed.write_text(
            canonical.read_text().replace('"weight"', '"pweight"'), encoding="utf-8"
        )
        config = tmp_path / "cfg.ini"
        config.write_text("[columns]\nweight = pweight\n", encoding="utf-8")
        code = main([
            "fit", "--input", str(renamed), "--config", str(config),
            "--out", str(tmp_path / "out"), "--format", "csv",
        ])
        assert code == 0

    def test_unknown_format(self, survey_csv, tmp_path, capsys):
        code = main([
            "fit", "--input", str(survey_csv), "--out", str(tmp_path / "o"),
            "--format", "pdf",
        ])
        assert code == 1
        assert "pdf" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["fit", "--input", "EMPTY"],
            ["simulate", "--experiment", "mediator", "--n", "0"],
            ["simulate", "--experiment", "attrition", "--strength", "2"],
            ["simulate", "--experiment", "attrition", "--knee", "10"],
            ["simulate", "--experiment", "attrition", "--knee", "200"],
            ["simulate", "--experiment", "truncation", "--reps", "-3"],
            ["simulate", "--experiment", "truncation", "--reps", "0"],
            ["simulate", "--experiment", "mediator", "--reps", "1"],
            ["simulate", "--experiment", "mediator", "--strength", "0.5"],
            ["simulate", "--experiment", "mediator", "--knee", "70"],
        ],
    )
    def test_refused_with_one_error_line(self, tmp_path, capsys, argv):
        empty = tmp_path / "empty.csv"
        empty.write_text("", encoding="utf-8")
        argv = [str(empty) if arg == "EMPTY" else arg for arg in argv]
        code = main([*argv, "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 1
        assert len([line for line in err.splitlines() if line.startswith("error:")]) == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("cell,quoted,message", [
        (b"D\xe9", False, "is not UTF-8 text (invalid continuation byte)"),  # Latin-1
        (b"D\xe9", True, "is not UTF-8 text (invalid continuation byte)"),
        (b"x" * 131_073, False, "cannot read"),  # past csv's field size limit
        (b"x" * 131_073, True, "cannot read"),
    ], ids=["latin1", "latin1-quoted", "long-cell", "long-cell-quoted"])
    def test_unreadable_file_is_refused(self, tmp_path, capsys, cell, quoted, message):
        """Bytes that are not UTF-8, and a row that csv refuses, give one
        error line naming the file, from either read path."""
        path = tmp_path / "bad.csv"
        line = b'"' + cell + b'",1,40,7,1.0' if quoted else cell + b",1,40,7,1.0"
        path.write_bytes(b"country,round,age,happiness,weight\nDE,1,41,7,1.0\n" + line + b"\n")
        code = main(["fit", "--input", str(path), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(f"error: {path}" if "UTF-8" in message else f"error: cannot read {path}")
        assert message in err and len(err.splitlines()) == 1


class TestConfigFile:
    """The ``[filters]`` and ``[output]`` keys README documents, each
    applied from the file and overridden by its flag, a config file
    that cannot be read, and a ``[simulate]`` value that cannot be cast."""

    SPEC = "quad-nocontrols-nocap"

    def fit(self, survey_csv, tmp_path, config_text, *flags):
        config = tmp_path / "cfg.ini"
        config.write_text(config_text, encoding="utf-8")
        return main(["fit", "--input", str(survey_csv), "--spec", self.SPEC, "--config", str(config), *flags])

    @pytest.mark.parametrize("flags, expected", [([], {"BB"}), (["--countries", "AA"], {"AA"})])
    def test_countries(self, survey_csv, tmp_path, flags, expected):
        out = tmp_path / "out"
        code = self.fit(survey_csv, tmp_path, "[filters]\ncountries = BB\n", "--out", str(out), "--format", "csv", *flags)
        assert code == 0
        _, rows = read_csv(out / f"fit_{self.SPEC}.csv")
        assert {row[0] for row in rows} == expected

    @pytest.mark.parametrize("flags, expected", [([], [".csv"]), (["--format", "text"], [".txt"])])
    def test_formats(self, survey_csv, tmp_path, flags, expected):
        out = tmp_path / "out"
        assert self.fit(survey_csv, tmp_path, "[output]\nformats = csv\n", "--out", str(out), *flags) == 0
        assert [path.suffix for path in out.iterdir()] == expected

    @pytest.mark.parametrize("flagged", [False, True])
    def test_dir(self, survey_csv, tmp_path, flagged):
        configured, flag = tmp_path / "configured", tmp_path / "flag"
        flags = ["--out", str(flag)] if flagged else []
        assert self.fit(survey_csv, tmp_path, f"[output]\ndir = {configured}\n", *flags) == 0
        written, unused = (flag, configured) if flagged else (configured, flag)
        assert (written / f"fit_{self.SPEC}.csv").is_file() and not unused.exists()

    @pytest.mark.parametrize("section", ["output", "filters", "columns"])
    def test_percent_is_read_literally(self, tmp_path, section):
        """A ``%`` in a value is a character of it, not the start of an
        interpolation: in the output dir, in a country and in a column name."""
        survey = survey_file(
            tmp_path / "survey.csv",
            dict(n=400, seed=101, country="AA"), dict(n=400, seed=102, country="B%"), **FITTABLE,
        )
        out = tmp_path / "100%"
        text = {
            "output": f"[output]\ndir = {out}\n",
            "filters": "[filters]\ncountries = B%\n",
            "columns": "[columns]\nhappiness = happy%\n",
        }[section]
        if section == "columns":
            survey.write_text(survey.read_text().replace('"happiness"', '"happy%"'), encoding="utf-8")
        flags = [] if section == "output" else ["--out", str(out)]
        assert self.fit(survey, tmp_path, text, "--format", "csv", *flags) == 0
        _, rows = read_csv(out / f"fit_{self.SPEC}.csv")
        assert {row[0] for row in rows} == ({"B%"} if section == "filters" else {"AA", "B%"})

    def test_config_not_found(self, survey_csv, tmp_path, capsys):
        missing = tmp_path / "missing.ini"
        code = main(["fit", "--input", str(survey_csv), "--config", str(missing), "--out", str(tmp_path / "o")])
        assert code == 1
        assert capsys.readouterr().err == f"error: config file not found: {missing}\n"

    @pytest.mark.parametrize(
        "content",
        [b"weight = pweight\n", b"[columns]\nweight = a\nweight = b\n", "[columns]\nweight = a\n".encode("utf-16")],
        ids=["key-before-section", "duplicate-key", "utf-16"],
    )
    def test_unreadable_config_is_one_error_line(self, survey_csv, tmp_path, capsys, content):
        config = tmp_path / "cfg.ini"
        config.write_bytes(content)
        code = main(["fit", "--input", str(survey_csv), "--config", str(config), "--out", str(tmp_path / "o")])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err.startswith(f"error: cannot read config file {config}: ")
        assert len(captured.err.splitlines()) == 1

    @pytest.mark.parametrize("key, value", [("reps", "x"), ("reps", ""), ("strength", "half")])
    def test_refused_value_names_key_and_file(self, tmp_path, capsys, key, value):
        config = tmp_path / "cfg.ini"
        config.write_text(f"[simulate]\n{key} = {value}\n", encoding="utf-8")
        code = main(["simulate", "--experiment", "attrition", "--n", "300", "--config", str(config), "--out", str(tmp_path / "o")])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err.startswith(f"error: {key} in [simulate] of {config}: ")
        assert repr(value) in captured.err and len(captured.err.splitlines()) == 1


class TestCurves:
    def test_fine_curves_with_chart(self, survey_csv, tmp_path):
        out = tmp_path / "out"
        code = main([
            "curves", "--input", str(survey_csv), "--out", str(out),
            "--format", "csv,svg",
        ])
        assert code == 0
        header, rows = read_csv(out / "curves_fine.csv")
        assert header[0] == "country" and header[-3:] == ["max", "min", "difference"]
        assert len(rows) == 2
        for row in rows:
            levels = [v for v in row[1:-3] if v is not None]
            assert max(levels) == pytest.approx(row[-3])
            assert min(levels) == pytest.approx(row[-2])
        svg = (out / "curves_fine.svg").read_text()
        assert svg.count("<polyline") == 2

    def test_few_rounds_note_on_stderr(self, tmp_path, capsys):
        path = survey_file(tmp_path / "two_rounds.csv", n=400, seed=110, country="AA", rounds=(1, 2))
        code = main(["curves", "--input", str(path), "--out", str(tmp_path / "out")])
        assert code == 0
        assert "note [ranges-fine]: AA: only 2 distinct survey round(s)" in capsys.readouterr().err

    def test_missing_bin_note_once_per_country(self, tmp_path, capsys, recwarn):
        path = survey_file(
            tmp_path / "no_85.csv",
            dict(seed=111, country="AA"), dict(seed=112, country="BB"),
            n=300, age_high=84, **FITTABLE,
        )
        # report reads the fine curves twice: curve_heuristic and curves.
        code = main(["report", "--input", str(path), "--out", str(tmp_path / "out")])
        assert code == 0
        err = capsys.readouterr().err
        assert [line for line in err.splitlines() if line.startswith("note [ranges-fine]")] == [
            f"note [ranges-fine]: {country}: no observations in bin 85+; omitted from curve"
            for country in ("AA", "BB")
        ]
        assert "UserWarning" not in err
        assert not [w for w in recwarn if "no observations" in str(w.message)]

    def test_autoscale_changes_chart(self, survey_csv, tmp_path):
        args = ["curves", "--input", str(survey_csv), "--format", "svg"]
        main(args + ["--out", str(tmp_path / "a")])
        main(args + ["--out", str(tmp_path / "b"), "--autoscale"])
        fixed = (tmp_path / "a" / "curves_fine.svg").read_bytes()
        auto = (tmp_path / "b" / "curves_fine.svg").read_bytes()
        assert fixed != auto


class TestDetect:
    @pytest.mark.parametrize(
        "rule,fixture,expected",
        [
            ("quad_t15", "table2", "u-shape under quad_t15: 23 of 30 countries"),
            ("range_t1", "table3", "u-shape under range_t1: 6 of 32 countries"),
            (
                "curve_heuristic",
                "table4",
                "u-shape under curve_heuristic: 16 of 30 countries",
            ),
        ],
    )
    def test_fixture_counts(self, rule, fixture, expected, tmp_path, capsys):
        code = main([
            "detect", "--rule", rule, "--fixture", fixture,
            "--out", str(tmp_path / "out"), "--format", "csv",
        ])
        assert code == 0
        stdout = capsys.readouterr().out
        assert expected in stdout
        _, rows = read_csv(tmp_path / "out" / f"detect_{rule}.csv")
        yes = sum(row[2] == "yes" for row in rows)
        assert f"{yes} of {len(rows)}" in expected

    def test_luxembourg_discrepancy_note(self, tmp_path, capsys):
        main([
            "detect", "--rule", "range_t1", "--fixture", "table3",
            "--out", str(tmp_path / "out"), "--format", "csv",
        ])
        stdout = capsys.readouterr().out
        assert "note: Luxembourg is flagged u-shaped in the source table" in stdout

    def test_rule_fixture_mismatch(self, tmp_path, capsys):
        code = main([
            "detect", "--rule", "quad_t15", "--fixture", "table3",
            "--out", str(tmp_path / "out"),
        ])
        assert code == 1
        assert "reads fixture" in capsys.readouterr().err

    def test_range_rule_lists_country_without_a_rule_bin(self, tmp_path, capsys):
        path = survey_file(
            tmp_path / "young.csv",
            dict(seed=108, country="AA"), dict(seed=109, country="YOUNG", age_low=15, age_high=55),
            n=300,
        )
        out = tmp_path / "out"
        code = main([
            "detect", "--rule", "range_t1", "--input", str(path),
            "--out", str(out), "--format", "csv",
        ])
        assert code == 2
        assert "FAILED YOUNG [range_t1]: no column 'bin:60-74'" in capsys.readouterr().err
        _, rows = read_csv(out / "detect_range_t1.csv")
        assert [row[0] for row in rows] == ["AA"]

    def test_detect_from_data(self, survey_csv, tmp_path, capsys):
        code = main([
            "detect", "--rule", "quad_t15", "--input", str(survey_csv),
            "--out", str(tmp_path / "out"), "--format", "csv",
        ])
        assert code == 0
        assert "of 2 countries" in capsys.readouterr().out


class TestSimulate:
    def test_truncation_run(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = main([
            "simulate", "--experiment", "truncation",
            "--reps", "5", "--n", "900", "--seed", "7",
            "--out", str(out), "--format", "csv,text",
        ])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "overall: PASS" in stdout
        header, rows = read_csv(out / "simulate_truncation.csv")
        assert header[:2] == ["replicate", "seed"]
        assert len(rows) == 5
        assert (out / "simulate_truncation.txt").is_file()

    def test_reproducible_across_runs(self, tmp_path):
        argv = [
            "simulate", "--experiment", "mediator",
            "--reps", "3", "--n", "700", "--seed", "11", "--format", "csv",
        ]
        main(argv + ["--out", str(tmp_path / "a")])
        main(argv + ["--out", str(tmp_path / "b")])
        name = "simulate_mediator.csv"
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_config_supplies_defaults_and_flags_win(self, tmp_path):
        config = tmp_path / "sim.ini"
        config.write_text(
            "[simulate]\nreps = 4\nn = 700\nseed = 13\n", encoding="utf-8"
        )
        out_a = tmp_path / "a"
        code = main([
            "simulate", "--experiment", "truncation",
            "--config", str(config), "--out", str(out_a), "--format", "csv",
        ])
        assert code == 0
        _, rows = read_csv(out_a / "simulate_truncation.csv")
        assert len(rows) == 4

        out_b = tmp_path / "b"
        main([
            "simulate", "--experiment", "truncation", "--config", str(config),
            "--reps", "2", "--out", str(out_b), "--format", "csv",
        ])
        _, rows = read_csv(out_b / "simulate_truncation.csv")
        assert len(rows) == 2

    def test_attrition_strength_flag(self, tmp_path, capsys):
        code = main([
            "simulate", "--experiment", "attrition",
            "--reps", "3", "--n", "900", "--seed", "17", "--strength", "1.0",
            "--out", str(tmp_path / "out"), "--format", "csv",
        ])
        assert code == 0
        assert "late_bin_inflated" in capsys.readouterr().out

    @pytest.mark.parametrize("experiment", ["truncation", "mediator"])
    def test_attrition_flags_need_attrition(self, tmp_path, capsys, experiment):
        """--strength and --knee are refused without attrition, before any
        replicate runs; the same keys in a config file are ignored."""
        out = tmp_path / "out"
        code = main([
            "simulate", "--experiment", experiment, "--reps", "2", "--n", "300",
            "--strength", "0.9", "--knee", "40", "--out", str(out),
        ])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: --strength and --knee: the {experiment} experiment has no attrition\n"
        )
        assert not list(out.glob("*"))
        config = tmp_path / "sim.ini"
        config.write_text("[simulate]\nstrength = 0.9\nknee = 40\n", encoding="utf-8")
        code = main([
            "simulate", "--experiment", experiment, "--reps", "2", "--n", "300",
            "--config", str(config), "--out", str(out), "--format", "csv",
        ])
        assert code in (0, EXIT_CHECK_FAILED)
        assert (out / f"simulate_{experiment}.csv").is_file()

    def test_failed_check_has_its_own_exit_code(self, tmp_path, capsys):
        """Attrition this weak removes too few late respondents for the
        inflation check, so the run writes its files and reports FAIL."""
        out = tmp_path / "out"
        code = main([
            "simulate", "--experiment", "attrition",
            "--reps", "3", "--n", "900", "--seed", "17", "--strength", "0.01",
            "--out", str(out), "--format", "csv,text",
        ])
        assert code == EXIT_CHECK_FAILED == 3
        assert capsys.readouterr().out.rstrip().endswith("overall: FAIL")
        assert (out / "simulate_attrition.csv").is_file()
        assert (out / "simulate_attrition.txt").is_file()

    def test_unfittable_replicate_fails_the_check(self, tmp_path, capsys, monkeypatch):
        """One replicate of this run cannot be fitted: the run still writes
        its files and reports FAIL instead of stopping with an error."""
        sparse = lambda seed: replace(default_attrition_config(seed), age_high=85)
        monkeypatch.setitem(agecurve.cli.EXPERIMENTS, "attrition", (sparse, experiment_attrition))
        out = tmp_path / "out"
        code = main([
            "simulate", "--experiment", "attrition", "--reps", "4", "--n", "200",
            "--seed", "4", "--strength", "0.5", "--out", str(out), "--format", "csv,text",
        ])
        assert code == EXIT_CHECK_FAILED
        stdout, stderr = capsys.readouterr()
        assert "1 of 4 replicates could not be fitted" in stdout and not stderr
        _, rows = read_csv(out / "simulate_attrition.csv")
        assert np.isnan([row[2] for row in rows]).tolist() == [False, False, True, False]
        assert (out / "simulate_attrition.txt").is_file()


class TestReport:
    def test_full_pipeline(self, survey_csv, tmp_path, capsys):
        out = tmp_path / "out"
        code = main([
            "report", "--input", str(survey_csv), "--out", str(out),
            "--format", "csv,svg",
        ])
        assert code == 0
        expected = [
            "fit_quad-controls-cap.csv",
            "fit_quad-nocontrols-cap.csv",
            "fit_quad-nocontrols-nocap.csv",
            "fit_quad-controls-nocap.csv",
            "reductions.csv",
            "detect_quad_t15.csv",
            "detect_range_t1.csv",
            "detect_curve_heuristic.csv",
            "curves_fine.csv",
            "curves_fine.svg",
        ]
        for name in expected:
            assert (out / name).is_file(), name
        stdout = capsys.readouterr().out
        assert "u-shape under quad_t15" in stdout

        header, rows = read_csv(out / "reductions.csv")
        assert header == [
            "country", "coefficient", "with_controls", "without_controls",
            "percent_reduction", "sign_flipped",
        ]
        assert {row[1] for row in rows} == {"age", "age_sq"}


class TestSharedFits:
    def test_report_is_the_union_of_the_other_commands(self, survey_csv, tmp_path):
        flags = ["--input", str(survey_csv), "--format", "csv,text,svg"]
        report = tmp_path / "report"
        assert main(["report", *flags, "--out", str(report)]) == 0
        commands = [
            ["fit", "--spec", "quad-battery"],
            *(["detect", "--rule", rule] for rule in RULES),
            ["curves", "--scheme", "fine"],
        ]
        written = set()
        for i, command in enumerate(commands):
            out = tmp_path / f"separate{i}"
            assert main([*command, *flags, "--out", str(out)]) == 0
            for path in out.iterdir():
                assert path.read_bytes() == (report / path.name).read_bytes(), path.name
                written.add(path.name)
        extra = {path.name for path in report.iterdir()} - written
        assert extra == {"reductions.csv", "reductions.txt"}

    def test_report_filters_once_per_spec_and_fits_once_per_country_and_spec(
        self, survey_csv, tmp_path, monkeypatch
    ):
        calls = {"GroupedDesigns": 0, "_csne": 0, "fit_wls": 0}
        rows_encoded, stacked = [], []
        for name in calls:
            original = getattr(agecurve.models, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                result = _original(*args, **kwargs)
                if _name == "GroupedDesigns":
                    rows_encoded.append(len(args[0]))
                elif _name == "_csne":
                    stacked.append(len(args[0]))
                return result

            monkeypatch.setattr(agecurve.models, name, counted)
        code = main([
            "report", "--input", str(survey_csv), "--out", str(tmp_path / "out"),
            "--format", "csv",
        ])
        assert code == 0
        # four quadratic presets, ranges-coarse and ranges-fine, two
        # countries: one encoding for the quadratic presets' shared pass
        # and one for the ranges presets' shared pass, one stacked solve
        # per spec holding both countries, and no dense fallback fit
        assert calls == {"GroupedDesigns": 2, "_csne": 6, "fit_wls": 0}
        assert stacked == [2] * 6
        # each encoding reads every row of the file
        with survey_csv.open(newline="", encoding="utf-8") as handle:
            file_rows = sum(1 for _ in csv.reader(handle)) - 1
        assert rows_encoded == [file_rows] * 2


class TestParser:
    @pytest.mark.parametrize("argv", [
        *([command, flag] for command in COMMANDS for flag in ("-h", "--bogus")),
        ["fit", "--spec"],
        ["fit", "--input", "a.csv", "report"],
        ["curves", "--scheme", "mid"],
        ["detect"],
        ["detect", "--rule", "quad"],
        ["simulate", "--experiment", "mediator", "--reps", "x"],
        ["report", "extra", "--out"],
    ])
    def test_one_command_parser_reads_as_the_full_one(self, argv, capsys):
        """``main`` builds the parser of the command it runs alone: its
        help, and the message and exit status of a usage error, are the
        full parser's, byte for byte."""
        outcomes = []
        for parser in (build_parser(), build_parser(argv[0])):
            with pytest.raises(SystemExit) as exited:
                parser.parse_args(argv)
            outcomes.append((exited.value.code, *capsys.readouterr()))
        assert outcomes[0] == outcomes[1]
        assert main(argv) == (0 if outcomes[0][0] == 0 else 1)
        assert capsys.readouterr() == outcomes[0][1:]

    @pytest.mark.parametrize("argv", [[], ["-h"], ["--help"], ["fitt"], ["--input", "a.csv", "fit"]])
    def test_full_parser_without_a_known_command(self, argv, capsys):
        with pytest.raises(SystemExit) as exited:
            build_parser().parse_args(argv)
        expected = (exited.value.code, *capsys.readouterr())
        assert main(argv) == (0 if expected[0] == 0 else 1)
        assert (expected[0], *capsys.readouterr()) == expected


class TestSingleRoundCountry:
    @pytest.fixture
    def one_round_csv(self, tmp_path):
        return survey_file(
            tmp_path / "one_round.csv",
            dict(n=400, seed=101, country="AA"), dict(n=200, seed=107, country="ONE", rounds=(2,)),
            **FITTABLE,
        )

    @pytest.mark.parametrize(
        "command,spec,output",
        [
            (["fit", "--spec", "ranges-coarse"], "ranges-coarse", "fit_ranges-coarse.csv"),
            (["fit", "--spec", "ranges-fine"], "ranges-fine", "fit_ranges-fine.csv"),
            (["detect", "--rule", "range_t1"], "ranges-coarse", "detect_range_t1.csv"),
            (["detect", "--rule", "curve_heuristic"], "ranges-fine", "detect_curve_heuristic.csv"),
            (["curves", "--scheme", "fine"], "ranges-fine", "curves_fine.csv"),
            (["curves", "--scheme", "coarse"], "ranges-coarse", "curves_coarse.csv"),
        ],
    )
    def test_refused_under_cohort_specs(self, one_round_csv, tmp_path, capsys, command, spec, output):
        out = tmp_path / "out"
        code = main([*command, "--input", str(one_round_csv), "--out", str(out), "--format", "csv"])
        assert code == 2
        err = capsys.readouterr().err
        assert f"FAILED ONE [{spec}]: only 1 distinct survey round(s); cohort-controlled fit skipped" in err
        _, rows = read_csv(out / output)
        assert {row[0] for row in rows} == {"AA"}

    def test_quadratic_rule_has_no_cohort_block(self, one_round_csv, tmp_path, capsys):
        code = main([
            "detect", "--rule", "quad_t15", "--input", str(one_round_csv),
            "--out", str(tmp_path / "out"), "--format", "csv",
        ])
        assert code == 0
        assert "of 2 countries" in capsys.readouterr().out


def test_report_ignores_a_country_whose_rows_are_all_dropped(tmp_path, monkeypatch, capsys):
    """Every row of ZZ, the file's first country, has weight 0: the load
    drops them, and the run is the one on the file without ZZ apart from
    the load summary."""
    survey_file(
        tmp_path / "all.csv",
        dict(n=200, seed=108, country="ZZ"), dict(n=400, seed=101, country="AA"),
        dict(n=200, seed=107, country="ONE", rounds=(2,)),
        **FITTABLE,
    )
    header, rows = read_csv(tmp_path / "all.csv")
    country, weight = header.index("country"), header.index("weight")
    zero = [[*row[:weight], 0, *row[weight + 1:]] if row[country] == "ZZ" else row for row in rows]
    runs = []
    for name, file_rows in (("zero", zero), ("without", [r for r in rows if r[country] != "ZZ"])):
        (tmp_path / name).mkdir()
        monkeypatch.chdir(tmp_path / name)
        with open("survey.csv", "w", newline="", encoding="utf-8") as handle:
            csv.writer(handle).writerows([header, *file_rows])
        code = main(["report", "--input", "survey.csv", "--out", "out", "--format", "csv,text,svg"])
        out, err = capsys.readouterr()
        files = {path.name: path.read_bytes() for path in sorted(Path("out").iterdir())}
        runs.append((code, out.splitlines(), err, files))
    (code, out, err, files), without = runs
    assert out[0] == "loaded 600 of 800 rows (dropped nonpositive weight: 200)"
    assert without[1][0] == "loaded 600 rows"
    assert (code, out[1:], err, files) == (without[0], without[1][1:], *without[2:])
    assert code == 2 and "FAILED ONE [ranges-coarse]" in err and "ZZ" not in err


def test_startup_leaves_importlib_resources_unimported():
    """Only reading a bundled table needs ``importlib.resources`` (and
    the ``tempfile`` it brings). Without ``site``, whose ``.pth`` hooks
    may import it first, and with only the package and numpy on the
    path, importing the CLI must not import it."""
    src = Path(agecurve.cli.__file__).resolve().parents[1]
    path = os.pathsep.join([str(src), str(Path(np.__file__).resolve().parents[1])])
    script = "import sys, agecurve.cli; sys.exit('importlib.resources' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-S", "-c", script],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr or "importing agecurve.cli imported importlib.resources"
