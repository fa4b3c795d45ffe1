"""The columnar ``write_csv`` and ``format_table`` against the per-cell
reference writers in ``render_reference.py``: the same bytes for every
table drawn here, and for every file ``report`` writes."""

from __future__ import annotations

import importlib.util
from decimal import Decimal
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st

import agecurve.cli
import render_reference as reference
from agecurve import render

FORMATS = ("%s", "%g", "%.5f", "%.2f", "%d")

# NUL is left out: Python 3.10's csv module cannot write it unescaped.
TEXT = st.text(
    alphabet=st.one_of(
        st.sampled_from('",\r\n #%ab'),
        st.characters(exclude_categories=("Cs",), exclude_characters="\x00"),
    ),
    max_size=8,
)
NUMBERS = st.one_of(
    st.floats(),
    st.sampled_from([float("nan"), float("inf"), -float("inf"), -0.0, 1e-300, 1e300]),
    st.integers(-(2**70), 2**70),
    st.integers(2**63, 2**64 - 1),  # replicate seeds are uint64
    st.booleans(),
    st.booleans().map(np.bool_),
    st.floats().map(np.float64),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
)
# A column holds only numbers, only strings and None, or any mix.
COLUMN_CELLS = st.sampled_from([
    NUMBERS,
    st.one_of(st.none(), TEXT),
    st.one_of(st.none(), TEXT, NUMBERS),
])


@st.composite
def tables(draw, max_rows: int = 12):
    width = draw(st.integers(1, 5))
    header = draw(st.lists(TEXT, min_size=width, max_size=width))
    n_rows = draw(st.integers(0, max_rows))
    columns = [
        draw(st.lists(draw(COLUMN_CELLS), min_size=n_rows, max_size=n_rows))
        for _ in range(width)
    ]
    # None stands for the default, "%g" in every column.
    formats = draw(st.none() | st.lists(st.sampled_from(FORMATS), min_size=width, max_size=width))
    return header, [list(row) for row in zip(*columns)], formats


def csv_bytes(write, folder: Path, header, rows) -> bytes:
    path = folder / "table.csv"
    write(path, header, iter(rows))
    return path.read_bytes()


def outcome(format_table, header, rows, formats):
    """The table's text, or that a cell did not fit its format (such as
    ``"%d" % nan``); which cell fails first depends on the order of
    formatting."""
    try:
        return format_table(header, rows, formats)
    except (ValueError, OverflowError):
        return "refused"


class TestCsv:
    @given(table=tables())
    def test_same_bytes_as_reference(self, table, tmp_path_factory):
        header, rows, _ = table
        folder = tmp_path_factory.mktemp("csv")
        assert csv_bytes(render.write_csv, folder, header, rows) == csv_bytes(
            reference.write_csv, folder, header, rows
        )

    @given(table=tables(max_rows=40), block=st.integers(1, 7))
    def test_same_bytes_across_blocks(self, table, block, tmp_path_factory):
        header, rows, _ = table
        folder = tmp_path_factory.mktemp("csv")
        with mock.patch.object(render, "_BLOCK_ROWS", block):
            written = csv_bytes(render.write_csv, folder, header, rows)
        assert written == csv_bytes(reference.write_csv, folder, header, rows)

    @given(table=tables(max_rows=40), block=st.integers(1, 7), arrays=st.booleans())
    def test_columns_give_the_same_bytes(self, table, block, arrays, tmp_path_factory):
        """``write_columns``, which ``save_csv`` calls, writes a table
        given as lists or numpy arrays as the reference writes its rows."""
        header, rows, _ = table
        columns = [list(column) for column in zip(*rows)] if rows else [[] for _ in header]
        if arrays:
            columns = [np.array(column, dtype=object) for column in columns]
        folder = tmp_path_factory.mktemp("csv")
        with mock.patch.object(render, "_BLOCK_ROWS", block):
            written = csv_bytes(lambda path, names, _: render.write_columns(path, names, columns),
                                folder, header, rows)
        assert written == csv_bytes(reference.write_csv, folder, header, rows)

    def test_zero_rows_is_the_header_line(self, tmp_path):
        render.write_csv(tmp_path / "t.csv", ["a", 'b"c'], [])
        assert (tmp_path / "t.csv").read_bytes() == b'"a","b""c"\r\n'

    @pytest.mark.parametrize("cell", [Decimal("1.5"), (1, 2), object(), b"x"])
    def test_refuses_other_cell_types(self, cell, tmp_path):
        with pytest.raises(TypeError, match="None, a str or a number"):
            render.write_csv(tmp_path / "t.csv", ["a", "b"], [["x", 1.0], ["y", cell]])

    def test_refuses_rows_of_another_width(self, tmp_path):
        with pytest.raises(ValueError):
            render.write_csv(tmp_path / "t.csv", ["a", "b"], [["x", 1.0], ["y"]])
        with pytest.raises(ValueError, match="3 cells under 2 column names"):
            render.write_csv(tmp_path / "t.csv", ["a", "b"], [["x", 1.0, 2.0]])
        with pytest.raises(ValueError):
            render.write_columns(tmp_path / "t.csv", ["a", "b"], [["x", "y"], [1.0]])


class TestFormatTable:
    @given(table=tables())
    def test_same_text_as_reference(self, table):
        header, rows, formats = table
        assert outcome(render.format_table, header, rows, formats) == outcome(
            reference.format_table, header, rows, formats
        )

    @pytest.mark.parametrize("cell", [Decimal("1.5"), (1, 2), object()])
    def test_refuses_other_cell_types(self, cell):
        with pytest.raises(TypeError, match="None, a str or a number"):
            render.format_table(["a"], [[1.0], [cell]], ["%s"])


def _survey_csv(path: Path, seed: int, rows: int, countries: int) -> None:
    """The benchmark's ESS-shaped survey file generator."""
    source = Path(__file__).resolve().parents[1] / "perfbench" / "survey_gen.py"
    spec = importlib.util.spec_from_file_location("survey_gen", source)
    survey_gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(survey_gen)
    survey_gen.survey_csv(path, seed, rows, countries)


def _run_both(monkeypatch, tmp_path, argv) -> list[tuple[int, dict]]:
    """``argv`` run as shipped and with the reference writers, each as
    (exit code, {file name: bytes})."""
    runs = []
    for name in ("shipped", "reference"):
        if name == "reference":
            monkeypatch.setattr(agecurve.cli, "write_csv", reference.write_csv)
            monkeypatch.setattr(agecurve.cli, "format_table", reference.format_table)
        out = tmp_path / name
        code = agecurve.cli.main([*argv, "--out", str(out)])
        runs.append((code, {path.name: path.read_bytes() for path in sorted(out.iterdir())}))
    return runs


def test_report_writes_the_reference_bytes(tmp_path, monkeypatch):
    survey = tmp_path / "survey.csv"
    _survey_csv(survey, 1, 5000, 30)
    argv = ["report", "--input", str(survey), "--ess-columns", "--format", "csv,text,svg"]
    (code, files), reference_run = _run_both(monkeypatch, tmp_path, argv)
    assert code in (0, 2)
    assert len(files) == 19
    assert (code, files) == reference_run


def test_simulate_writes_the_reference_bytes(tmp_path, monkeypatch):
    argv = ["simulate", "--experiment", "attrition", "--reps", "3", "--n", "900",
            "--seed", "17", "--format", "csv"]
    (code, files), reference_run = _run_both(monkeypatch, tmp_path, argv)
    assert code == 0 and list(files) == ["simulate_attrition.csv"]
    assert (code, files) == reference_run
