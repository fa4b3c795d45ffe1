"""Tests of the benchmark's own parts: input determinism, span
arithmetic, and the output check. Run with
``python3 -m pytest perfbench/test_perfbench.py``."""

from __future__ import annotations

import csv

import pytest

import oracle
import outcheck
import survey_gen
import tracing


def test_same_seed_gives_same_input_bytes(tmp_path):
    first = survey_gen.survey_csv(tmp_path / "a.csv", 7, 1500, 3)
    again = survey_gen.survey_csv(tmp_path / "b.csv", 7, 1500, 3)
    other = survey_gen.survey_csv(tmp_path / "c.csv", 8, 1500, 3)
    assert first == again
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    assert other != first


def test_self_time_subtracts_the_union_of_child_spans():
    spans = [
        ["cli.main", -1, 0.0, 10.0, {}],
        ["models.batch_fit", 0, 1.0, 4.0, {}],
        ["models.fit_spec", 0, 3.0, 6.0, {}],  # overlaps its sibling by 1
        ["dataset.apply_filter", 1, 1.5, 2.0, {}],
        ["render.write_csv", 0, 8.0, 12.0, {}],  # runs past its parent's end
    ]
    assert tracing.self_times(spans) == pytest.approx([3.0, 2.5, 3.0, 0.5, 4.0])
    metrics = tracing.layer_metrics(spans)
    assert metrics["cli.self_s"] == pytest.approx(3.0)
    assert metrics["models.self_s"] == pytest.approx(5.5)
    assert metrics["cli.main.busy_s"] == pytest.approx(10.0)


def test_busy_time_counts_nested_calls_of_one_function_once():
    spans = [
        ["models.adjusted_means", -1, 0.0, 5.0, {}],
        ["models.fit_spec", 0, 1.0, 4.0, {"key": 1}],
        ["models.adjusted_means", 1, 2.0, 3.0, {}],
    ]
    metrics = tracing.layer_metrics(spans)
    assert metrics["models.adjusted_means.busy_s"] == pytest.approx(5.0)
    assert metrics["models.self_s"] == pytest.approx(5.0)


def _write_fit_csv(path, expect, preset, perturb=(None, None, 1.0)):
    """A fit table in the CLI's format, from the oracle's numbers, with
    one coefficient optionally scaled by ``perturb = (country, label,
    factor)``."""
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, quoting=csv.QUOTE_NONNUMERIC)
        writer.writerow(["country", "model", "coefficient", "estimate", "std_error", "t_abs", "n", "rank"])
        for country in expect["countries"]:
            fit = expect["fits"][country][preset]
            for j, label in enumerate(fit.labels):
                coef, se = float(fit.coef[j]), float(fit.se[j])
                if (country, label) == perturb[:2]:
                    coef *= perturb[2]
                writer.writerow([country, preset, label, coef, se, abs(coef) / se, fit.n, fit.rank])


@pytest.fixture(scope="module")
def expect(tmp_path_factory):
    path = tmp_path_factory.mktemp("survey") / "survey.csv"
    survey_gen.survey_csv(path, 3, 2400, 3, min_rows=600)
    return oracle.survey_expectations(oracle.read_survey(path), ("quad-controls-cap",), curves=False, detect=False)


@pytest.mark.parametrize("factor, passes", [(1.0, True), (1 + 1e-12, True), (1 + 1e-6, False)])
def test_check_rejects_a_perturbed_coefficient(tmp_path, expect, factor, passes):
    preset = "quad-controls-cap"
    country = expect["countries"][1]
    path = tmp_path / "fit.csv"
    _write_fit_csv(path, expect, preset, (country, "age_sq", factor))
    verdicts = outcheck.check_fit(path, expect, preset)
    assert verdicts.pop(f"{country}|fit:{preset}") is passes
    assert all(verdicts.values())


def test_curve_check_wants_an_empty_cell_for_a_missing_bin(tmp_path):
    expect = {"countries": ["AA"], "curves": {"AA": {"15-24": 7.0, "35-44": 6.5}}}
    header = ["country", "15-24", "25-34", "35-44", "max", "min", "difference"]

    def verdict(middle):
        path = tmp_path / "curves.csv"
        with path.open("w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle, quoting=csv.QUOTE_NONNUMERIC)
            writer.writerow(header)
            writer.writerow(["AA", 7.0, middle, 6.5, 7.0, 6.5, 0.5])
        return outcheck.check_curves(path, expect)["AA|curves"]

    assert verdict("") is True
    assert verdict(6.8) is False
