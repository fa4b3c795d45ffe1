"""Acceptance gate: one test per shipped guarantee.

Each test carries its tolerances inline and asserts its own time budget;
the terminal summary hook in conftest.py prints one PASS/FAIL line per
criterion at the end of the run. Criterion 10 needs a user-supplied
survey extract and reports SKIP when none is configured.
"""

import os
import time

import numpy as np
import pytest

from agecurve import (
    AgeCurve,
    DesignMatrix,
    default_attrition_config,
    detect_quad_values,
    detect_ranges_values,
    experiment_attrition,
    experiment_mediator,
    experiment_truncation,
    fit_wls,
    fixtures,
    rank_check,
    reduction_values,
)
from conftest import random_design, synth_survey

# pinned tolerances, one place per criterion
C01_INSTANCES, C01_RTOL, C01_BUDGET_S = 500, 1e-8, 5.0
C02_INSTANCES, C02_RTOL, C02_BUDGET_S = 100, 1e-10, 2.0
C03_BUDGET_S = 1.0
C04_BUDGET_S = 1.0
C05_LEVEL_ATOL, C05_MEAN_WINDOW, C05_BUDGET_S = 1e-9, (0.42, 0.46), 1.0
C06_BUDGET_S = 1.0
C07_REPS, C07_BUDGET_S = 200, 60.0
C08_REPS, C08_BUDGET_S = 200, 60.0
C09_REPS, C09_BUDGET_S = 200, 60.0
C10_COEF_RTOL, C10_LEVEL_ATOL = 0.10, 0.05


def test_c01_solver_matches_reference():
    """WLS solver vs brute-force normal equations: 500 random
    well-conditioned instances (n <= 50, p <= 5), coefficients and
    standard errors within 1e-8 relative, total under 5 s."""
    from oracles import wls_reference

    rng = np.random.default_rng(20260816)
    start = time.perf_counter()
    for _ in range(C01_INSTANCES):
        design = random_design(rng, max_n=50, max_p=5)
        fit = fit_wls(design)
        beta_ref, se_ref = wls_reference(
            design.values.tolist(),
            design.response.tolist(),
            design.row_weights.tolist(),
        )
        np.testing.assert_allclose(
            fit.coefficients, beta_ref, rtol=C01_RTOL, atol=1e-12
        )
        np.testing.assert_allclose(
            fit.std_errors, se_ref, rtol=C01_RTOL, atol=1e-12
        )
    elapsed = time.perf_counter() - start
    assert elapsed < C01_BUDGET_S, f"took {elapsed:.2f}s, budget {C01_BUDGET_S}s"


def test_c02_weights_equal_replication():
    """An integer weight w must act exactly like w copies of the row:
    coefficients within 1e-10 relative over 100 instances, under 2 s.
    (Standard errors legitimately differ: replication adds residual
    degrees of freedom.)"""
    rng = np.random.default_rng(77)
    start = time.perf_counter()
    for _ in range(C02_INSTANCES):
        design = random_design(rng, max_n=50, max_p=5, integer_weights=True)
        counts = design.row_weights.astype(int)
        replicated = DesignMatrix(
            np.repeat(design.values, counts, axis=0),
            list(design.column_labels),
            np.ones(int(counts.sum())),
            np.repeat(design.response, counts),
        )
        fit_w = fit_wls(design)
        fit_r = fit_wls(replicated)
        np.testing.assert_allclose(
            fit_w.coefficients, fit_r.coefficients, rtol=C02_RTOL, atol=1e-13
        )
    elapsed = time.perf_counter() - start
    assert elapsed < C02_BUDGET_S, f"took {elapsed:.2f}s, budget {C02_BUDGET_S}s"


def test_c03_apc_rank_diagnostic():
    """A design carrying age, survey year, and birth year together is
    rank deficient by construction (age + birth year = survey year). The
    check must name exactly those three columns, give the same answer
    twice, and removing any one of the three must restore full rank."""
    start = time.perf_counter()
    survey = synth_survey(n=300, seed=5150, rounds=(1, 2, 3, 4, 5))
    values = np.column_stack(
        [np.ones(len(survey)), survey.age, survey.period_year, survey.birth_year]
    )
    labels = ["const", "age", "period_year", "birth_year"]
    design = DesignMatrix(values, labels, survey.weight, survey.happiness)

    first = rank_check(design)
    second = rank_check(design)
    assert first == second, "rank diagnostic must be deterministic"
    assert first.deficient and first.rank == 3
    assert set(first.suspect_labels) == {"age", "period_year", "birth_year"}

    for drop in ("age", "period_year", "birth_year"):
        keep = [j for j, l in enumerate(labels) if l != drop]
        sub = DesignMatrix(
            values[:, keep],
            [labels[j] for j in keep],
            design.row_weights,
            design.response,
        )
        report = rank_check(sub)
        assert not report.deficient, f"dropping {drop} should restore full rank"
        fit_wls(sub)  # and the fit must go through

    elapsed = time.perf_counter() - start
    assert elapsed < C03_BUDGET_S, f"took {elapsed:.2f}s, budget {C03_BUDGET_S}s"


def test_c04_detectors_reproduce_published_flags():
    """Detection rules over the bundled coefficient tables: the
    curvature rule finds exactly 23 u-shapes out of 30 and its seven
    failures are the published seven; the range rule finds exactly the
    six published countries, with Luxembourg (flagged in the source) a
    recorded rule-level discrepancy."""
    start = time.perf_counter()

    quad_verdicts = {
        str(row["country"]): detect_quad_values(
            str(row["country"]),
            float(row["coef_age"]),
            float(row["t_age"]),
            float(row["coef_age_sq"]),
            float(row["t_age_sq"]),
        )
        for row in fixtures.table2()
    }
    assert len(quad_verdicts) == 30
    positives = {c for c, v in quad_verdicts.items() if v.is_ushape}
    assert len(positives) == 23
    failures = set(quad_verdicts) - positives
    assert failures == {
        "Austria", "Cyprus", "Denmark", "Finland", "Iceland", "Israel", "Italy",
    }
    # the rule agrees with every published flag on this table
    for row in fixtures.table2():
        assert quad_verdicts[str(row["country"])].is_ushape == (
            row["source_ushape"] == "yes"
        )

    range_verdicts = {
        str(row["country"]): detect_ranges_values(
            str(row["country"]),
            float(row["coef_15-34"]),
            float(row["t_15-34"]),
            float(row["coef_60-74"]),
            float(row["t_60-74"]),
        )
        for row in fixtures.table3()
    }
    range_positives = {c for c, v in range_verdicts.items() if v.is_ushape}
    assert range_positives == {
        "Austria", "Switzerland", "Norway", "Poland", "Portugal", "Russia",
    }
    # Luxembourg is flagged in the source but its printed 60-74
    # coefficient is negative, so the literal rule must say no; the
    # discrepancy stays visible instead of being patched over
    lux = [r for r in fixtures.table3() if r["country"] == "Luxembourg"]
    assert lux and lux[0]["source_ushape"] == "yes"
    assert not range_verdicts["Luxembourg"].is_ushape

    elapsed = time.perf_counter() - start
    assert elapsed < C04_BUDGET_S, f"took {elapsed:.2f}s, budget {C04_BUDGET_S}s"


def _table4_curve(row) -> AgeCurve:
    bins = ("15-24", "25-34", "35-44", "45-54", "55-64", "65-74", "75-84", "85+")
    return AgeCurve(
        country=str(row["country"]),
        bin_labels=bins,
        levels=tuple(float(row[b]) for b in bins),
    )


def test_c05_depth_reproduces_published_differences():
    """Curve extremes over the bundled level table: recomputed max, min,
    and max-minus-min agree with every printed value to 1e-9 (the table
    is self-consistent at its printed precision, e.g. Germany 0.27 and
    Turkey 2.14), and the mean difference over the 21 non-excluded
    countries lands within 0.44 +/- 0.02."""
    from agecurve import depth

    start = time.perf_counter()
    rows = fixtures.table4()
    assert len(rows) == 30

    differences = {}
    for row in rows:
        report = depth(_table4_curve(row))
        country = str(row["country"])
        assert abs(report.max_level - float(row["max"])) < C05_LEVEL_ATOL, country
        assert abs(report.min_level - float(row["min"])) < C05_LEVEL_ATOL, country
        assert abs(report.difference - float(row["difference"])) < C05_LEVEL_ATOL, country
        differences[country] = report.difference

    assert differences["Germany"] == pytest.approx(0.27, abs=C05_LEVEL_ATOL)
    assert differences["Turkey"] == pytest.approx(2.14, abs=C05_LEVEL_ATOL)

    qualifying = [
        differences[str(row["country"])]
        for row in rows
        if row["source_excluded"] == "no"
    ]
    assert len(qualifying) == 21
    mean = sum(qualifying) / len(qualifying)
    assert C05_MEAN_WINDOW[0] <= mean <= C05_MEAN_WINDOW[1], mean

    elapsed = time.perf_counter() - start
    assert elapsed < C05_BUDGET_S, f"took {elapsed:.2f}s, budget {C05_BUDGET_S}s"


def test_c06_reduction_percentages():
    """Signed coefficient reductions: the bundled controlled/bare pair
    for Germany gives 81.9 (age) and 85.8 (age squared) at one decimal,
    and a pair that crosses zero reports above 100 percent with the sign
    flip flagged (Austria's published 100.8)."""
    start = time.perf_counter()
    table1 = {str(row["model"]): row for row in fixtures.table1()}
    controlled = table1["quad-controls-cap"]
    bare = table1["quad-nocontrols-nocap"]

    age = reduction_values(
        "age", float(controlled["coef_age"]), float(bare["coef_age"])
    )
    age_sq = reduction_values(
        "age_sq", float(controlled["coef_age_sq"]), float(bare["coef_age_sq"])
    )
    assert round(age.percent_reduction, 1) == 81.9
    assert round(age_sq.percent_reduction, 1) == 85.8
    assert not age.sign_flipped and not age_sq.sign_flipped

    # Austria's bare age-squared coefficient crossed zero; the published
    # 100.8 percent implies a controlled value of 0.0005
    austria = [r for r in fixtures.table2() if r["country"] == "Austria"][0]
    new = float(austria["coef_age_sq"])
    printed = float(austria["reduction_age_sq"])
    implied_old = new / (1.0 - printed / 100.0)
    assert implied_old == pytest.approx(0.0005, rel=1e-9)
    change = reduction_values("age_sq", implied_old, new)
    assert change.percent_reduction > 100.0
    assert round(change.percent_reduction, 1) == printed
    assert change.sign_flipped

    elapsed = time.perf_counter() - start
    assert elapsed < C06_BUDGET_S, f"took {elapsed:.2f}s, budget {C06_BUDGET_S}s"


def test_c07_mediator_experiment():
    """Mediator experiment at defaults, 200 replicates: the age slope
    without the mediator control lands within 3 MC standard errors of
    the total effect 0.50, and with the control within 3 MC SE of the
    direct effect 0.00; under 60 s."""
    start = time.perf_counter()
    result = experiment_mediator(reps=C07_REPS)
    elapsed = time.perf_counter() - start

    assert result.n_reps == C07_REPS
    assert result.targets["total_age_slope"] == pytest.approx(0.50)
    assert result.targets["direct_age_slope"] == pytest.approx(0.00)
    for check in result.checks:
        assert check.passed, f"{check.name}: {check.observed} vs {check.target} ({check.detail})"
    assert result.passed
    assert elapsed < C07_BUDGET_S, f"took {elapsed:.2f}s, budget {C07_BUDGET_S}s"


def test_c08_truncation_experiment():
    """Truncation experiment at defaults, 200 replicates: fitting the
    quadratic on ages capped at 69 yields a larger age-squared
    coefficient than the full 15-90 range in at least 95 percent of
    replicates; under 60 s."""
    start = time.perf_counter()
    result = experiment_truncation(reps=C08_REPS)
    elapsed = time.perf_counter() - start

    assert result.n_reps == C08_REPS
    assert result.metrics["frac_capped_curvature_greater"] >= 0.95
    assert result.passed
    assert elapsed < C08_BUDGET_S, f"took {elapsed:.2f}s, budget {C08_BUDGET_S}s"


def test_c09_attrition_experiment():
    """Attrition experiment, 200 replicates each: at strength 0.5 with
    the knee at 75, both late bins (75-84, 85+) come out inflated in at
    least 95 percent of replicates; at strength 0 the mean inflation sits
    within 3 MC standard errors of zero; both runs together under 60 s."""
    start = time.perf_counter()
    biased = experiment_attrition(default_attrition_config(strength=0.5), reps=C09_REPS)
    null = experiment_attrition(default_attrition_config(strength=0.0), reps=C09_REPS)
    elapsed = time.perf_counter() - start

    assert {c.name for c in biased.checks} == {
        "late_bin_inflated:75-84", "late_bin_inflated:85+",
    }
    for check in biased.checks:
        assert check.passed, f"{check.name}: {check.observed:.3f} ({check.detail})"
    assert biased.passed

    assert {c.name for c in null.checks} == {
        "late_bin_unbiased:75-84", "late_bin_unbiased:85+",
    }
    for check in null.checks:
        assert check.passed, f"{check.name}: {check.observed} ({check.detail})"
    assert null.passed

    assert elapsed < C09_BUDGET_S, f"took {elapsed:.2f}s, budget {C09_BUDGET_S}s"


REAL_DATA_ENV = "AGECURVE_ESS_CSV"


@pytest.mark.skipif(
    REAL_DATA_ENV not in os.environ,
    reason=(
        "SKIPPED: requires a user-supplied survey extract; set "
        f"{REAL_DATA_ENV} to a CSV with European Social Survey column names"
    ),
)
def test_c10_real_data_replication():
    """With a real survey extract supplied, the German quadratic
    battery's age and age-squared coefficients land within 10 percent of
    the bundled published values, and the fine-bin adjusted levels within
    0.05 points of the bundled level table."""
    from agecurve import adjusted_means, fit_spec, get_spec, load_csv
    from agecurve.dataset import ESS_SCHEMA

    survey, _ = load_csv(os.environ[REAL_DATA_ENV], ESS_SCHEMA)

    published = {str(r["model"]): r for r in fixtures.table1()}
    for name in ("quad-controls-cap", "quad-nocontrols-cap", "quad-nocontrols-nocap"):
        fit = fit_spec(survey, get_spec(name), country="DE")
        for label, column in (("age", "coef_age"), ("age_sq", "coef_age_sq")):
            got = fit.coef(label)
            want = float(published[name][column])
            assert got == pytest.approx(want, rel=C10_COEF_RTOL), (
                f"{name}/{label}: fitted {got:.5f} vs published {want:.5f}"
            )

    germany_row = [r for r in fixtures.table4() if r["country"] == "Germany"][0]
    curve = adjusted_means(survey, "DE", scheme="fine")
    for bin_label in curve.bin_labels:
        got = curve.level(bin_label)
        want = float(germany_row[bin_label])
        assert got == pytest.approx(want, abs=C10_LEVEL_ATOL), (
            f"bin {bin_label}: fitted {got:.3f} vs published {want:.3f}"
        )
