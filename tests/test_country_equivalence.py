"""The package's ``batch_fit``, ``fit_spec`` and ``build_design``
against the per-country reference in ``country_path.py``.

Random small surveys with interleaved countries are fitted under every
preset by both paths. The package fits each spec from grouped
sufficient statistics in one stacked solve, the reference fills each
country's dense design and calls ``fit_wls``, so the two sum in another
order and agree to rounding: the same countries in the same order, the
same labels, counts and notes, and the same error class and message for
every country that cannot be fitted; coefficients, column means and
weighted RSS within 1e-10 relative, and covariances, standard errors
and t statistics within eps·cond², the Gram matrix's rounding. The
surveys hold countries with one or two rounds, countries that the age
cap or listwise deletion empties, countries with nobody in the fine
scheme's reference bin, control levels seen in one country only,
numeric levels whose text order differs from their value order, and
unit or non-unit weights. Designs stay bit-identical. A fit plan
fits the specs of one form and cut from one pass over the survey, so
each preset must give the same fits bit for bit whether it is fitted
alone, in a plan with other specs or inside ``report``.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import country_path
from agecurve import RankDeficientError, Survey, cli, design, load_csv, models, save_csv
from agecurve.dataset import CONTROL_VARS
from agecurve.design import TermSpec
from agecurve.models import PRESETS, ModelSpec
from conftest import FITTABLE, synth_rows

NAMES = ("AA", "BB", "CC", "DD")
# Ages and rounds per kind of country. "old" is emptied by the age-69
# cap, "no-ref" has nobody aged 35-44, and "unanswered" never gives its
# sex, so listwise deletion empties it.
KINDS = {
    "full": (np.arange(15, 96), (1, 2, 3, 4)),
    "two-rounds": (np.arange(15, 96), (3, 5)),
    "one-round": (np.arange(15, 96), (2,)),
    "old": (np.arange(70, 96), (1, 2, 3)),
    "no-ref": (np.r_[15:35, 45:96], (1, 2, 4)),
    "unanswered": (np.arange(15, 96), (1, 2, 3)),
}
# Level pools per control; "widowed" and "11" are drawn by one country
# at most, and "2" sorts before "10" by value but after it as text.
CONTROL_POOLS = {
    "sex": (("female", "male"), ("female",)),
    "education": (("2", "10"), ("2", "9", "10"), ("11", "2")),
    "marital": (("married", "single"), ("married", "single", "widowed")),
    "labor_status": (("employed", "retired"), ("other", "employed")),
}
EXTRA_TERMS = (
    [
        TermSpec.intercept(),
        TermSpec.age_bins("fine", reference="75-84"),
        TermSpec.period(2006),
        TermSpec.cohort(width=10, reference="1950-1959"),
    ],
    [
        TermSpec.intercept(),
        TermSpec.age_linear(),
        TermSpec.age_squared(),
        TermSpec.period(2099),
    ],
    [
        TermSpec.intercept(),
        TermSpec.age_bins("coarse", reference="15-34"),
        TermSpec.cohort(width=5, reference="1800-1804"),
    ],
    [
        TermSpec.intercept(),
        TermSpec.age_linear(),
        TermSpec.control("education", reference="10"),
        TermSpec.control("sex"),
        TermSpec.control("marital", reference="zz"),
    ],
)


@st.composite
def surveys(draw):
    kinds = draw(st.lists(st.sampled_from(sorted(KINDS)), min_size=1, max_size=len(NAMES)))
    unit_weights = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    rows = []
    for name, kind in zip(NAMES, kinds):
        ages, rounds = KINDS[kind]
        pools = {var: draw(st.sampled_from(CONTROL_POOLS[var])) for var in CONTROL_VARS}
        if name != "AA":
            pools["marital"] = ("married", "single")
        missing_share = draw(st.sampled_from((0.0, 0.1)))
        for _ in range(draw(st.integers(min_value=1, max_value=60))):
            rnd = int(rng.choice(rounds))
            row = dict(
                country=name,
                round=rnd,
                period_year=2000 + 2 * rnd,
                age=int(rng.choice(ages)),
                happiness=float(rng.normal(7.0, 2.0)),
                weight=1.0 if unit_weights else float(rng.uniform(0.25, 3.0)),
            )
            for var, pool in pools.items():
                if rng.random() >= missing_share:
                    row[var] = str(rng.choice(pool))
            if kind == "unanswered":
                row.pop("sex", None)
            rows.append(row)
    return Survey.from_rows(rows[j] for j in rng.permutation(len(rows)))


def outcome(func, *args):
    """``(result, None)`` or ``(None, (error type, message))``."""
    try:
        return func(*args), None
    except ValueError as exc:
        return None, (type(exc), str(exc))


REL = 1e-10
EPS = np.finfo(float).eps


def _close(actual, expected, rel):
    scale = float(np.max(np.abs(expected))) if np.size(expected) else 0.0
    np.testing.assert_allclose(actual, expected, rtol=rel, atol=rel * scale)


def assert_fits_equal(new, old):
    """Equal labels, counts and notes; coefficients, column means and
    weighted RSS within 1e-10 relative; covariance, standard errors and
    t statistics within eps·cond², cond² being the condition number of
    the covariance, which is that of the Gram matrix. An exact fit is
    exact on both paths."""
    assert new.labels == old.labels
    assert (new.n_obs, new.dof, new.rank, new.notes) == (old.n_obs, old.dof, old.rank, old.notes)
    _close(new.coefficients, old.coefficients, REL)
    _close(new.column_means, old.column_means, REL)
    _close(new.weighted_rss, old.weighted_rss, REL)
    if old.weighted_rss == 0.0:
        assert not np.any(new.covariance) and np.all(np.isnan(new.t_stats))
        return
    rel = EPS * np.linalg.cond(old.covariance)
    for name in ("covariance", "std_errors", "t_stats"):
        _close(getattr(new, name), getattr(old, name), rel)


def assert_results_equal(new, old):
    assert [r.country for r in new] == [r.country for r in old]
    for got, expected in zip(new, old):
        assert (got.ok, got.error, got.notes) == (expected.ok, expected.error, expected.notes)
        if expected.ok:
            assert_fits_equal(got.fit, expected.fit)


@settings(max_examples=40, deadline=None)
@given(survey=surveys(), data=st.data())
def test_batch_fit_and_fit_spec_match_per_country_path(survey, data):
    names = list(dict.fromkeys(survey.country.tolist()))
    subset = data.draw(st.lists(st.sampled_from(names), unique=True), label="subset")
    reordered = data.draw(st.permutations(names), label="reordered")
    for spec in PRESETS.values():
        for countries in (None, subset, reordered):
            assert_results_equal(
                models.batch_fit(survey, spec, countries),
                country_path.batch_fit(survey, spec, countries),
            )
        new, new_error = outcome(models.fit_spec, survey, spec, None)
        old, old_error = outcome(country_path.fit_spec, survey, spec, None)
        assert new_error == old_error
        if old is not None:
            assert_fits_equal(new, old)
        # A country's fit is its batch entry: the reference fit_spec
        # counted the whole survey in the message for an emptied country.
        for country in names:
            new, new_error = outcome(models.fit_spec, survey, spec, country)
            _, old_error = outcome(country_path.fit_spec, survey, spec, country)
            (old,) = country_path.batch_fit(survey, spec, [country])
            if old.ok:
                assert new_error is None
                assert_fits_equal(new, old.fit)
            else:
                assert new_error == (old_error[0], old.error)


def assert_designs_equal(new, old):
    assert np.array_equal(new.values, old.values)
    assert np.array_equal(new.row_weights, old.row_weights)
    assert np.array_equal(new.response, old.response)
    assert new.column_labels == old.column_labels
    assert new.dropped_levels == old.dropped_levels


@settings(max_examples=40, deadline=None)
@given(survey=surveys())
def test_build_design_matches_per_country_path(survey):
    """Explicit references, observed or not, give the same designs and
    the same error messages; so do controls with missing values."""
    complete, _ = outcome(
        country_path.apply_filter, survey, country_path.FilterSpec(listwise_vars=frozenset(CONTROL_VARS))
    )
    samples = [survey] if complete is None else [survey, complete[0]]
    for sample in samples:
        for terms in EXTRA_TERMS:
            new, new_error = outcome(design.build_design, sample, terms)
            old, old_error = outcome(country_path.build_design, sample, terms)
            assert new_error == old_error
            if old is not None:
                assert_designs_equal(new, old)


def _old_row(country, age, rnd, weight=1.0):
    return dict(
        country=country, round=rnd, period_year=2000 + 2 * rnd, age=age,
        happiness=7.0, weight=weight, sex="female", education="2",
        marital="married", labor_status="retired",
    )


def test_mixed_stack_sends_only_its_failures_to_the_dense_fit(monkeypatch):
    """Under ranges-fine, DEF's one respondent aged 85+ is also its only
    one born 1930-1934, so its bin is collinear with the cohorts; ILL's
    one respondent aged 85+ has weight 1e-12, so its design is full rank
    but fails the certificate. Only those two go through the dense
    ``fit_wls``: DEF fails as the reference does, naming the same
    columns, ILL's fit is the dense one, and every other country's fit
    is bit-identical to its own ``fit_spec``, solved alone."""
    rows = synth_rows(n=150, seed=31, country="AA", **FITTABLE)
    rows += synth_rows(n=150, seed=32, country="DEF", age_high=65, rounds=(1, 2, 3, 8), **FITTABLE)
    rows += [_old_row("DEF", 85, 8)]
    rows += synth_rows(n=150, seed=33, country="ILL", age_high=84, **FITTABLE)
    rows += [_old_row("ILL", 83, 1), _old_row("ILL", 84, 1), _old_row("ILL", 90, 4, weight=1e-12)]
    rows += synth_rows(n=150, seed=34, country="BB", **FITTABLE)
    survey = Survey.from_rows(rows)
    spec = PRESETS["ranges-fine"]

    rows_in, fitted = [], []
    fit_wls = models.fit_wls

    def recorded(design):
        rows_in.append(design.n)
        fitted.append(fit_wls(design))
        return fitted[-1]

    monkeypatch.setattr(models, "fit_wls", recorded)
    results = {r.country: r for r in models.batch_fit(survey, spec)}
    assert rows_in == [151, 153]

    _, expected = outcome(country_path.fit_spec, survey, spec, "DEF")
    assert expected[0] is RankDeficientError
    assert results["DEF"].error == expected[1]
    with pytest.raises(RankDeficientError) as raised:
        models.fit_spec(survey, spec, "DEF")
    try:
        country_path.fit_spec(survey, spec, "DEF")
    except RankDeficientError as exc:
        assert (str(raised.value), raised.value.suspect_labels) == (str(exc), exc.suspect_labels)
        assert "bin:85+" in exc.suspect_labels

    assert results["ILL"].fit is fitted[-1]
    assert_fits_equal(results["ILL"].fit, country_path.fit_spec(survey, spec, "ILL"))

    for country in ("AA", "BB"):
        alone = models.fit_spec(survey, spec, country)
        fit = results[country].fit
        assert all(fit is not other for other in fitted)
        assert fit.labels == alone.labels
        for name in ("coefficients", "std_errors", "t_stats", "covariance", "column_means"):
            assert np.array_equal(getattr(fit, name), getattr(alone, name)), name
        assert fit.weighted_rss == alone.weighted_rss
        assert_fits_equal(fit, country_path.fit_spec(survey, spec, country))


QUADRATIC = [name for name, spec in PRESETS.items() if spec.form == "quadratic"]
# specs whose pass no preset's holds: another cap, a quadratic with
# cohorts, and ranges specs that cap the sample or delete listwise
OTHER_SPECS = (
    ModelSpec("quad-controls-cap60", "quadratic", controls=True, age_cap=60),
    ModelSpec("quad-cohort-cap", "quadratic", cohort_control=True, age_cap=69),
    ModelSpec("ranges-controls-cap60", "ranges", controls=True, age_cap=60, cohort_control=True),
    ModelSpec("ranges-fine-controls", "ranges", scheme="fine", controls=True, cohort_control=True),
    ModelSpec("ranges-coarse-cap", "ranges", age_cap=69, cohort_control=True),
)


@st.composite
def capped_surveys(draw):
    """Surveys on the integer happiness scale, so that a saved copy loads
    as it was written. A country may be emptied by the age-69 cap
    ("old") or by listwise deletion ("unanswered"), or hold one round;
    "widowed" is held only by rows above 69, and "retired" only by rows
    that miss another control."""
    kinds = draw(st.lists(st.sampled_from(sorted(KINDS)), min_size=1, max_size=len(NAMES)))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    rows = []
    for name, kind in zip(NAMES, kinds):
        ages, rounds = KINDS[kind]
        for _ in range(draw(st.integers(min_value=1, max_value=60))):
            rnd, age = int(rng.choice(rounds)), int(rng.choice(ages))
            row = dict(
                country=name, round=rnd, period_year=2000 + 2 * rnd, age=age,
                happiness=int(rng.integers(0, 11)), weight=float(rng.uniform(0.25, 3.0)),
                sex=str(rng.choice(("female", "male"))),
                education=str(rng.choice(("2", "9", "10"))),
                marital="widowed" if age > 69 and rng.random() < 0.3 else str(rng.choice(("married", "single"))),
                labor_status=str(rng.choice(("employed", "other"))),
            )
            if kind == "unanswered" or rng.random() < 0.1:
                row.pop("sex" if kind == "unanswered" else str(rng.choice(("sex", "education"))))
                if rng.random() < 0.5:
                    row["labor_status"] = "retired"
            rows.append(row)
    return Survey.from_rows(rows[j] for j in rng.permutation(len(rows)))


def assert_same_fit(new, old):
    """Bit for bit the same fit."""
    for name, value in vars(old).items():
        if isinstance(value, np.ndarray):
            assert np.array_equal(getattr(new, name), value, equal_nan=True), name
        else:
            assert getattr(new, name) == value, name


def assert_same_results(new, old):
    assert [(r.country, r.error, r.notes) for r in new] == [(r.country, r.error, r.notes) for r in old]
    for got, expected in zip(new, old):
        if expected.ok:
            assert_same_fit(got.fit, expected.fit)


@settings(max_examples=25, deadline=None)
@given(survey=capped_surveys())
def test_quadratic_presets_fit_alike_alone_together_and_in_report(survey, tmp_path_factory):
    """Each preset fitted alone, on a survey of its own, in one fit plan
    with every other spec, in a plan of the specs in reverse order and
    inside ``report`` gives the same fits bit for bit, and matches the
    per-country reference; so does each spec of ``OTHER_SPECS``, alone
    or in a plan with the presets. In ``report`` the two ranges presets
    come from one pass that holds both schemes' bins, and the quadratic
    presets from another."""
    path = tmp_path_factory.getbasetemp() / "three_ways.csv"
    save_csv(survey, path)
    in_report = {}

    def recorded(survey, specs, countries=None):
        results = models._fit_plan(survey, specs, countries)
        in_report.update((spec.name, result) for spec, result in zip(specs, results))
        return results

    with mock.patch.object(cli, "_fit_plan", recorded):
        cli.main(["report", "--input", str(path), "--out", str(path.parent / "three_ways"), "--format", "csv"])
    assert list(in_report) == list(PRESETS)
    together = load_csv(path)[0]
    specs = [*PRESETS.values(), *OTHER_SPECS]
    fits = dict(zip(specs, models._fit_plan(together, specs)))
    reversed_fits = dict(zip(specs[::-1], models._fit_plan(together, specs[::-1])))
    for name, spec in PRESETS.items():
        alone = models.batch_fit(load_csv(path)[0], spec)
        assert_same_results(fits[spec], alone)
        assert_same_results(reversed_fits[spec], alone)
        assert_same_results(in_report[name], alone)
        assert_results_equal(alone, country_path.batch_fit(together, spec, None))
        for result in alone:
            fit, error = outcome(models.fit_spec, load_csv(path)[0], spec, result.country)
            assert (error and error[1]) == result.error
            if result.ok:
                assert_same_fit(fit, result.fit)
    for spec in OTHER_SPECS:
        alone = models.batch_fit(load_csv(path)[0], spec)
        assert_same_results(fits[spec], alone)
        assert_same_results(reversed_fits[spec], alone)
        assert_results_equal(alone, country_path.batch_fit(together, spec, None))


def test_ranges_specs_match_per_country_path_over_many_countries():
    """Thirty countries make 120 cells, so a ranges pass's keys (cell and
    a factor's small age-bin, period or cohort code) run past 255: they
    must be formed in intp, where a small code type would wrap."""
    survey = Survey.from_rows(
        row
        for i in range(30)
        for row in synth_rows(n=120, seed=200 + i, country=f"C{i:02d}", rounds=(1, 2, 3, 4, 5), **FITTABLE)
    )
    specs = [spec for spec in (*PRESETS.values(), *OTHER_SPECS) if spec.form == "ranges"]
    for spec in specs:
        results = models.batch_fit(survey, spec)
        assert sum(result.ok for result in results) >= 25, spec.name
        assert_results_equal(results, country_path.batch_fit(survey, spec, None))
