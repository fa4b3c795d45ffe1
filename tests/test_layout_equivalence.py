"""The package's per-layout fits against the per-country loop kept in
``member_path.py``.

``_SpecFits.fit`` calls ``GroupedDesigns.layout`` once per distinct key
of held levels (``GroupedDesigns.layouts``) and forms the results of each
width's groups together; the reference calls ``layout`` for every group
and forms every result on its own. Both solve the same stack, so every
(country, spec) must agree exactly: the same columns and labels, the
same error class and message, and bit for bit the same ``FitResult``.
The inputs are the benchmark's ``report-30c`` survey and random surveys
holding an emptied country and a country level without rows, one-round
countries under cohort specs, missing control values, unobserved
references and countries that hold different levels.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import numpy as np
from hypothesis import given, settings, strategies as st

from agecurve import RankDeficientError, Survey, design, load_csv, models
from agecurve.dataset import CONTROL_VARS, ESS_SCHEMA
from agecurve.design import TermSpec
from agecurve.models import PRESETS, _SpecFits
from member_path import MemberFits
from test_country_equivalence import OTHER_SPECS, assert_same_fit, surveys

# the survey seed that perfbench/run.py derives for report-30c from its seed 1
REPORT_30C_SEED = 1844285599

# Explicit references, held or not, over every cell of a pass: the rows
# that miss a control reach the layout.
EXPLICIT = (
    [
        TermSpec.intercept(),
        TermSpec.age_bins("fine", reference="75-84"),
        TermSpec.period(2006),
        TermSpec.control("education", reference="10"),
        TermSpec.control("sex"),
    ],
    [
        TermSpec.intercept(),
        TermSpec.age_linear(),
        TermSpec.period(),
        TermSpec.cohort(width=10, reference="1950-1959"),
        TermSpec.control("marital", reference="single"),
        TermSpec.control("labor_status"),
    ],
    [TermSpec.intercept(), TermSpec.age_bins("coarse"), TermSpec.period(), *map(TermSpec.control, CONTROL_VARS)],
)


def outcome(fit):
    if isinstance(fit, RankDeficientError):
        return type(fit), str(fit), fit.suspect_labels
    return (type(fit), str(fit)) if isinstance(fit, ValueError) else fit


def assert_same_outcomes(new, old):
    assert len(new) == len(old)
    for got, expected in zip(new, old):
        if isinstance(expected, ValueError):
            assert outcome(got) == outcome(expected)
        else:
            assert_same_fit(got, expected)


def assert_same_layouts(designs, groups):
    """:meth:`GroupedDesigns.layouts` equals ``layout`` group by group."""
    for g, shared in zip(groups, designs.layouts(groups)):
        try:
            columns, labels = designs.layout(g)
        except ValueError as exc:
            assert outcome(shared) == outcome(exc)
            continue
        assert np.array_equal(shared[0], columns) and shared[1] == labels


def assert_same_fits(survey, spec, pooled=False, designs=None, groups=None):
    new = _SpecFits(survey, spec, pooled, designs)
    old = MemberFits(survey, spec, pooled, new.designs)
    if groups is None:
        groups = list(range(new.designs.n_groups))
    live = [g for g in groups if new.held[g]]
    assert_same_layouts(new.designs, live)
    fits = new.fit(groups)
    assert_same_outcomes(fits, old.fit(groups))
    # a group's fit does not depend on the others in the call
    for g, fit in zip(groups, fits):
        assert_same_outcomes(new.fit([g]), [fit])


def report_30c_survey(path: Path) -> Survey:
    source = Path(__file__).resolve().parents[1] / "perfbench" / "survey_gen.py"
    spec = importlib.util.spec_from_file_location("survey_gen", source)
    survey_gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(survey_gen)
    survey_gen.survey_csv(path, REPORT_30C_SEED, 5_000, 30)
    return load_csv(path, ESS_SCHEMA)[0]


def test_report_30c_fits_match_per_country_path(tmp_path, monkeypatch):
    """Every (country, spec) of report's six presets, and the pooled
    fits, from at most 28 ``layout`` calls: the six presets hold 28
    distinct column sets over the 30 countries (180 calls one by one)."""
    survey = report_30c_survey(tmp_path / "survey.csv")
    for spec in PRESETS.values():
        assert_same_fits(survey, spec)
        assert_same_fits(survey, spec, pooled=True)
    calls = []
    layout = design.GroupedDesigns.layout

    def counted(self, g):
        calls.append(g)
        return layout(self, g)

    monkeypatch.setattr(design.GroupedDesigns, "layout", counted)
    fresh = load_csv(tmp_path / "survey.csv", ESS_SCHEMA)[0]
    results = [models.batch_fit(fresh, spec) for spec in PRESETS.values()]
    assert sum(len(r) for r in results) == 180
    assert len(calls) <= 28


@settings(max_examples=30, deadline=None)
@given(survey=surveys(), data=st.data())
def test_random_surveys_fit_as_per_country_path(survey, data):
    names = list(survey.country_levels)
    # a country level that holds no row is an empty group
    survey = Survey(
        country_codes=survey.country_codes, country_levels=(*names, "ZZ"),
        round=survey.round, period_year=survey.period_year, age=survey.age,
        happiness=survey.happiness, weight=survey.weight, controls=survey.controls,
    )
    n = len(survey.country_levels)
    groups = data.draw(st.lists(st.integers(0, n - 1), max_size=2 * n), label="groups")
    for spec in (*PRESETS.values(), *OTHER_SPECS):
        assert_same_fits(survey, spec)
        assert_same_fits(survey, spec, groups=groups)
        assert_same_fits(survey, spec, pooled=True)
    cells = np.arange(4 * n).reshape(n, 4)
    for terms in EXPLICIT:
        full = models._pass(survey, terms, 69, survey.country_codes, n)
        for kept in (cells, cells[:, :2], cells[:, :1]):
            assert_same_fits(survey, None, designs=full.merged(kept, terms))
            assert_same_fits(survey, None, designs=full.merged(kept, terms), groups=groups)


def test_countries_with_another_first_cohort_share_a_layout(monkeypatch):
    """C0's oldest respondent was born in 1905-1909 and C1's in
    1910-1914, and both hold every later cohort: the first cohort is the
    reference and has no column, so the two share one ``layout`` call.
    C2 holds neither and has a layout of its own."""
    rng = np.random.default_rng(5)
    rows = []
    for country, oldest in (("C0", 95), ("C1", 91), ("C2", None)):
        # born 1916-1978, and the oldest in 2002
        ages = [(int(a), i % 4 + 1) for i, a in enumerate(rng.integers(30, 81, size=150))]
        ages += [(age, rnd) for age in (85, 86) for rnd in (1, 2, 3, 4)] + ([(oldest, 1)] if oldest else [])
        for age, rnd in ages:
            rows.append(dict(
                country=country, round=rnd, period_year=2000 + 2 * rnd, age=age,
                happiness=float(rng.normal(7.0, 2.0)), weight=float(rng.uniform(0.5, 2.0)),
            ))
    survey = Survey.from_rows(rows)
    spec = PRESETS["ranges-fine"]
    calls = []
    layout = design.GroupedDesigns.layout
    monkeypatch.setattr(design.GroupedDesigns, "layout", lambda self, g: calls.append(g) or layout(self, g))
    fits = _SpecFits(survey, spec, False).fit([0, 1, 2])
    assert calls == [0, 2]
    assert fits[0].labels == fits[1].labels != fits[2].labels
    monkeypatch.undo()
    assert_same_fits(survey, spec)


def test_explicit_references_key_on_every_held_level():
    """Under an explicit reference, the first level held gets a column
    unless it is the reference: C0 and C1 differ only in theirs, so they
    need layouts of their own, and C2 lacks the reference."""
    rng = np.random.default_rng(6)
    rows = []
    for country, ages, education in (
        ("C0", np.r_[15:25, 35:80], ("2", "10")),
        ("C1", np.r_[25:35, 35:80], ("9", "10")),
        ("C2", np.r_[15:80], ("2", "9")),
    ):
        for i in range(120):
            rnd = i % 4 + 1
            rows.append(dict(
                country=country, round=rnd, period_year=2000 + 2 * rnd, age=int(rng.choice(ages)),
                happiness=float(rng.normal(7.0, 2.0)), weight=float(rng.uniform(0.5, 2.0)),
                sex="female", education=str(rng.choice(education)), marital="married",
                labor_status="employed",
            ))
    survey = Survey.from_rows(rows)
    terms = [
        TermSpec.intercept(),
        TermSpec.age_bins("fine", reference="15-24"),
        TermSpec.period(),
        TermSpec.control("education", reference="10"),
    ]
    designs = models._pass(survey, terms, 69, survey.country_codes, 3).merged(np.arange(12).reshape(3, 4), terms)
    fits = _SpecFits(survey, None, False, designs).fit([0, 1, 2])
    assert isinstance(fits[1], design.DesignError) and isinstance(fits[2], design.DesignError)
    assert_same_fits(survey, None, designs=designs)
    terms[1] = TermSpec.age_bins("fine")
    designs = models._pass(survey, terms, 69, survey.country_codes, 3).merged(np.arange(12).reshape(3, 4), terms)
    fits = _SpecFits(survey, None, False, designs).fit([0, 1, 2])
    assert "education=2" in fits[0].labels and "education=9" in fits[1].labels
    assert_same_fits(survey, None, designs=designs)
