"""The drop tallies of ``batch_fit`` against the declarative filter they
replaced, frozen in ``country_path.py``.

Every (country, spec) entry's ``rows_in`` and ``dropped`` must equal the
frozen ``filter_mask`` report on that country's rows under the spec's
filter: the same reasons, in the same order, with the same counts. The
inputs are the benchmark's ``report-30c`` survey and the random surveys
of ``test_country_equivalence.py``, which hold countries that the age
cap or listwise deletion empties and rows that miss one or more
controls above and below the cap. Each is also fitted without its
control columns, where every row misses "education", the first control
by name.
"""

from __future__ import annotations

from hypothesis import given, settings

from agecurve import Survey, models
from agecurve.models import PRESETS
from country_path import _filter_for, by_country, filter_mask
from test_country_equivalence import surveys
from test_layout_equivalence import report_30c_survey


def without_controls(survey: Survey) -> Survey:
    return Survey(
        country_codes=survey.country_codes, country_levels=survey.country_levels,
        round=survey.round, period_year=survey.period_year, age=survey.age,
        happiness=survey.happiness, weight=survey.weight,
    )


def assert_tallies_match_filter(survey: Survey) -> None:
    parts = by_country(survey)
    for spec in PRESETS.values():
        for result in models.batch_fit(survey, spec):
            _, report = filter_mask(parts[result.country], _filter_for(spec, result.country))
            assert result.rows_in == report.n_in
            assert list(result.dropped.items()) == list(report.dropped.items())


def test_report_30c_tallies_match_filter(tmp_path):
    survey = report_30c_survey(tmp_path / "survey.csv")
    assert_tallies_match_filter(survey)
    assert_tallies_match_filter(without_controls(survey))


@settings(max_examples=40, deadline=None)
@given(survey=surveys())
def test_random_survey_tallies_match_filter(survey):
    assert_tallies_match_filter(survey)
    assert_tallies_match_filter(without_controls(survey))
