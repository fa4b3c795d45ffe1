import numpy as np
import pytest
from hypothesis import given, strategies as st

from agecurve import (
    COARSE_BINS,
    DesignError,
    DesignMatrix,
    EmptySampleError,
    FINE_BINS,
    Survey,
    TermSpec,
    age_bin_label,
    build_design,
    scheme_bin_labels,
)
from agecurve import design
from agecurve.design import GroupedDesigns
from conftest import synth_survey


class TestAgeBinLabel:
    def test_coarse_boundaries(self):
        assert age_bin_label(15) == "15-34"
        assert age_bin_label(34) == "15-34"
        assert age_bin_label(35) == "35-59"
        assert age_bin_label(60) == "60-74"
        assert age_bin_label(75) == "75+"
        assert age_bin_label(110) == "75+"

    def test_fine_boundaries(self):
        assert age_bin_label(24, "fine") == "15-24"
        assert age_bin_label(25, "fine") == "25-34"
        assert age_bin_label(84, "fine") == "75-84"
        assert age_bin_label(85, "fine") == "85+"

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            age_bin_label(14)
        with pytest.raises(ValueError):
            age_bin_label(40, "medium")

    @given(age=st.integers(min_value=15, max_value=120),
           scheme=st.sampled_from(["coarse", "fine"]))
    def test_total_and_consistent(self, age, scheme):
        label = age_bin_label(age, scheme)
        assert label in scheme_bin_labels(scheme)
        # the label's own range contains the age
        if label.endswith("+"):
            assert age >= int(label[:-1])
        else:
            low, high = (int(part) for part in label.split("-"))
            assert low <= age <= high


@pytest.mark.parametrize("scheme, bins", [("coarse", COARSE_BINS), ("fine", FINE_BINS)])
def test_age_bin_label_bounds_hold_the_age(scheme, bins):
    """The bounds that the bins table gives the label of every age from
    15 to 130 hold the age; a fractional age is binned by its whole
    years, also between two bins' bounds."""
    bounds = {label: (low, high) for label, low, high in bins}
    for age in range(15, 131):
        for value in (age, age + 0.5):
            low, high = bounds[age_bin_label(value, scheme)]
            assert low <= age and (high is None or age <= high)


@pytest.mark.parametrize("scheme", ["coarse", "fine"])
def test_age_bin_codes_by_table(scheme):
    """The bin codes the table gives every age from 15 to 120 are the
    ones a search over the bin starts gives, and name the bin of
    :func:`age_bin_label`; an older age falls in the last bin."""
    ages = np.r_[15:121, 121, 150]
    survey = Survey(
        country_codes=np.zeros(len(ages), np.intp), country_levels=("A",), round=np.ones(len(ages), np.intp),
        period_year=np.full(len(ages), 2002), age=ages, happiness=np.ones(len(ages)), weight=np.ones(len(ages)),
    )
    codes = design._term_factor(survey, TermSpec.age_bins(scheme)).codes
    starts = [low for _, low, _ in design._SCHEMES[scheme]]
    assert codes.dtype == np.int8
    np.testing.assert_array_equal(codes, np.searchsorted(starts, ages, side="right") - 1)
    labels = scheme_bin_labels(scheme)
    assert [labels[code] for code in codes.tolist()] == [age_bin_label(int(age), scheme) for age in ages]


def test_scheme_bin_labels():
    assert scheme_bin_labels("coarse") == [b[0] for b in COARSE_BINS]
    assert len(scheme_bin_labels("fine")) == 8
    with pytest.raises(ValueError):
        scheme_bin_labels("other")


class TestTermSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            TermSpec.age_bins("medium")
        with pytest.raises(ValueError):
            TermSpec.age_bins("coarse", reference="15-24")
        with pytest.raises(ValueError):
            TermSpec.control("age")
        with pytest.raises(ValueError):
            TermSpec.cohort(width=0)

    def test_describe(self):
        assert TermSpec.age_bins("fine").describe() == "age_bins(fine)"
        assert TermSpec.control("sex").describe() == "control_factor(sex)"
        assert TermSpec.intercept().describe() == "intercept"


class TestControlTerm:
    """A control factor on its own beside the intercept."""

    @staticmethod
    def control_design(survey, name, reference=None):
        design = build_design(survey, [TermSpec.intercept(), TermSpec.control(name, reference)])
        return design.values[:, 1:], design.column_labels[1:], design.dropped_levels

    def test_reference_is_natural_sort_first(self):
        survey = survey_with("education", ("10", "2", "9", "2"))
        cols, labels, dropped = self.control_design(survey, "education")
        # numeric ordering: 2 < 9 < 10, so 2 is the reference
        assert labels == ["education=9", "education=10"]
        assert cols.tolist() == [[0, 1], [0, 0], [1, 0], [0, 0]]
        assert dropped == []

    def test_explicit_reference(self):
        survey = survey_with("sex", ("female", "male", "male"))
        cols, labels, _ = self.control_design(survey, "sex", reference="male")
        assert labels == ["sex=female"]
        assert cols[:, 0].tolist() == [1, 0, 0]

    def test_missing_value_is_an_error(self):
        survey = survey_with("sex", ("female", None))
        with pytest.raises(DesignError, match="listwise"):
            self.control_design(survey, "sex")

    def test_single_level_yields_no_columns(self):
        survey = survey_with("sex", ("female", "female"))
        cols, labels, dropped = self.control_design(survey, "sex")
        assert cols.shape == (2, 0) and labels == []
        assert dropped == [("sex", "female", "only one observed level")]


def survey_with(control, values):
    """One row per value of ``control``."""
    return Survey.from_rows(
        {"country": "A", "round": 1, "period_year": 2002, "age": 40,
         "happiness": 7.0, "weight": 1.0, control: value}
        for value in values
    )


class TestBuildDesign:
    def test_quadratic_battery_layout(self):
        survey = synth_survey(n=300, seed=3, with_controls=True)
        design = build_design(
            survey,
            [
                TermSpec.intercept(),
                TermSpec.age_linear(),
                TermSpec.age_squared(),
                TermSpec.period(),
                TermSpec.control("sex"),
            ],
        )
        labels = design.column_labels
        assert labels[:3] == ["const", "age", "age_sq"]
        assert [l for l in labels if l.startswith("period:")] == [
            "period:2004", "period:2006", "period:2008"
        ]
        assert "period:2002" not in labels  # lowest year is the reference
        assert labels[-1] == "sex=male"
        assert design.n == 300 and design.p == len(labels)
        np.testing.assert_allclose(design.column("age") ** 2, design.column("age_sq"))

    def test_age_bin_columns_match_binning(self):
        survey = synth_survey(n=200, seed=4)
        design = build_design(
            survey, [TermSpec.intercept(), TermSpec.age_bins("coarse")]
        )
        assert design.column_labels == ["const", "bin:15-34", "bin:60-74", "bin:75+"]
        for age, row in zip(survey.age.tolist(), design.values):
            label = age_bin_label(age, "coarse")
            expected = {f"bin:{label}"} if label != "35-59" else set()
            on = {design.column_labels[j] for j in range(1, 4) if row[j] == 1.0}
            assert on == expected

    def test_unobserved_bin_logged(self):
        with pytest.raises(DesignError, match="reference bin"):
            build_design(
                synth_survey(n=10, seed=5, age_low=15, age_high=30),
                [TermSpec.intercept(), TermSpec.age_bins("coarse")],
            )
        design = build_design(
            synth_survey(n=10, seed=6, age_low=35, age_high=59),
            [TermSpec.intercept(), TermSpec.age_bins("coarse")],
        )
        assert design.p == 1
        assert ("age_bins", "15-34", "no observations") in design.dropped_levels

    def test_cohort_reference_is_oldest(self):
        survey = synth_survey(n=150, seed=7)
        design = build_design(
            survey, [TermSpec.intercept(), TermSpec.cohort()]
        )
        starts = sorted({(year // 5) * 5 for year in survey.birth_year.tolist()})
        oldest = f"cohort:{starts[0]}-{starts[0] + 4}"
        assert oldest not in design.column_labels
        expected = [f"cohort:{s}-{s + 4}" for s in starts[1:]]
        assert [l for l in design.column_labels if l.startswith("cohort:")] == expected

    def test_structural_rules(self):
        survey = synth_survey(n=50, seed=8)
        with pytest.raises(DesignError, match="intercept"):
            build_design(survey, [TermSpec.age_linear()])
        with pytest.raises(DesignError, match="age_linear and age_bins are mutually exclusive"):
            build_design(
                survey,
                [TermSpec.intercept(), TermSpec.age_linear(), TermSpec.age_bins()],
            )
        with pytest.raises(DesignError, match="age_squared and age_bins are mutually exclusive"):
            build_design(survey, [TermSpec.intercept(), TermSpec.age_squared(), TermSpec.age_bins()])
        with pytest.raises(DesignError, match="the mediator term needs a mediator value on every row"):
            build_design(survey, [TermSpec.intercept(), TermSpec.mediator()])
        with pytest.raises(DesignError, match="duplicate"):
            build_design(
                survey,
                [TermSpec.intercept(), TermSpec.period(), TermSpec.period()],
            )
        with pytest.raises(EmptySampleError):
            build_design(Survey.from_rows([]), [TermSpec.intercept()])

    def test_weighted_column_means(self):
        design = DesignMatrix(
            values=np.array([[1.0, 2.0], [1.0, 4.0]]),
            column_labels=["const", "x"],
            row_weights=np.array([1.0, 3.0]),
            response=np.array([0.0, 0.0]),
        )
        np.testing.assert_allclose(design.weighted_column_means(), [1.0, 3.5])


class TestDesignMatrixValidation:
    def test_rejects_duplicate_labels(self):
        with pytest.raises(DesignError, match="duplicate"):
            DesignMatrix(np.ones((2, 2)), ["a", "a"], np.ones(2), np.zeros(2))

    def test_rejects_nonpositive_weights(self):
        with pytest.raises(DesignError, match="positive"):
            DesignMatrix(np.ones((2, 1)), ["a"], np.array([1.0, 0.0]), np.zeros(2))

    def test_rejects_values_that_are_not_2d(self):
        with pytest.raises(DesignError, match="values must be a 2-d array"):
            DesignMatrix(np.ones(2), ["a"], np.ones(2), np.zeros(2))

    def test_rejects_zero_rows(self):
        with pytest.raises(DesignError, match="design has no rows"):
            DesignMatrix(np.ones((0, 1)), ["a"], np.ones(0), np.zeros(0))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(DesignError):
            DesignMatrix(np.ones((2, 1)), ["a", "b"], np.ones(2), np.zeros(2))
        with pytest.raises(DesignError):
            DesignMatrix(np.ones((2, 1)), ["a"], np.ones(3), np.zeros(2))


class TestGroupedDesigns:
    # the intercept after a numeric term, and factors between numeric terms
    TERMS = [
        TermSpec.age_linear(), TermSpec.intercept(), TermSpec.period(), TermSpec.control("sex"),
        TermSpec.age_squared(), TermSpec.control("marital"),
    ]

    # each row's cell and the number of cells, by layout
    LAYOUTS = {
        "country": lambda survey: (survey.country_codes, 2),
        "country-age50": lambda survey: (2 * survey.country_codes + (survey.age > 50), 4),
        # the last of each country's three cells holds no row
        "empty-cell": lambda survey: (3 * survey.country_codes + (survey.age > 50), 6),
    }

    def assert_moments_are_dense(self, designs):
        gram, xty, yty = designs.moments()
        held = designs.held_rows()
        for g in range(designs.n_groups):
            if not held[g]:
                assert not (gram[g].any() or xty[g].any() or yty[g])
                continue
            index, labels = designs.layout(g)
            dense = designs.design(g)
            assert dense.column_labels == labels
            xs = dense.values * np.sqrt(dense.row_weights)[:, None]
            ys = dense.response * np.sqrt(dense.row_weights)
            for got, expected in ((gram[g][np.ix_(index, index)], xs.T @ xs), (xty[g][index], xs.T @ ys),
                                  (yty[g], ys @ ys)):
                np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-12 * np.abs(expected).max())

    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_moments_are_those_of_the_dense_designs(self, layout):
        """Every cell's ``X̃ᵀX̃``, ``X̃ᵀỹ`` and ``ỹᵀỹ`` are its dense
        design's, all zero for a cell without rows; so are those of the
        unions of cells that ``merged`` gives, each the sum of its
        cells'."""
        survey = synth_survey(
            dict(seed=3, country="A"), dict(seed=4, country="B", rounds=(2, 5)),
            n=200, with_controls=True, weights="random",
        )
        cell, n_cells = self.LAYOUTS[layout](survey)
        designs = GroupedDesigns(survey, self.TERMS, cell, n_cells)
        assert designs.n_groups == n_cells
        self.assert_moments_are_dense(designs)
        cells = np.arange(n_cells).reshape(2, -1)
        merged = designs.merged(cells, self.TERMS[:3])
        self.assert_moments_are_dense(merged)
        for whole, part in zip(designs.moments(), merged.moments()):
            np.testing.assert_array_equal(part, whole[cells].sum(axis=1))
        with pytest.raises(DesignError, match="terms of the design"):
            designs.merged(cells, self.TERMS[:3][::-1])

    def test_moments_over_many_cells_without_age_terms(self):
        """Without age terms a factor's sums are keyed by its code and the
        cell. Over 120 cells those keys pass the range of the int8 and
        uint8 codes, and must not wrap."""
        survey = synth_survey(
            *(dict(seed=300 + i, country=f"C{i:02d}") for i in range(30)),
            n=400, with_controls=True, weights="random",
        )
        terms = [
            TermSpec.intercept(), TermSpec.age_bins("fine"), TermSpec.period(), TermSpec.cohort(),
            TermSpec.control("sex"),
        ]
        cell = 4 * survey.country_codes + np.arange(len(survey)) % 4
        self.assert_moments_are_dense(GroupedDesigns(survey, terms, cell, 120))
