"""The package's WLS solver against the reference in ``qr_reference.py``.

Random designs (intercept, continuous columns, dummy blocks whose
levels have tied counts, unit and non-unit weights, n = p + 1,
duplicated or collinear columns, and a column within 1e-9 to 1e-4 of
another) are solved by both. Full-rank designs must agree exactly in
rank and dof, and well-conditioned ones to 1e-10 relative in
coefficients, standard errors and covariance. Deficient designs must
raise the same error class with the same rank; with one dependency the
suspect set is the same, with more it must still be a set of linearly
dependent columns (ties between equal column norms may be broken
differently, so another dependency may be named first). The nearly
dependent designs straddle the solver's full-rank certificate, so they
reach both its Cholesky path and its pivoted-QR fallback.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import agecurve.wls
import qr_reference
from agecurve import DesignMatrix, RankDeficientError, fit_wls, rank_check

REL = 1e-10
# Well-conditioned designs only: two backward-stable solvers may differ
# by about eps * cond^2 in the covariance.
MAX_CONDITION = 1e3


def _dummies(levels: np.ndarray, k: int, keep_reference: bool) -> np.ndarray:
    first = 0 if keep_reference else 1
    return (levels[:, None] == np.arange(first, k)[None, :]).astype(float)


@st.composite
def designs(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_cont = draw(st.integers(0, 3))
    blocks = draw(st.lists(st.integers(2, 4), max_size=2))
    dependency = draw(
        st.sampled_from(("none", "duplicate", "collinear", "all_levels", "two", "near"))
    )
    weights = draw(st.sampled_from(("unit", "uniform", "integer")))
    extra_rows = draw(st.sampled_from((0, 1, 5, 40)))

    if dependency == "all_levels" and not blocks:
        blocks = [3]
    extra_columns = {
        "none": 0, "duplicate": 1, "collinear": 2, "all_levels": 1, "two": 2, "near": 1
    }
    p = 1 + n_cont + sum(k - 1 for k in blocks) + extra_columns[dependency]
    n = p + 1 + extra_rows

    columns, labels = [np.ones(n)], ["const"]
    for j in range(n_cont):
        columns.append(rng.normal(0.0, 1.0, size=n))
        labels.append(f"x{j}")
    for b, k in enumerate(blocks):
        # round-robin levels, shuffled: every level count is n // k or
        # n // k + 1, so several indicator columns have equal norms
        levels = rng.permutation(np.arange(n) % k)
        block = _dummies(levels, k, keep_reference=dependency == "all_levels" and b == 0)
        columns.extend(block.T)
        labels.extend(f"f{b}_{j}" for j in range(block.shape[1]))
    if dependency == "duplicate":
        columns.append(2.0 * columns[draw(st.integers(0, len(columns) - 1))])
        labels.append("dup")
    elif dependency == "collinear":
        a = columns[draw(st.integers(0, len(columns) - 1))]
        b = rng.normal(0.0, 1.0, size=n)
        columns.extend([b, a - 0.5 * b])
        labels.extend(["b", "a_minus_half_b"])
    elif dependency == "two":
        columns.extend([3.0 * columns[0], -columns[-1]])
        labels.extend(["const_x3", "minus_last"])
    elif dependency == "near":
        delta = 10.0 ** draw(st.floats(-9.0, -4.0))
        a = columns[draw(st.integers(0, len(columns) - 1))]
        columns.append(a + delta * rng.normal(0.0, 1.0, size=n))
        labels.append("near")

    x = np.column_stack(columns)
    if weights == "unit":
        w = np.ones(n)
    elif weights == "uniform":
        w = rng.uniform(0.2, 3.0, size=n)
    else:
        w = rng.integers(1, 5, size=n).astype(float)
    y = x @ rng.normal(0.0, 2.0, size=x.shape[1]) + rng.normal(0.0, 1.0, size=n)
    return dependency, DesignMatrix(x, labels, w, y)


def _close(actual, expected, rel=REL):
    scale = float(np.max(np.abs(expected))) if np.size(expected) else 0.0
    np.testing.assert_allclose(actual, expected, rtol=rel, atol=rel * scale)


def _dependent(design: DesignMatrix, suspects) -> bool:
    cols = [design.column_labels.index(label) for label in suspects]
    sub = design.values[:, cols] * np.sqrt(design.row_weights)[:, None]
    return np.linalg.matrix_rank(sub) < len(cols)


def _check_suspects(dependency, design, rank, actual, expected):
    """With one dependency the suspect set is the reference's; with
    several it must be a set of dependent columns. A near draw can hide a
    second dependency from the rank count: on a few rows, dummy blocks
    can repeat a column exactly beside the nearly dependent one, and
    rounding then decides in both solvers whether the near column joins
    the set. So a near draw's set, when it differs, must be dependent."""
    if design.p - rank > 1 or (dependency == "near" and actual != expected):
        assert _dependent(design, actual)
    else:
        assert actual == expected


def _outcome(fit, design):
    try:
        return fit(design), None
    except ValueError as exc:  # RankDeficientError included
        return None, exc


@settings(max_examples=300, deadline=None)
@given(case=designs())
def test_fit_matches_reference(case):
    dependency, design = case
    expected, expected_exc = _outcome(qr_reference.fit_wls, design)
    actual, actual_exc = _outcome(fit_wls, design)
    if expected_exc is not None:
        assert type(actual_exc) is type(expected_exc), (actual_exc, expected_exc)
        if isinstance(expected_exc, RankDeficientError):
            reference = qr_reference.rank_check(design)
            assert rank_check(design).rank == reference.rank
            _check_suspects(
                dependency,
                design,
                reference.rank,
                actual_exc.suspect_labels,
                expected_exc.suspect_labels,
            )
        return
    assert actual_exc is None, actual_exc
    assert (actual.rank, actual.dof, actual.n_obs) == (
        expected.rank,
        expected.dof,
        expected.n_obs,
    )
    assert actual.labels == expected.labels
    if dependency == "near":
        return  # condition 1e4 to 1e10: the solvers may differ by eps·cond²
    scaled = design.values * np.sqrt(design.row_weights)[:, None]
    assume(np.linalg.cond(scaled) < MAX_CONDITION)
    _close(actual.coefficients, expected.coefficients)
    _close(actual.std_errors, expected.std_errors)
    _close(actual.covariance, expected.covariance)
    _close(actual.weighted_rss, expected.weighted_rss)
    np.testing.assert_array_equal(actual.column_means, expected.column_means)


@settings(max_examples=200, deadline=None)
@given(case=designs())
def test_rank_check_matches_reference(case):
    dependency, design = case
    expected = qr_reference.rank_check(design)
    actual = rank_check(design)
    assert (actual.rank, actual.n_columns, actual.deficient, actual.tol) == (
        expected.rank,
        expected.n_columns,
        expected.deficient,
        expected.tol,
    )
    if actual.deficient:
        _check_suspects(
            dependency,
            design,
            expected.rank,
            actual.suspect_labels,
            expected.suspect_labels,
        )
    else:
        assert actual.suspect_labels == ()


@pytest.mark.parametrize("p_extra", [0, 1])
def test_more_columns_than_rows_rank_check(p_extra):
    """rank_check accepts a wide design (fit_wls refuses it)."""
    rng = np.random.default_rng(4)
    n = 4
    x = np.column_stack([np.ones(n), rng.normal(size=(n, n - 1 + p_extra))])
    labels = ["const", *[f"x{j}" for j in range(x.shape[1] - 1)]]
    design = DesignMatrix(x, labels, rng.uniform(0.5, 2.0, size=n), rng.normal(size=n))
    expected, actual = qr_reference.rank_check(design), rank_check(design)
    assert (actual.rank, actual.deficient) == (expected.rank, expected.deficient)
    assert actual.suspect_labels == expected.suspect_labels


def test_no_columns_rank_check():
    design = DesignMatrix(np.empty((3, 0)), [], np.ones(3), np.zeros(3))
    assert rank_check(design) == qr_reference.rank_check(design)


def _near_pair(delta: float) -> DesignMatrix:
    """const, x and x + delta·z: condition number about 2/delta."""
    rng = np.random.default_rng(8)
    n = 200
    x, z = rng.normal(size=n), rng.normal(size=n)
    values = np.column_stack([np.ones(n), x, x + delta * z])
    y = 1.0 + 0.5 * x + rng.normal(size=n)
    return DesignMatrix(values, ["const", "x", "near"], rng.uniform(0.5, 2.0, size=n), y)


@pytest.mark.parametrize(
    "delta, fallback",
    [(1e-3, False), (1e-7, True), (1e-8, True)],
    ids=["cond-1e3", "cond-1e7", "cond-1e8"],
)
def test_certificate_picks_the_path(delta, fallback, monkeypatch):
    """Which path a design takes follows its conditioning: the QR
    triangle is formed only on the fallback. At cond 1e7 the Gram matrix
    still has a Cholesky factor and the certificate turns it down; at
    1e8 Cholesky itself fails. Either way the fit matches
    the reference: on the Cholesky path to 1e-10, except for the
    covariance, which carries the Gram matrix's eps·cond² rounding; on
    the fallback, fitted values and RSS to eps·cond, the accuracy of any
    QR solve (the coefficients of the nearly equal pair are not
    determined to that accuracy)."""
    design = _near_pair(delta)
    scaled = design.values * np.sqrt(design.row_weights)[:, None]
    cond, eps = np.linalg.cond(scaled), np.finfo(float).eps
    assert 0.1 / delta < cond < 10.0 / delta
    triangles = []
    triangle = agecurve.wls._triangle
    monkeypatch.setattr(
        agecurve.wls, "_triangle", lambda *a: triangles.append(a) or triangle(*a)
    )
    actual, expected = fit_wls(design), qr_reference.fit_wls(design)
    assert len(triangles) == int(fallback)
    assert (actual.rank, actual.dof) == (expected.rank, expected.dof) == (3, 197)
    rel = eps * cond if fallback else REL
    _close(scaled @ actual.coefficients, scaled @ expected.coefficients, rel)
    _close(actual.weighted_rss, expected.weighted_rss, rel)
    if not fallback:
        _close(actual.coefficients, expected.coefficients)
        _close(actual.covariance, expected.covariance, eps * cond**2)


def test_looser_rank_tolerance_is_not_certified_away():
    """At condition 2e4 the design is certified full rank."""
    design = _near_pair(1e-4)
    assert not rank_check(design).deficient
