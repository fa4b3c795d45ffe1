import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import agecurve
from agecurve import (
    DesignMatrix,
    FitResult,
    RankDeficientError,
    fit_wls,
    rank_check,
)
from conftest import random_design
from oracles import wls_reference


def make_design(x, y, w, labels=None):
    x = np.asarray(x, dtype=float)
    labels = labels or ["const", *[f"x{j}" for j in range(1, x.shape[1])]]
    return DesignMatrix(x, labels, np.asarray(w, float), np.asarray(y, float))


class TestExactFits:
    def test_simple_line(self):
        x = [[1, 0], [1, 1], [1, 2], [1, 3]]
        y = [5.1, 6.4, 8.1, 9.4]
        fit = fit_wls(make_design(x, y, [1, 1, 1, 1]))
        slope = 7.3 / 5  # closed form: sum(dx dy) / sum(dx^2)
        assert fit.coef("x1") == pytest.approx(slope, rel=1e-10)
        assert fit.coef("const") == pytest.approx(7.25 - slope * 1.5, rel=1e-10)
        assert fit.n_obs == 4 and fit.rank == 2 and fit.dof == 2

    def test_weighted_mean(self):
        y = [2.0, 4.0, 10.0]
        w = [1.0, 2.0, 1.0]
        fit = fit_wls(make_design([[1.0]] * 3, y, w))
        mean = (2 + 8 + 10) / 4
        assert fit.coef("const") == pytest.approx(mean)
        wrss = sum(wi * (yi - mean) ** 2 for yi, wi in zip(y, w))
        assert fit.weighted_rss == pytest.approx(wrss)
        assert fit.se("const") == pytest.approx(np.sqrt(wrss / 2 / 4))

    def test_noiseless_fit_has_zero_se_nan_t(self):
        x = [[1, 2], [1, 5], [1, 9], [1, 11]]
        y = [3 + 0.5 * row[1] for row in x]
        fit = fit_wls(make_design(x, y, [1, 2, 3, 4]))
        np.testing.assert_allclose(fit.coefficients, [3.0, 0.5], atol=1e-12)
        np.testing.assert_allclose(fit.std_errors, 0.0, atol=1e-12)
        assert np.isnan(fit.t_stats).all()
        assert fit.weighted_rss == pytest.approx(0.0, abs=1e-20)

    @staticmethod
    def weighted_quadratic(noise_sd):
        rng = np.random.default_rng(17)
        age = rng.integers(15, 91, size=5_000).astype(float)
        x = np.column_stack([np.ones_like(age), age, age**2])
        y = 8.0 - 0.06 * age + 0.0006 * age**2 + rng.normal(0.0, noise_sd, size=age.size)
        return make_design(x, y, rng.uniform(0.2, 3.0, size=age.size))

    def test_tall_noiseless_fit_is_exact(self):
        """The residual is rounding, not signal: no SE, no t."""
        fit = fit_wls(self.weighted_quadratic(0.0))
        np.testing.assert_allclose(fit.coefficients, [8.0, -0.06, 0.0006], rtol=1e-9)
        assert fit.weighted_rss == 0.0
        assert np.all(fit.std_errors == 0.0)
        assert np.isnan(fit.t_stats).all()

    def test_tall_nearly_noiseless_fit_keeps_its_t(self):
        fit = fit_wls(self.weighted_quadratic(1e-6))
        assert fit.weighted_rss > 0.0
        assert np.all(np.isfinite(fit.t_stats)) and np.all(fit.std_errors > 0.0)

    def test_t_stats_are_absolute(self):
        rng = np.random.default_rng(11)
        design = random_design(rng)
        fit = fit_wls(design)
        finite = ~np.isnan(fit.t_stats)
        assert np.all(fit.t_stats[finite] >= 0)
        np.testing.assert_allclose(
            fit.t_stats[finite],
            (np.abs(fit.coefficients) / fit.std_errors)[finite],
        )


class TestAgainstOracle:
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_reference(self, seed):
        rng = np.random.default_rng(seed)
        design = random_design(rng)
        fit = fit_wls(design)
        beta_ref, se_ref = wls_reference(
            design.values.tolist(),
            design.response.tolist(),
            design.row_weights.tolist(),
        )
        np.testing.assert_allclose(fit.coefficients, beta_ref, rtol=1e-9)
        np.testing.assert_allclose(fit.std_errors, se_ref, rtol=1e-9)

    def test_covariance_diagonal_matches_se(self):
        rng = np.random.default_rng(21)
        design = random_design(rng)
        fit = fit_wls(design)
        np.testing.assert_allclose(
            np.sqrt(np.diag(fit.covariance)), fit.std_errors, rtol=1e-12
        )
        np.testing.assert_allclose(fit.covariance, fit.covariance.T)


class TestInvariances:
    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 10_000), scale=st.floats(0.01, 100.0))
    def test_weight_scale_invariance(self, seed, scale):
        """Rescaling all weights by a constant changes neither the
        coefficients nor the standard errors (the error variance is
        estimated, so the scale cancels)."""
        rng = np.random.default_rng(seed)
        design = random_design(rng)
        scaled = DesignMatrix(
            design.values,
            list(design.column_labels),
            design.row_weights * scale,
            design.response,
        )
        fit, fit_scaled = fit_wls(design), fit_wls(scaled)
        np.testing.assert_allclose(
            fit_scaled.coefficients, fit.coefficients, rtol=1e-9, atol=1e-12
        )
        np.testing.assert_allclose(
            fit_scaled.std_errors, fit.std_errors, rtol=1e-9, atol=1e-12
        )

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_integer_weights_equal_replication_for_coefficients(self, seed):
        rng = np.random.default_rng(seed)
        design = random_design(rng, integer_weights=True)
        counts = design.row_weights.astype(int)
        x_rep = np.repeat(design.values, counts, axis=0)
        y_rep = np.repeat(design.response, counts)
        replicated = DesignMatrix(
            x_rep, list(design.column_labels), np.ones(len(x_rep)), y_rep
        )
        fit_w, fit_r = fit_wls(design), fit_wls(replicated)
        # only the coefficients are equal; the replicated fit has more
        # residual degrees of freedom, so its standard errors differ
        np.testing.assert_allclose(
            fit_w.coefficients, fit_r.coefficients, rtol=1e-10, atol=1e-13
        )
        assert fit_r.dof >= fit_w.dof


class TestRankHandling:
    def duplicated_column_design(self):
        rng = np.random.default_rng(3)
        x1 = rng.normal(size=20)
        x = np.column_stack([np.ones(20), x1, rng.normal(size=20), 2.0 * x1])
        return DesignMatrix(
            x, ["const", "a", "b", "a_twice"], np.ones(20), rng.normal(size=20)
        )

    def test_fit_raises_with_suspects(self):
        design = self.duplicated_column_design()
        with pytest.raises(RankDeficientError) as excinfo:
            fit_wls(design)
        assert set(excinfo.value.suspect_labels) == {"a", "a_twice"}

    def test_all_zero_design_names_every_column(self):
        design = DesignMatrix(np.zeros((5, 2)), ["a", "b"], np.ones(5), np.arange(5.0))
        with pytest.raises(RankDeficientError, match=r"rank 0 of 2\); dependent columns: \['a', 'b'\]") as excinfo:
            fit_wls(design)
        assert excinfo.value.suspect_labels == ["a", "b"]

    def test_rank_check_reports_without_raising(self):
        design = self.duplicated_column_design()
        report = rank_check(design)
        assert report.deficient and report.rank == 3 and report.n_columns == 4
        assert set(report.suspect_labels) == {"a", "a_twice"}

    def test_removing_a_suspect_restores_full_rank(self):
        design = self.duplicated_column_design()
        report = rank_check(design)
        for label in report.suspect_labels:
            keep = [j for j, l in enumerate(design.column_labels) if l != label]
            sub = DesignMatrix(
                design.values[:, keep],
                [design.column_labels[j] for j in keep],
                design.row_weights,
                design.response,
            )
            assert not rank_check(sub).deficient
            fit_wls(sub)  # must not raise

    def test_full_rank_report(self):
        rng = np.random.default_rng(5)
        report = rank_check(random_design(rng))
        assert not report.deficient and report.suspect_labels == ()

    @staticmethod
    def near_pair_design(seed):
        """const, x, near = x + δz, a, b and dep = a + 2b − 1 in a random
        order: one exact dependency, and a nearly dependent pair
        (condition up to about 1e9) among the independent columns."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(8, 61))
        x, z, a, b = rng.normal(size=(4, n))
        delta = 10.0 ** rng.uniform(-9, -4)
        columns = {"const": np.ones(n), "x": x, "near": x + delta * z, "a": a, "b": b, "dep": a + 2 * b - 1}
        labels = [list(columns)[i] for i in rng.permutation(len(columns))]
        values = np.column_stack([columns[label] for label in labels])
        return DesignMatrix(values, labels, rng.uniform(0.5, 2.0, n), rng.normal(size=n))

    def test_suspects_are_minimal_beside_a_near_pair(self):
        """The suspects are the one exact dependency, without the nearly
        dependent pair, whose condition amplifies the rounding of the
        triangular solve that first names them."""
        for seed in range(300):
            design = self.near_pair_design(seed)
            with pytest.raises(RankDeficientError) as excinfo:
                fit_wls(design)
            report = rank_check(design)
            assert set(excinfo.value.suspect_labels) == {"const", "a", "b", "dep"}, seed
            assert report.rank == 5 and report.suspect_labels == tuple(excinfo.value.suspect_labels)


class TestStackedSolve:
    """The stack-shaped kernel that ``fit_wls`` and the per-spec fits
    share."""

    @staticmethod
    def solve(xs, ys):
        """``wls._csne`` on one stack of the dense problems ``xs``/``ys``,
        each padded to the widest."""
        k, p = len(xs), max(x.shape[1] for x in xs)
        widths = np.array([x.shape[1] for x in xs])
        gram, xty = np.zeros((k, p, p)), np.zeros((k, p))
        for i, (x, y) in enumerate(zip(xs, ys)):
            gram[i, : x.shape[1], : x.shape[1]] = x.T @ x
            xty[i, : x.shape[1]] = x.T @ y

        def xte(beta):
            out = np.zeros_like(beta)
            for i, (x, y) in enumerate(zip(xs, ys)):
                out[i, : x.shape[1]] = x.T @ (y - x @ beta[i, : x.shape[1]])
            return out

        def rss(beta):
            return np.array([
                np.sum((y - x @ beta[i, : x.shape[1]]) ** 2) for i, (x, y) in enumerate(zip(xs, ys))
            ])

        return agecurve.wls._csne(gram, xty, widths, xte, rss)

    def test_members_are_solved_as_if_alone(self):
        """Members of two widths share a stack with one whose Gram
        matrix [[4, 4], [4, 4]] has no Cholesky factor: that one alone
        is not certified, and every other member's coefficients, R⁻¹
        and RSS are bit-identical to those it gets in a stack of its
        own."""
        rng = np.random.default_rng(5)
        xs = [rng.normal(size=(12, 3)), np.ones((4, 2)), rng.normal(size=(9, 2)), rng.normal(size=(12, 3))]
        ys = [rng.normal(size=len(x)) for x in xs]
        certified, *together = self.solve(xs, ys)
        assert certified.tolist() == [True, False, True, True]
        for i in (0, 2, 3):
            w = xs[i].shape[1]
            _, *alone = self.solve([xs[i]], [ys[i]])
            assert np.array_equal(together[0][i, :w], alone[0][0])
            assert np.array_equal(together[1][i, :w, :w], alone[1][0])
            assert together[2][i] == alone[2][0]
            assert not np.any(together[0][i, w:])

    def test_certificate_is_the_singular_value_test(self, monkeypatch):
        """A nearly repeated column moves σ_min/σ_max through the 1e-6
        certificate: the decision is the SVD's, also for designs between
        the norm bound and the σ ratio, and a design the norm bound
        clears computes no singular values."""
        rng = np.random.default_rng(8)
        base = np.column_stack([np.ones(40), rng.normal(size=40)])
        svd, calls = np.linalg.svd, []
        monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(1) or svd(*a, **k))
        between = 0
        for delta in 10.0 ** np.arange(-7.0, -1.0, 0.02):
            x = np.column_stack([base, base[:, 1] + delta * rng.normal(size=40)])
            r = np.linalg.cholesky(x.T @ x).T
            sigma = svd(r, compute_uv=False)
            calls.clear()
            _, certified = agecurve.wls._certified_cholesky((x.T @ x)[None])
            assert certified[0] == (sigma[-1] > 1e-6 * sigma[0]), delta
            bound = 1.0 / (np.linalg.norm(r) * np.linalg.norm(np.linalg.inv(r)))
            assert bound <= sigma[-1] / sigma[0] * (1 + 1e-12)
            assert len(calls) == int(bound <= 1e-6)
            between += bound <= 1e-6 < sigma[-1] / sigma[0]
        assert between


class TestGuards:
    def test_more_columns_than_rows(self):
        x = np.ones((2, 3))
        x[:, 1] = [1, 2]
        x[:, 2] = [4, 1]
        design = DesignMatrix(x, ["const", "a", "b"], np.ones(2), np.zeros(2))
        with pytest.raises(ValueError, match="identify"):
            fit_wls(design)

    def test_zero_dof(self):
        x = np.column_stack([np.ones(2), [1.0, 2.0]])
        design = DesignMatrix(x, ["const", "a"], np.ones(2), np.array([1.0, 2.0]))
        with pytest.raises(ValueError, match="degrees of freedom"):
            fit_wls(design)

    def test_no_columns(self):
        design = DesignMatrix(
            np.empty((3, 0)), [], np.ones(3), np.zeros(3)
        )
        with pytest.raises(ValueError, match="no columns"):
            fit_wls(design)


class TestFitResult:
    def test_label_accessors(self):
        rng = np.random.default_rng(9)
        fit = fit_wls(random_design(rng))
        assert fit.coef("const") == fit.coefficients[0]
        with pytest.raises(KeyError, match="fitted columns"):
            fit.coef("nope")

    def test_column_means(self):
        rng = np.random.default_rng(10)
        design = random_design(rng)
        fit = fit_wls(design)
        assert fit.column_means.shape == (design.p,)
        np.testing.assert_allclose(
            fit.column_means, design.weighted_column_means(), rtol=0, atol=1e-12
        )
        naive = np.average(design.values, axis=0, weights=design.row_weights)
        np.testing.assert_allclose(fit.column_means, naive, rtol=0, atol=1e-12)


def test_runtime_needs_no_scipy(survey_csv, tmp_path):
    """The package imports and runs with scipy blocked. This runs in a
    fresh interpreter, since this session imported scipy for the
    reference solver."""
    script = textwrap.dedent(
        f"""
        import sys
        import agecurve.cli
        if "scipy" in sys.modules:
            sys.exit("importing agecurve.cli imported scipy")
        sys.modules["scipy"] = None  # any later import of scipy fails
        codes = [
            agecurve.cli.main(["report", "--input", {str(survey_csv)!r},
                               "--out", {str(tmp_path / "report")!r}]),
            agecurve.cli.main(["simulate", "--experiment", "mediator", "--reps", "2",
                               "--out", {str(tmp_path / "simulate")!r}]),
        ]
        sys.exit(0 if codes == [0, 0] else f"exit codes {{codes}}")
        """
    )
    result = _run_fresh(script)
    assert result.returncode == 0, result.stderr


def test_report_leaves_numpy_ma_unimported(survey_csv, tmp_path):
    """A bare ``np.unique`` imports ``numpy.ma`` on numpy 2, a cold-start
    cost inside every run; ``report`` must not trigger it. numpy 1
    imports ``numpy.ma`` with numpy itself, so there is nothing to check."""
    script = textwrap.dedent(
        f"""
        import sys
        import agecurve.cli
        if "numpy.ma" in sys.modules:
            print("numpy.ma imported with numpy")
            sys.exit(0)
        code = agecurve.cli.main(["report", "--input", {str(survey_csv)!r},
                                  "--out", {str(tmp_path / "report")!r}])
        if code != 0:
            sys.exit(f"exit code {{code}}")
        if "numpy.ma" in sys.modules:
            sys.exit("report imported numpy.ma")
        """
    )
    result = _run_fresh(script)
    assert result.returncode == 0, result.stderr
    if "numpy.ma imported with numpy" in result.stdout:
        pytest.skip("this numpy imports numpy.ma eagerly")


def _run_fresh(script: str) -> subprocess.CompletedProcess:
    """Run ``script`` in a new interpreter that imports this agecurve."""
    src = str(Path(agecurve.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
