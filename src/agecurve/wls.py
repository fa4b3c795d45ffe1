"""Weighted least squares through a pivoted QR factorization.

The solver is deterministic (no iteration, no randomness) and refuses to
guess on rank-deficient designs: instead of silently dropping a column it
raises with the smallest set of column labels involved in the detected
linear dependency, which is what makes the age/period/cohort identity
visible to users instead of producing arbitrary coefficients.

Standard errors are classical homoskedastic ones with the supplied
weights treated as precision weights; t statistics are reported as
absolute values, matching how the detection rules consume them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy import linalg

from .design import DesignMatrix

__all__ = ["RankDeficientError", "RankReport", "FitResult", "fit_wls", "rank_check"]

DEFAULT_RANK_TOL = 1e-10


class RankDeficientError(ValueError):
    """The design has linearly dependent columns.

    ``suspect_labels`` lists a minimal set of columns involved in the
    first dependency found, in design order.
    """

    def __init__(self, message: str, suspect_labels: Sequence[str]):
        super().__init__(message)
        self.suspect_labels = list(suspect_labels)


@dataclass(frozen=True)
class RankReport:
    rank: int
    n_columns: int
    deficient: bool
    suspect_labels: tuple[str, ...]
    tol: float


@dataclass(frozen=True)
class FitResult:
    """One fitted model. Coefficient order follows ``labels``.

    ``column_means`` holds the weighted mean of each design column (for
    an indicator, the weighted share of its level), which is all that
    curve prediction and adjusted means need of the design.
    """

    labels: tuple[str, ...]
    coefficients: np.ndarray
    std_errors: np.ndarray
    t_stats: np.ndarray
    covariance: np.ndarray
    n_obs: int
    dof: int
    rank: int
    weighted_rss: float
    column_means: np.ndarray

    def _index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise KeyError(
                f"no column {label!r}; fitted columns: {list(self.labels)}"
            ) from None

    def coef(self, label: str) -> float:
        return float(self.coefficients[self._index(label)])

    def se(self, label: str) -> float:
        return float(self.std_errors[self._index(label)])

    def t(self, label: str) -> float:
        return float(self.t_stats[self._index(label)])


def _qr(design: DesignMatrix) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    scaled = design.values * np.sqrt(design.row_weights)[:, None]
    q, r, piv = linalg.qr(scaled, mode="economic", pivoting=True)
    return q, r, piv


def _rank_from_r(r: np.ndarray, tol: float) -> int:
    diag = np.abs(np.diag(r))
    if diag.size == 0 or diag[0] == 0.0:
        return 0
    return int(np.count_nonzero(diag > tol * diag[0]))


def _suspect_labels(
    r: np.ndarray, piv: np.ndarray, rank: int, labels: Sequence[str]
) -> list[str]:
    """Columns involved in the first linear dependency.

    The first pivoted-out column (index ``rank`` in pivot order) is a
    linear combination of the independent ones; solving the triangular
    system for its coefficients and keeping the non-negligible entries
    yields a minimal suspect set.
    """
    if rank == 0:
        return list(labels)
    coefs = linalg.solve_triangular(r[:rank, :rank], r[:rank, rank])
    cutoff = 1e-8 * max(1.0, float(np.max(np.abs(coefs))))
    involved = [int(piv[i]) for i in range(rank) if abs(coefs[i]) > cutoff]
    involved.append(int(piv[rank]))
    return [labels[j] for j in sorted(involved)]


def rank_check(design: DesignMatrix, tol: float = DEFAULT_RANK_TOL) -> RankReport:
    """Report the numerical rank of a design without fitting it."""
    _, r, piv = _qr(design)
    rank = _rank_from_r(r, tol)
    deficient = rank < design.p
    suspects = (
        tuple(_suspect_labels(r, piv, rank, design.column_labels))
        if deficient
        else ()
    )
    return RankReport(
        rank=rank,
        n_columns=design.p,
        deficient=deficient,
        suspect_labels=suspects,
        tol=tol,
    )


def fit_wls(design: DesignMatrix, rank_tol: float = DEFAULT_RANK_TOL) -> FitResult:
    """Solve the weighted least squares problem for a design matrix.

    Raises :class:`RankDeficientError` when columns are linearly
    dependent (naming the suspects) and ``ValueError`` when there are no
    residual degrees of freedom, since standard errors would then be
    undefined.
    """
    n, p = design.n, design.p
    if p == 0:
        raise ValueError("design has no columns")
    if n < p:
        raise ValueError(f"{n} observations cannot identify {p} coefficients")

    q, r, piv = _qr(design)
    rank = _rank_from_r(r, rank_tol)
    if rank < p:
        suspects = _suspect_labels(r, piv, rank, design.column_labels)
        raise RankDeficientError(
            f"design is rank deficient (rank {rank} of {p}); "
            f"dependent columns: {suspects}",
            suspects,
        )
    dof = n - rank
    if dof < 1:
        raise ValueError(
            f"no residual degrees of freedom (n={n}, rank={rank}); "
            "standard errors are undefined"
        )

    sqrt_w = np.sqrt(design.row_weights)
    qty = q.T @ (design.response * sqrt_w)
    beta_pivoted = linalg.solve_triangular(r, qty)
    beta = np.empty(p)
    beta[piv] = beta_pivoted

    residuals = design.response - design.values @ beta
    weighted_rss = float(np.sum(design.row_weights * residuals**2))
    sigma2 = weighted_rss / dof

    r_inv = linalg.solve_triangular(r, np.eye(p))
    cov_pivoted = r_inv @ r_inv.T
    covariance = np.empty((p, p))
    covariance[np.ix_(piv, piv)] = cov_pivoted
    covariance *= sigma2
    covariance = 0.5 * (covariance + covariance.T)

    std_errors = np.sqrt(np.clip(np.diag(covariance), 0.0, None))
    with np.errstate(divide="ignore", invalid="ignore"):
        t_stats = np.where(
            std_errors > 0, np.abs(beta) / std_errors, np.nan
        )

    return FitResult(
        labels=tuple(design.column_labels),
        coefficients=beta,
        std_errors=std_errors,
        t_stats=t_stats,
        covariance=covariance,
        n_obs=n,
        dof=dof,
        rank=rank,
        weighted_rss=weighted_rss,
        column_means=design.weighted_column_means(),
    )
