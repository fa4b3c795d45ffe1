"""The reference solver: agecurve's ``fit_wls`` and ``rank_check`` as
they were before the two-stage factorization, with a pivoted QR of the
whole n×p design and an explicit Q, kept verbatim so that
``test_qr_equivalence.py`` can check the package's solver against them.
Only the imports differ.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
from scipy import linalg

from agecurve.design import DesignMatrix
from agecurve.wls import (
    DEFAULT_RANK_TOL,
    FitResult,
    RankDeficientError,
    RankReport,
)


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
