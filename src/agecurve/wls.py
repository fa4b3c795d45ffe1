"""Weighted least squares through a two-stage QR factorization.

One unpivoted Householder QR of the n×(p+1) array ``[√w·X | √w·y]``
yields a small triangle and no Q: its last column is Qᵀ(√w·y) and its
corner entry is the norm of the weighted residual. A column-pivoted QR
of the leading p×p block (which has the same column norms and RᵀR as
√w·X) then reveals the rank with the usual rule, a column counting when
``|r_ii| > rank_tol·|r_11|``. Coefficients come from one triangular
solve and the covariance from (RᵀR)⁻¹. A residual norm at or below
``rank_tol·‖√w·y‖`` is rounding: the fit is exact, with a weighted RSS
of 0, zero standard errors and NaN t statistics.

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
from scipy.linalg import lapack

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


def _lapack(name: str, info: int) -> None:
    if info != 0:
        raise np.linalg.LinAlgError(f"LAPACK {name} failed (info={info})")


def _factor(design: DesignMatrix) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Factor ``[√w·X | √w·y]`` and reveal the rank of its design part.

    Returns ``r``, the upper triangle of one unpivoted Householder QR of
    the n×(p+1) augmented array (Q is never formed), and ``r_piv`` and
    ``piv`` from a column-pivoted QR of its leading p×p block. That
    block has the same column norms and the same RᵀR as √w·X, so the
    pivots and the diagonal of ``r_piv`` are those a pivoted QR of the
    whole design would give, up to rounding and the order of exact ties.
    """
    n, p = design.n, design.p
    sqrt_w = np.sqrt(design.row_weights)
    scaled = np.empty((n, p + 1), order="F")
    np.multiply(design.values, sqrt_w[:, None], out=scaled[:, :p])
    np.multiply(design.response, sqrt_w, out=scaled[:, p])
    # workspace query; it leaves ``scaled`` as it is
    lwork = int(lapack.dgeqrf(scaled, lwork=-1, overwrite_a=True)[2][0])
    qr, _, _, info = lapack.dgeqrf(scaled, lwork=lwork, overwrite_a=True)
    _lapack("dgeqrf", info)
    r = np.triu(qr[: p + 1])
    if p == 0:
        return r, r[:0, :0], np.empty(0, dtype=int)
    qr_piv, jpvt, _, _, info = lapack.dgeqp3(r[:p, :p])
    _lapack("dgeqp3", info)
    return r, np.triu(qr_piv), jpvt - 1


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
    coefs, info = lapack.dtrtrs(r[:rank, :rank], r[:rank, rank])
    _lapack("dtrtrs", info)
    cutoff = 1e-8 * max(1.0, float(np.max(np.abs(coefs))))
    involved = [int(piv[i]) for i in range(rank) if abs(coefs[i]) > cutoff]
    involved.append(int(piv[rank]))
    return [labels[j] for j in sorted(involved)]


def rank_check(design: DesignMatrix, tol: float = DEFAULT_RANK_TOL) -> RankReport:
    """Report the numerical rank of a design without fitting it."""
    _, r_piv, piv = _factor(design)
    rank = _rank_from_r(r_piv, tol)
    deficient = rank < design.p
    suspects = (
        tuple(_suspect_labels(r_piv, piv, rank, design.column_labels))
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

    r, r_piv, piv = _factor(design)
    rank = _rank_from_r(r_piv, rank_tol)
    if rank < p:
        suspects = _suspect_labels(r_piv, piv, rank, design.column_labels)
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

    r_x = r[:p, :p]
    beta, info = lapack.dtrtrs(r_x, r[:p, p])
    _lapack("dtrtrs", info)

    # r[p, p] is the norm of the weighted residual; at or below the
    # rank tolerance relative to ‖√w·y‖ it is rounding, and the fit is exact
    residual_norm = abs(float(r[p, p]))
    if residual_norm <= rank_tol * float(np.linalg.norm(r[:, p])):
        residual_norm = 0.0
    weighted_rss = residual_norm**2
    sigma2 = weighted_rss / dof

    inverse, info = lapack.dpotri(r_x)  # upper triangle of (RᵀR)⁻¹
    _lapack("dpotri", info)
    covariance = np.triu(inverse) + np.triu(inverse, 1).T
    covariance *= sigma2

    std_errors = np.sqrt(np.diag(covariance))
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
