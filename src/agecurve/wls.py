"""Weighted least squares on numpy alone: a certified Cholesky solve,
with a pivoted QR for the designs the certificate cannot clear.

Let ``X̃ = √w·X`` and ``ỹ = √w·y``. The fast path takes the Cholesky
factor R of the Gram matrix ``X̃ᵀX̃`` and certifies full rank from the
singular values of that p×p triangle, which are those of X̃ up to
rounding. In any column-pivoted QR of X̃, ``|r_11| ≤ σ_max`` and
``|r_kk| ≥ σ_min``; so when ``σ_min/σ_max`` exceeds 1e-6, every
diagonal entry of a pivoted QR exceeds 1e-10 of the first by a wide
margin, and the rank rule below must find full rank without running it.
(A rank tolerance looser than the default 1e-10 raises the 1e-6 bound
in proportion.)
The coefficients then come from the corrected semi-normal equations
(Björck, *Numerical Methods for Least Squares Problems*, SIAM 1996,
§2.5 and §6.6): one solve of ``RᵀRβ = X̃ᵀỹ`` followed by one
refinement step on the explicit residual ``ỹ − X̃β``, which brings the
coefficients to the accuracy of a QR solve at the condition numbers the
certificate admits. The weighted RSS is the squared norm of the
residual after that step, and the covariance is ``R⁻¹R⁻ᵀ·σ²``, which
carries the Gram matrix's rounding: about machine epsilon times the
squared condition number of the column-scaled design, relative.

When Cholesky fails or the certificate does not hold, the fit falls
back to a Householder QR of ``[X̃ | ỹ]`` that keeps only its
(p+1)×(p+1) triangle (its last column is ``Qᵀỹ``, its corner entry the
norm of the weighted residual), followed by a column-pivoted QR of the
leading p×p block. That block has the same column norms and RᵀR as X̃,
so the pivoted QR reveals the rank with the usual rule, a column
counting when ``|r_ii| > rank_tol·|r_11|``. Only this path can name the
columns of a dependency, and the conditioning measured by the fast path
alone decides which path a design takes.

On either path a residual norm at or below ``rank_tol·‖ỹ‖`` is
rounding: the fit is exact, with a weighted RSS of 0, zero standard
errors and NaN t statistics.

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

from .design import DesignMatrix

__all__ = ["RankDeficientError", "RankReport", "FitResult", "fit_wls", "rank_check"]

DEFAULT_RANK_TOL = 1e-10

# Smallest σ_min/σ_max of the Cholesky factor that certifies full rank
# at DEFAULT_RANK_TOL, four orders of magnitude above it; a looser rank
# tolerance raises it in proportion. At the condition numbers it admits
# the Gram matrix keeps enough digits for one refinement step to reach
# QR accuracy.
_CERTIFICATE = 1e-6

# dgeqp3 recomputes a downdated column norm once it has lost this share
_NORM_DOWNDATE_TOL = np.sqrt(np.finfo(float).eps / 2)


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
    curve prediction and adjusted means need of the design. ``notes``
    holds what the caller should know about a fit that succeeded, such
    as :func:`agecurve.models.fit_spec`'s note on too few survey rounds.
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
    notes: tuple[str, ...] = ()

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


def _weighted(design: DesignMatrix) -> tuple[np.ndarray, np.ndarray]:
    sqrt_w = np.sqrt(design.row_weights)
    return design.values * sqrt_w[:, None], design.response * sqrt_w


def _certified_cholesky(xs: np.ndarray, tol: float) -> np.ndarray | None:
    """The upper Cholesky factor R of ``xsᵀxs``, or None when Cholesky
    fails or R's singular values do not certify full rank under the
    rank tolerance ``tol``."""
    try:
        r = np.linalg.cholesky(xs.T @ xs).T
        sigma = np.linalg.svd(r, compute_uv=False)
    except np.linalg.LinAlgError:  # not positive definite, or no SVD
        return None
    bound = _CERTIFICATE * max(1.0, tol / DEFAULT_RANK_TOL)
    return r if sigma[-1] > bound * sigma[0] else None


def _pivoted_qr(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Householder QR with column pivoting, as LAPACK's dgeqp3 does it.

    Each step brings forward the column of largest remaining norm (the
    first one on a tie, counting in the current column order) and
    downdates the other norms, recomputing one once it has lost too
    much to cancellation. Returns the upper triangle and the pivots.
    """
    a = np.array(a, dtype=float)
    m, n = a.shape
    piv = np.arange(n)
    norms = np.linalg.norm(a, axis=0)
    exact = norms.copy()  # each norm when it was last computed in full
    for i in range(min(m, n)):
        j = i + int(np.argmax(norms[i:]))
        if j != i:
            a[:, [i, j]] = a[:, [j, i]]
            piv[[i, j]] = piv[[j, i]]
            norms[j], exact[j] = norms[i], exact[i]
        alpha, x = a[i, i], a[i + 1 :, i]
        x_norm = float(np.linalg.norm(x))
        if x_norm != 0.0:
            beta = -np.copysign(np.hypot(alpha, x_norm), alpha)
            v = np.concatenate(([1.0], x / (alpha - beta)))
            tau = (beta - alpha) / beta
            rest = a[i:, i + 1 :]
            rest -= np.outer(tau * v, v @ rest)
            a[i, i] = beta
            a[i + 1 :, i] = 0.0
        k = i + 1 + np.flatnonzero(norms[i + 1 :])
        shrink = np.maximum(0.0, 1.0 - (np.abs(a[i, k]) / norms[k]) ** 2)
        lost = shrink * (norms[k] / exact[k]) ** 2 <= _NORM_DOWNDATE_TOL
        norms[k] *= np.sqrt(shrink)
        k = k[lost]
        norms[k] = exact[k] = np.linalg.norm(a[i + 1 :, k], axis=0)
    return np.triu(a), piv


def _triangle(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """R of an unpivoted QR of ``[xs | ys]``, without Q."""
    return np.linalg.qr(np.column_stack([xs, ys]), mode="r")


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
    coefs = np.linalg.solve(r[:rank, :rank], r[:rank, rank])
    cutoff = 1e-8 * max(1.0, float(np.max(np.abs(coefs))))
    involved = [int(piv[i]) for i in range(rank) if abs(coefs[i]) > cutoff]
    involved.append(int(piv[rank]))
    return [labels[j] for j in sorted(involved)]


def _revealed_rank(
    r: np.ndarray, labels: Sequence[str], tol: float
) -> tuple[int, list[str]]:
    """Rank of the leading design block of a QR triangle, and the
    suspect labels when it is deficient."""
    p = len(labels)
    r_piv, piv = _pivoted_qr(r[:p, :p])
    rank = _rank_from_r(r_piv, tol)
    suspects = _suspect_labels(r_piv, piv, rank, labels) if rank < p else []
    return rank, suspects


def rank_check(design: DesignMatrix, tol: float = DEFAULT_RANK_TOL) -> RankReport:
    """Report the numerical rank of a design without fitting it."""
    p = design.p
    xs, ys = _weighted(design)
    if p and _certified_cholesky(xs, tol) is not None:
        rank, suspects = p, []
    else:
        rank, suspects = _revealed_rank(_triangle(xs, ys), design.column_labels, tol)
    return RankReport(
        rank=rank,
        n_columns=p,
        deficient=rank < p,
        suspect_labels=tuple(suspects),
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

    xs, ys = _weighted(design)
    r = _certified_cholesky(xs, rank_tol)
    if r is None:
        r_aug = _triangle(xs, ys)
        rank, suspects = _revealed_rank(r_aug, design.column_labels, rank_tol)
        if rank < p:
            raise RankDeficientError(
                f"design is rank deficient (rank {rank} of {p}); "
                f"dependent columns: {suspects}",
                suspects,
            )
    dof = n - p
    if dof < 1:
        raise ValueError(
            f"no residual degrees of freedom (n={n}, rank={p}); "
            "standard errors are undefined"
        )

    if r is not None:
        # corrected semi-normal equations: solve, then refine once on
        # the explicit residual
        r_inv = np.linalg.inv(r)
        beta = r_inv @ (r_inv.T @ (xs.T @ ys))
        beta += r_inv @ (r_inv.T @ (xs.T @ (ys - xs @ beta)))
        residual_norm = float(np.linalg.norm(ys - xs @ beta))
        response_norm = float(np.linalg.norm(ys))
    else:
        r = r_aug[:p, :p]
        r_inv = np.linalg.inv(r)
        beta = np.linalg.solve(r, r_aug[:p, p])
        # the corner entry is the norm of the weighted residual
        residual_norm = abs(float(r_aug[p, p]))
        response_norm = float(np.linalg.norm(r_aug[:, p]))

    # a residual at or below the rank tolerance relative to ‖√w·y‖ is
    # rounding, and the fit is exact
    if residual_norm <= rank_tol * response_norm:
        residual_norm = 0.0
    weighted_rss = residual_norm**2
    covariance = (r_inv @ r_inv.T) * (weighted_rss / dof)

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
        rank=p,
        weighted_rss=weighted_rss,
        column_means=design.weighted_column_means(),
    )
