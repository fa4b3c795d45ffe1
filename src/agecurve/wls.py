"""Weighted least squares on numpy alone: a certified Cholesky solve,
with a pivoted QR for the designs the certificate cannot clear.

Let ``X̃ = √w·X`` and ``ỹ = √w·y``. The fast path works from the Gram
matrix ``X̃ᵀX̃`` and ``X̃ᵀỹ`` alone, so one kernel solves a whole stack of
problems at once: :func:`fit_wls` passes a stack of one, formed from a
dense design, and a pass over a survey (:func:`agecurve.models._pass`)
passes every group of rows of a sample, each country of a spec or each
Monte Carlo replicate, formed from grouped sufficient statistics (see
:class:`agecurve.design.GroupedDesigns`). Members of one width are
factored together; numpy.linalg raises for a whole stack when one
member has no Cholesky factor, and that stack is then redone one matrix
at a time.

The kernel takes the Cholesky factor R of each Gram matrix and
certifies full rank from the singular values of that p×p triangle,
which are those of X̃ up to rounding. In any column-pivoted QR of X̃,
``|r_11| ≤ σ_max`` and ``|r_kk| ≥ σ_min``; so when ``σ_min/σ_max``
exceeds 1e-6, every diagonal entry of a pivoted QR exceeds 1e-10 of the
first by a wide margin, and the rank rule below must find full rank
without running it. ``1/(‖R‖_F·‖R⁻¹‖_F)`` never exceeds ``σ_min/σ_max``
and costs nothing once R⁻¹ is formed, so only a design that this bound
does not clear has its singular values computed.
The coefficients then come from the corrected semi-normal equations
(Björck, *Numerical Methods for Least Squares Problems*, SIAM 1996,
§2.5 and §6.6): one solve of ``RᵀRβ = X̃ᵀỹ`` followed by one
refinement step on the explicit residual ``ỹ − X̃β``, formed row by
row, which brings the coefficients to the accuracy of a QR solve at the
condition numbers the certificate admits. The weighted RSS is the
squared norm of the residual after that step, and the covariance is
``R⁻¹R⁻ᵀ·σ²``, which carries the Gram matrix's rounding: about machine
epsilon times the squared condition number of the column-scaled design,
relative.

When Cholesky fails or the certificate does not hold, :func:`fit_wls`
falls back to a Householder QR of ``[X̃ | ỹ]`` that keeps only its
(p+1)×(p+1) triangle (its last column is ``Qᵀỹ``, its corner entry the
norm of the weighted residual), followed by a column-pivoted QR of the
leading p×p block. That block has the same column norms and RᵀR as X̃,
so the pivoted QR reveals the rank with the usual rule, a column
counting when ``|r_ii| > 1e-10·|r_11|``. Only this path can name the
columns of a dependency, and the conditioning measured by the fast path
alone decides which path a design takes.

On either path a residual norm at or below ``1e-10·‖ỹ‖`` is
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
from typing import Callable, Sequence

import numpy as np

from .design import DesignMatrix

__all__ = ["RankDeficientError", "RankReport", "FitResult", "fit_wls", "rank_check"]

DEFAULT_RANK_TOL = 1e-10

# Smallest σ_min/σ_max of the Cholesky factor that certifies full rank
# at DEFAULT_RANK_TOL, four orders of magnitude above it. At the
# condition numbers it admits the Gram matrix keeps enough digits for
# one refinement step to reach QR accuracy.
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


@dataclass(frozen=True, eq=False)
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


def _each(func, stack: np.ndarray, fill: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``func`` over a stack of matrices, and the members it failed on,
    whose results are ``fill``: numpy.linalg raises for the whole stack
    when one member fails, so each member is then tried alone."""
    try:
        return func(stack), np.zeros(len(stack), dtype=bool)
    except np.linalg.LinAlgError:
        pass
    results, failed = [], []
    for member in stack:
        try:
            results.append(func(member))
            failed.append(False)
        except np.linalg.LinAlgError:
            results.append(fill)
            failed.append(True)
    return np.array(results), np.array(failed)


def _certified_cholesky(gram: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For a stack of Gram matrices ``X̃ᵀX̃``: each member's R⁻¹, R its
    upper Cholesky factor, and whether R's singular values certify full
    rank. A member without a Cholesky factor is not certified, and its
    R⁻¹ is the identity.

    ``1/(‖R‖_F·‖R⁻¹‖_F)`` never exceeds σ_min/σ_max, so a member whose
    bound clears the certificate needs no SVD; only the others have
    their singular values computed."""
    eye = np.eye(gram.shape[-1])
    lower, failed = _each(np.linalg.cholesky, gram, eye)
    # every R is triangular with a nonzero diagonal, a failed member's
    # the identity, so its inverse does not raise
    r = lower.swapaxes(-1, -2)
    r_inv = np.linalg.inv(r)
    norms = np.sqrt(np.sum(r**2, axis=(-2, -1)) * np.sum(r_inv**2, axis=(-2, -1)))
    certified = ~failed & (_CERTIFICATE * norms < 1.0)
    doubt = np.flatnonzero(~failed & ~certified)
    if doubt.size:
        sigma, no_svd = _each(
            lambda a: np.linalg.svd(a, compute_uv=False), r[doubt], np.zeros(len(eye))
        )
        certified[doubt] = ~no_svd & (sigma[:, -1] > _CERTIFICATE * sigma[:, 0])
    return r_inv, certified


def _csne(
    gram: np.ndarray,
    xty: np.ndarray,
    widths: np.ndarray,
    xte: Callable[[np.ndarray], np.ndarray],
    rss: Callable[[np.ndarray], np.ndarray],
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Solve a stack of weighted least squares problems from their Gram
    matrices ``gram`` (k×p×p) and right-hand sides ``xty`` (k×p) by the
    corrected semi-normal equations: one solve of ``RᵀRβ = X̃ᵀỹ``, then
    one refinement step on the explicit residual.

    Member i uses the leading ``widths[i]`` rows and columns. Members of
    one width are solved together and never padded, so each member's
    result is the one it would get alone. ``xte(beta)`` gives each
    member's ``X̃ᵀ(ỹ − X̃β)`` and ``rss(beta)`` each member's
    ``‖ỹ − X̃β‖²``, for a k×p stack of coefficients that is 0 beyond
    each width; both must form the residual row by row. Returns which
    members are certified full rank (see :func:`_certified_cholesky`),
    the coefficients, R⁻¹ and the weighted RSS; a member that is not
    certified has zero coefficients and R⁻¹.
    """
    certified = np.zeros(len(gram), dtype=bool)
    r_inv = np.zeros_like(gram)
    parts = []
    for w in sorted(set(widths.tolist())):
        members = np.flatnonzero(widths == w)
        part, ok = _certified_cholesky(gram[members, :w, :w])
        part[~ok] = 0.0  # so a member that is not certified keeps β = 0
        certified[members] = ok
        r_inv[members, :w, :w] = part
        parts.append((w, members, part, part.swapaxes(-1, -2)))

    def solve(rhs: np.ndarray) -> np.ndarray:
        out = np.zeros_like(rhs)
        for w, members, part, part_t in parts:
            out[members, :w] = (part @ (part_t @ rhs[members, :w, None]))[..., 0]
        return out

    beta = solve(xty)
    beta += solve(xte(beta))
    return certified, beta, r_inv, rss(beta)


def _fit_results(
    labels: Sequence[Sequence[str]], n: np.ndarray, beta: np.ndarray, r_inv: np.ndarray,
    rss: np.ndarray, yty: np.ndarray, column_means: np.ndarray,
) -> list[FitResult]:
    """The fits of a stack of full-rank designs of one width, member
    ``i`` with ``labels[i]`` and ``n[i]`` rows, formed at once from the
    rows of the coefficients, R⁻¹, weighted RSS, ``‖ỹ‖²`` and column means."""
    # a residual at or below the rank tolerance relative to ‖√w·y‖ is
    # rounding, and the fit is exact
    rss = np.where(np.sqrt(rss) <= DEFAULT_RANK_TOL * np.sqrt(yty), 0.0, rss)
    k = beta.shape[1]
    dof = n - k
    covariance = (r_inv @ r_inv.swapaxes(-1, -2)) * (rss / dof)[:, None, None]
    std_errors = np.sqrt(np.diagonal(covariance, axis1=-2, axis2=-1))
    with np.errstate(divide="ignore", invalid="ignore"):
        t_stats = np.where(std_errors > 0, np.abs(beta) / std_errors, np.nan)
    return [
        FitResult(
            tuple(labels[i]), beta[i], std_errors[i], t_stats[i], covariance[i],
            int(n[i]), int(dof[i]), k, float(rss[i]), column_means[i],
        )
        for i in range(len(beta))
    ]


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


def _rank_from_r(r: np.ndarray) -> int:
    diag = np.abs(np.diag(r))
    if diag.size == 0 or diag[0] == 0.0:
        return 0
    return int(np.count_nonzero(diag > DEFAULT_RANK_TOL * diag[0]))


def _suspect_labels(
    r: np.ndarray, piv: np.ndarray, rank: int, labels: Sequence[str]
) -> list[str]:
    """Columns involved in the first linear dependency.

    The first pivoted-out column (index ``rank`` in pivot order) is a
    linear combination of the independent ones; solving the triangular
    system for its coefficients and keeping the non-negligible entries
    yields a dependent set. That solve amplifies rounding by the
    condition of any nearly dependent pair among the independent
    columns, which can keep the pair, so each independent member is then
    dropped if the set stays rank deficient without it, by the rank rule
    on those columns of ``r``. What is left is minimal.
    """
    if rank == 0:
        return list(labels)
    coefs = np.linalg.solve(r[:rank, :rank], r[:rank, rank])
    cutoff = 1e-8 * max(1.0, float(np.max(np.abs(coefs))))
    involved = [i for i in range(rank) if abs(coefs[i]) > cutoff] + [rank]
    for i in involved[:-1]:
        rest = [j for j in involved if j != i]
        if _rank_from_r(_pivoted_qr(r[:, rest])[0]) < len(rest):
            involved = rest
    return [labels[j] for j in sorted(piv[involved].tolist())]


def _revealed_rank(r: np.ndarray, labels: Sequence[str]) -> tuple[int, list[str]]:
    """Rank of the leading design block of a QR triangle, and the
    suspect labels when it is deficient."""
    p = len(labels)
    r_piv, piv = _pivoted_qr(r[:p, :p])
    rank = _rank_from_r(r_piv)
    suspects = _suspect_labels(r_piv, piv, rank, labels) if rank < p else []
    return rank, suspects


def rank_check(design: DesignMatrix) -> RankReport:
    """Report the numerical rank of a design without fitting it."""
    p = design.p
    xs, ys = _weighted(design)
    if p and _certified_cholesky((xs.T @ xs)[None])[1][0]:
        rank, suspects = p, []
    else:
        rank, suspects = _revealed_rank(_triangle(xs, ys), design.column_labels)
    return RankReport(
        rank=rank,
        n_columns=p,
        deficient=rank < p,
        suspect_labels=tuple(suspects),
        tol=DEFAULT_RANK_TOL,
    )


def fit_wls(design: DesignMatrix) -> FitResult:
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
    certified, beta, r_inv, rss = _csne(
        (xs.T @ xs)[None],
        (xs.T @ ys)[None],
        np.array([p]),
        lambda b: (xs.T @ (ys - xs @ b[0]))[None],
        lambda b: np.array([np.sum((ys - xs @ b[0]) ** 2)]),
    )
    if not certified[0]:
        r_aug = _triangle(xs, ys)
        rank, suspects = _revealed_rank(r_aug, design.column_labels)
        if rank < p:
            raise RankDeficientError(
                f"design is rank deficient (rank {rank} of {p}); "
                f"dependent columns: {suspects}",
                suspects,
            )
    if n - p < 1:
        raise ValueError(
            f"no residual degrees of freedom (n={n}, rank={p}); "
            "standard errors are undefined"
        )
    yty = ys @ ys
    if not certified[0]:
        r = r_aug[:p, :p]
        r_inv = np.linalg.inv(r)[None]
        beta = np.linalg.solve(r, r_aug[:p, p])[None]
        # the corner entry is the norm of the weighted residual
        rss, yty = np.array([float(r_aug[p, p]) ** 2]), r_aug[:, p] @ r_aug[:, p]
    return _fit_results(
        [design.column_labels], np.array([n]), beta, r_inv, rss, np.array([yty]),
        design.weighted_column_means()[None],
    )[0]
