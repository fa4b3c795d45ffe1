"""The per-country fit loop of ``agecurve.models._SpecFits`` and
``agecurve.wls._fit_result`` as they were when each (country, spec)
pair had its own ``GroupedDesigns.layout`` call and its own result,
kept verbatim so that ``test_layout_equivalence.py`` can check the
per-layout path against them. :class:`MemberFits` takes the package's
``_SpecFits`` for its pass, counts and notes; only the imports and the
class line differ.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from agecurve.dataset import EmptySampleError
from agecurve.design import DesignError
from agecurve.models import _SpecFits
from agecurve.wls import DEFAULT_RANK_TOL, FitResult, _csne, fit_wls


def _fit_result(
    labels: Sequence[str],
    n: int,
    beta: np.ndarray,
    r_inv: np.ndarray,
    rss: float,
    yty: float,
    column_means: np.ndarray,
) -> FitResult:
    """The fit of a full-rank design with ``n`` rows, from its
    coefficients, R⁻¹, weighted RSS and ``yty = ‖ỹ‖²``."""
    # a residual at or below the rank tolerance relative to ‖√w·y‖ is
    # rounding, and the fit is exact
    if np.sqrt(rss) <= DEFAULT_RANK_TOL * np.sqrt(yty):
        rss = 0.0
    dof = n - len(labels)
    covariance = (r_inv @ r_inv.T) * (rss / dof)
    std_errors = np.sqrt(np.diag(covariance))
    with np.errstate(divide="ignore", invalid="ignore"):
        t_stats = np.where(std_errors > 0, np.abs(beta) / std_errors, np.nan)
    return FitResult(
        labels=tuple(labels),
        coefficients=beta,
        std_errors=std_errors,
        t_stats=t_stats,
        covariance=covariance,
        n_obs=n,
        dof=dof,
        rank=len(labels),
        weighted_rss=float(rss),
        column_means=column_means,
    )


class MemberFits(_SpecFits):
    def _layout(self, g: int) -> tuple[np.ndarray, list[str]]:
        """Group ``g``'s design's columns (see :meth:`GroupedDesigns.layout`),
        or the error that says why its spec is not identified on it."""
        if not self.held[g]:
            raise EmptySampleError(f"filter removed all {self.rows[g]} records")
        n_periods = int(self.n_periods[g])
        if self.cohort and n_periods < 2:
            raise DesignError(
                f"only {n_periods} distinct survey round(s); "
                "cohort-controlled fit skipped"
            )
        return self.designs.layout(g)

    def fit(self, groups: Sequence[int]) -> list[FitResult | ValueError]:
        """The fit of each of ``groups``, as :func:`fit_spec` describes
        it, or the error it raises: the one place that decides whether a
        spec is identified on a sample.

        Every group with more rows than columns is solved in one stack
        from the grouped sufficient statistics. A group that the stack's
        certificate does not clear, or with too few rows, has its dense
        design built and goes through :func:`fit_wls`, which names the
        suspect columns of a rank-deficient design."""
        out: dict[int, FitResult | ValueError] = {}
        stack, dense = [], []
        for g in dict.fromkeys(groups):
            try:
                columns, labels = self._layout(g)
            except ValueError as exc:
                out[g] = exc
                continue
            (stack if self.held[g] > len(labels) else dense).append((g, columns, labels))
        if stack:
            dense.extend(self._solve(stack, out))
        for g, _, _ in dense:
            try:
                out[g] = self._noted(g, fit_wls(self.designs.design(g)))
            except ValueError as exc:
                out[g] = exc
        return [out[g] for g in groups]

    def _solve(self, stack: list, out: dict) -> list:
        """Fit the countries of ``stack`` in one stacked solve into
        ``out``; returns those the certificate does not clear."""
        gram, xty, yty = self.designs.moments()
        spare = self.designs.width
        widths = np.array([len(labels) for *_, labels in stack])
        groups = np.array([g for g, _, _ in stack])
        # each group's columns, then the all-zero spare column
        index = np.full((len(stack), widths.max()), spare)
        for i, (_, columns, _) in enumerate(stack):
            index[i, : len(columns)] = columns

        def spread(beta: np.ndarray) -> np.ndarray:
            coef = np.zeros_like(xty)
            coef[groups[:, None], index] = beta
            return coef

        certified, beta, r_inv, rss = _csne(
            gram[groups[:, None, None], index[:, :, None], index[:, None, :]],
            xty[groups[:, None], index],
            widths,
            lambda b: self.designs.xte(spread(b))[groups[:, None], index],
            lambda b: self.designs.rss(spread(b))[groups],
        )
        rejected = []
        for i, (g, columns, labels) in enumerate(stack):
            if not certified[i]:
                rejected.append(stack[i])
                continue
            k = len(labels)
            # the intercept row of the Gram matrix holds Σw·x for every column
            sums = gram[g, columns[labels.index("const")], columns]
            out[g] = self._noted(g, _fit_result(
                labels, int(self.held[g]), beta[i, :k], r_inv[i, :k, :k], float(rss[i]),
                float(yty[g]), sums / sums[labels.index("const")],
            ))
        return rejected
