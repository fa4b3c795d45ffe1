"""U-shape detection rules and coefficient-comparison metrics.

Three detection rules, each deliberately literal-minded so that a verdict
can always be recomputed from its own evidence:

``quad_t15``
    A quadratic fit counts as u-shaped when the age coefficient is
    negative, the age-squared coefficient is positive, and both pass
    ``|t| > 1.5``.

``range_t1``
    A coarse range fit counts when both the 15-34 and the 60-74
    coefficients are positive with ``t > 1``, i.e. young and old are
    both happier than the midlife reference.

``curve_heuristic``
    An adjusted-means curve counts when its minimum lies in midlife and
    the curve rises by at least ``rise_epsilon`` afterwards. How far the
    curve falls to the minimum is reported but not required.

The reduction metric compares a coefficient before and after adding
controls as a signed percentage, ``(1 - new/old) * 100``; values above
100 mean the coefficient crossed zero, which is reported alongside
through ``sign_flipped``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from .models import AgeCurve
from .wls import FitResult

__all__ = [
    "MIDLIFE_BINS",
    "RISE_EPSILON",
    "ShapeVerdict",
    "CoefficientChange",
    "ReductionReport",
    "DepthReport",
    "detect_quad",
    "detect_quad_values",
    "detect_ranges",
    "detect_ranges_values",
    "reduction",
    "reduction_values",
    "depth",
    "classify_curve",
]

#: Fine-scheme bins whose occupant counts as a midlife minimum.
MIDLIFE_BINS = ("35-44", "45-54", "55-64")

#: Minimum late-life rise, in happiness points, for the curve heuristic.
RISE_EPSILON = 0.10

QUAD_T_THRESHOLD = 1.5
RANGE_T_THRESHOLD = 1.0


@dataclass(frozen=True)
class ShapeVerdict:
    """One rule's answer for one country.

    ``evidence`` holds every quantity the rule looked at, including its
    threshold, so the boolean can be recomputed from the verdict alone.
    """

    country: str
    rule: str
    is_ushape: bool
    evidence: Mapping[str, object]


def detect_quad_values(
    country: str,
    coef_age: float,
    t_age: float,
    coef_sq: float,
    t_sq: float,
    threshold: float = QUAD_T_THRESHOLD,
) -> ShapeVerdict:
    """Curvature rule on already-extracted quadratic coefficients.

    t statistics are compared as absolute values.
    """
    t_age, t_sq = abs(t_age), abs(t_sq)
    is_u = coef_age < 0 and coef_sq > 0 and t_age > threshold and t_sq > threshold
    return ShapeVerdict(
        country=country,
        rule="quad_t15",
        is_ushape=is_u,
        evidence={
            "coef_age": coef_age,
            "t_age": t_age,
            "coef_age_sq": coef_sq,
            "t_age_sq": t_sq,
            "threshold": threshold,
        },
    )


def detect_quad(
    fit: FitResult, country: str, threshold: float = QUAD_T_THRESHOLD
) -> ShapeVerdict:
    """Curvature rule applied to a fitted quadratic model."""
    return detect_quad_values(
        country,
        fit.coef("age"),
        fit.t("age"),
        fit.coef("age_sq"),
        fit.t("age_sq"),
        threshold,
    )


def detect_ranges_values(
    country: str,
    coef_young: float,
    t_young: float,
    coef_old: float,
    t_old: float,
    threshold: float = RANGE_T_THRESHOLD,
) -> ShapeVerdict:
    """Range rule on already-extracted 15-34 and 60-74 coefficients."""
    t_young, t_old = abs(t_young), abs(t_old)
    is_u = (
        coef_young > 0 and coef_old > 0 and t_young > threshold and t_old > threshold
    )
    return ShapeVerdict(
        country=country,
        rule="range_t1",
        is_ushape=is_u,
        evidence={
            "coef_15_34": coef_young,
            "t_15_34": t_young,
            "coef_60_74": coef_old,
            "t_60_74": t_old,
            "threshold": threshold,
        },
    )


def detect_ranges(
    fit: FitResult, country: str, threshold: float = RANGE_T_THRESHOLD
) -> ShapeVerdict:
    """Range rule applied to a fitted coarse-scheme range model."""
    return detect_ranges_values(
        country,
        fit.coef("bin:15-34"),
        fit.t("bin:15-34"),
        fit.coef("bin:60-74"),
        fit.t("bin:60-74"),
        threshold,
    )


@dataclass(frozen=True)
class CoefficientChange:
    """Before/after comparison of one coefficient.

    ``percent_reduction`` is signed: 100 means the coefficient went to
    zero, values above 100 mean it crossed zero (``sign_flipped`` is
    then true), negative values mean it grew. When the baseline is
    exactly zero the percentage is undefined and reported as ``None``.
    """

    label: str
    old: float
    new: float
    percent_reduction: float | None
    sign_flipped: bool


def reduction_values(label: str, old: float, new: float) -> CoefficientChange:
    if old == 0.0:
        pct = None
    else:
        pct = (1.0 - new / old) * 100.0
    return CoefficientChange(
        label=label,
        old=old,
        new=new,
        percent_reduction=pct,
        sign_flipped=old * new < 0,
    )


@dataclass(frozen=True)
class ReductionReport:
    changes: tuple[CoefficientChange, ...]

    def __getitem__(self, label: str) -> CoefficientChange:
        for change in self.changes:
            if change.label == label:
                return change
        raise KeyError(label)


def reduction(
    old_fit: FitResult, new_fit: FitResult, labels: Sequence[str] = ("age", "age_sq")
) -> ReductionReport:
    """How much of each coefficient the added controls absorbed.

    ``old_fit`` is the baseline (e.g. no demographic controls) and
    ``new_fit`` the augmented model; both must contain every requested
    label.
    """
    changes = tuple(
        reduction_values(label, old_fit.coef(label), new_fit.coef(label))
        for label in labels
    )
    return ReductionReport(changes=changes)


@dataclass(frozen=True)
class DepthReport:
    """Extremes of an adjusted-means curve.

    ``max_bins``/``min_bins`` list every bin attaining the extreme, in
    curve order, so exact ties are visible rather than broken silently.
    """

    country: str
    max_level: float
    min_level: float
    difference: float
    max_bins: tuple[str, ...]
    min_bins: tuple[str, ...]


def depth(curve: AgeCurve) -> DepthReport:
    max_level = max(curve.levels)
    min_level = min(curve.levels)
    return DepthReport(
        country=curve.country,
        max_level=max_level,
        min_level=min_level,
        difference=max_level - min_level,
        max_bins=tuple(
            b for b, v in zip(curve.bin_labels, curve.levels) if v == max_level
        ),
        min_bins=tuple(
            b for b, v in zip(curve.bin_labels, curve.levels) if v == min_level
        ),
    )


def classify_curve(
    curve: AgeCurve,
    midlife_bins: Sequence[str] = MIDLIFE_BINS,
    rise_epsilon: float = RISE_EPSILON,
) -> ShapeVerdict:
    """Heuristic u-shape call on an adjusted-means curve.

    The curve is u-shaped when its minimum (first bin on ties) lies in
    ``midlife_bins`` and some later bin rises at least ``rise_epsilon``
    above the minimum. The fall from the first bin to the minimum is
    evidence only: the rule does not require one.
    """
    levels = curve.levels
    i_min = min(range(len(levels)), key=levels.__getitem__)
    min_bin = curve.bin_labels[i_min]
    min_level = levels[i_min]
    fall = levels[0] - min_level
    later = levels[i_min + 1 :]
    rise = (max(later) - min_level) if later else 0.0

    return ShapeVerdict(
        country=curve.country,
        rule="curve_heuristic",
        is_ushape=min_bin in midlife_bins and rise >= rise_epsilon,
        evidence={
            "min_bin": min_bin,
            "min_level": min_level,
            "first_level": levels[0],
            "fall_to_min": fall,
            "rise_after_min": rise,
            "rise_epsilon": rise_epsilon,
            "midlife_bins": tuple(midlife_bins),
        },
    )
