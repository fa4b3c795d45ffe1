"""Shared builders plus the acceptance-criteria summary section."""

from __future__ import annotations

import numpy as np
import pytest

from agecurve import DesignMatrix, Survey, save_csv


def synth_rows(
    n: int = 400,
    seed: int = 0,
    country: str = "A",
    rounds: tuple[int, ...] = (1, 2, 3, 4),
    age_low: int = 15,
    age_high: int = 90,
    happiness_fn=None,
    noise_sd: float = 1.0,
    weights: str = "unit",
    with_controls: bool = False,
) -> list[dict]:
    """Hand-rolled synthetic sample for unit tests, as rows for
    :meth:`Survey.from_rows` (the package's own generator is itself
    under test, so tests that exercise it cannot lean on it)."""
    rng = np.random.default_rng(seed)
    ages = rng.integers(age_low, age_high + 1, size=n)
    rnds = rng.choice(np.asarray(rounds), size=n)
    noise = rng.normal(0.0, noise_sd, size=n) if noise_sd > 0 else np.zeros(n)
    if happiness_fn is None:
        happiness_fn = lambda a: 7.0
    if weights == "unit":
        wvals = np.ones(n)
    else:
        wvals = rng.uniform(0.25, 3.0, size=n)
    rows = []
    for i in range(n):
        controls = {}
        if with_controls:
            controls = {
                "sex": ("female", "male")[int(rng.integers(0, 2))],
                "education": str(int(rng.integers(1, 6))),
                "marital": ("single", "married", "widowed")[int(rng.integers(0, 3))],
                "labor_status": ("employed", "retired", "other")[int(rng.integers(0, 3))],
            }
        rows.append(
            dict(
                country=country,
                round=int(rnds[i]),
                period_year=2000 + 2 * int(rnds[i]),
                age=int(ages[i]),
                happiness=float(happiness_fn(float(ages[i])) + noise[i]),
                weight=float(wvals[i]),
                **controls,
            )
        )
    return rows


def synth_survey(*parts: dict, **shared) -> Survey:
    """The :class:`Survey` of :func:`synth_rows` with ``shared``; given
    ``parts``, the rows of one call per part, its keywords over
    ``shared``, in order."""
    return Survey.from_rows(
        row for part in parts or ({},) for row in synth_rows(**{**shared, **part})
    )


def ushape(a):
    return 8.0 - 0.1 * a + 0.001 * a * a


# Keywords of synthetic countries that every preset can fit.
FITTABLE = dict(with_controls=True, happiness_fn=ushape, noise_sd=0.6)


def survey_file(path, *parts, **shared):
    """``path``, written by :func:`save_csv` with :func:`synth_survey`
    of the other arguments."""
    save_csv(synth_survey(*parts, **shared), path)
    return path


@pytest.fixture
def survey_csv(tmp_path):
    """A two-country survey file on which every preset can be fitted."""
    return survey_file(
        tmp_path / "survey.csv",
        dict(n=400, seed=101, country="AA"), dict(n=400, seed=102, country="BB"), **FITTABLE,
    )


def random_design(
    rng: np.random.Generator,
    max_n: int = 50,
    max_p: int = 5,
    integer_weights: bool = False,
    max_condition: float = 1e4,
) -> DesignMatrix:
    """Random well-conditioned WLS instance with an intercept column."""
    while True:
        p = int(rng.integers(1, max_p + 1))
        n = int(rng.integers(p + 3, max_n + 1))
        x = np.column_stack([np.ones(n), rng.normal(0.0, 1.0, size=(n, p - 1))])
        if integer_weights:
            w = rng.integers(1, 5, size=n).astype(float)
        else:
            w = rng.uniform(0.2, 3.0, size=n)
        if np.linalg.cond(x * np.sqrt(w)[:, None]) > max_condition:
            continue
        beta = rng.normal(0.0, 2.0, size=p)
        y = x @ beta + rng.normal(0.0, 1.0, size=n)
        labels = ["const", *[f"x{j}" for j in range(1, p)]]
        return DesignMatrix(x, labels, w, y)


# ---------------------------------------------------------------------------
# acceptance summary: one line per criterion at the end of the run

CRITERIA = {
    "test_c01_solver_matches_reference": (
        "1. WLS coefficients and SEs match the brute-force reference "
        "(500 instances, 1e-8 relative, < 5 s)"
    ),
    "test_c02_weights_equal_replication": (
        "2. integer-weighted fits equal replicated-row fits "
        "(100 instances, 1e-10 relative, < 2 s)"
    ),
    "test_c03_apc_rank_diagnostic": (
        "3. age/period/cohort design flagged rank-deficient with the "
        "involved columns named; any one removal restores full rank"
    ),
    "test_c04_detectors_reproduce_published_flags": (
        "4. detection rules over bundled tables: exactly 23 quadratic "
        "u-shapes, the 7 published failures, the 6 literal range-rule "
        "countries, Luxembourg discrepancy visible"
    ),
    "test_c05_depth_reproduces_published_differences": (
        "5. depth over the bundled level table matches every printed "
        "difference; 21-country mean within 0.44 +/- 0.02"
    ),
    "test_c06_reduction_percentages": (
        "6. reduction percentages: 81.9 / 85.8 at 1 dp; sign-flip pair "
        "reports > 100 percent with sign_flipped"
    ),
    "test_c07_mediator_experiment": (
        "7. mediator experiment: total within 3 MC SE of 0.50, direct "
        "within 3 MC SE of 0.00 (200 reps, < 60 s)"
    ),
    "test_c08_truncation_experiment": (
        "8. truncation experiment: capped curvature exceeds full-range "
        "curvature in >= 95% of 200 reps (< 60 s)"
    ),
    "test_c09_attrition_experiment": (
        "9. attrition experiment: late-bin inflation in >= 95% of reps "
        "at strength 0.5; within noise at strength 0 (< 60 s)"
    ),
    "test_c10_real_data_replication": (
        "10. real-survey replication (needs user-supplied data extract; "
        "skipped without it)"
    ),
}

_STATUS_LABEL = {
    "passed": "PASS",
    "failed": "FAIL",
    "error": "FAIL",
    "skipped": "SKIP",
}


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    status_by_name: dict[str, str] = {}
    for status in ("passed", "failed", "error", "skipped"):
        for report in terminalreporter.stats.get(status, []):
            nodeid = getattr(report, "nodeid", "")
            if "test_acceptance" not in nodeid:
                continue
            name = nodeid.split("::")[-1]
            if name not in status_by_name or status != "passed":
                status_by_name.setdefault(name, status)
    if not status_by_name:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for name, description in CRITERIA.items():
        status = status_by_name.get(name)
        label = _STATUS_LABEL.get(status, "NOT RUN")
        terminalreporter.write_line(f"[{label}] {description}")
