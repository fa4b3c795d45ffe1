"""Seeded generator for the benchmark's survey files.

The files use the European Social Survey column names (``cntry``,
``essround``, ``agea``, ``happy``, ``dweight`` and the four control
codes), so the CLI reads them with ``--ess-columns``. The generator is
the benchmark's own: it never calls ``agecurve.simulate.generate``,
which is a measured layer, so a change to that layer cannot change the
inputs.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np

COLUMNS = (
    "cntry", "essround", "agea", "happy", "dweight",
    "gndr", "eisced", "maritalb", "mnactic",
)
CONTROL_COLUMNS = ("gndr", "eisced", "maritalb", "mnactic")

COUNTRIES = (
    "AT", "BE", "BG", "CH", "CY", "CZ", "DE", "DK", "EE", "ES",
    "FI", "FR", "GB", "GR", "HR", "HU", "IE", "IL", "IS", "IT",
    "LT", "LU", "NL", "NO", "PL", "PT", "RU", "SE", "SI", "SK",
)

# Code distributions of the control variables. Code 7 of ``mnactic``
# (community or military service) is rare, as in the survey.
_CODES = {
    "gndr": ((1, 2), (0.48, 0.52)),
    "eisced": ((1, 2, 3, 4, 5, 6, 7), (0.08, 0.14, 0.20, 0.24, 0.12, 0.12, 0.10)),
    "maritalb": ((1, 2, 3, 4, 5, 6), (0.46, 0.05, 0.03, 0.09, 0.08, 0.29)),
    "mnactic": ((1, 2, 3, 4, 5, 6, 7, 8, 9), (0.50, 0.09, 0.05, 0.02, 0.03, 0.20, 0.005, 0.08, 0.025)),
}
_EFFECTS = {
    "gndr": {2: 0.05},
    "eisced": {k: 0.06 * k for k in range(1, 8)},
    "maritalb": {1: 0.35, 2: 0.25, 4: -0.30, 5: -0.20},
    "mnactic": {3: -0.90, 4: -0.70, 5: -0.60, 6: 0.10},
}
_MISSING_TOKENS = ("", "NA")
ROUNDS = 8
# Share of each control column's cells left missing.
MISSING_SHARE = 0.03


def country_sizes(rows: int, n_countries: int, min_rows: int) -> list[int]:
    """Uneven country sizes (share of country ``i`` falls as
    ``1/(i+8)``), each at least ``min_rows``, summing to ``rows``."""
    if rows < n_countries * min_rows:
        raise ValueError(f"{rows} rows cannot give {n_countries} countries {min_rows} each")
    shares = 1.0 / (np.arange(n_countries) + 8.0)
    spare = rows - n_countries * min_rows
    sizes = [min_rows + int(spare * s / shares.sum()) for s in shares]
    sizes[0] += rows - sum(sizes)
    return sizes


def survey_csv(
    path: Path,
    seed: int,
    rows: int,
    n_countries: int,
    *,
    min_rows: int = 100,
) -> str:
    """Write one survey file and return its sha256.

    Ages run 15 to 90 over ``ROUNDS`` rounds, happiness is an integer
    0..10 with a mild u-shape in age, weights are positive with four
    decimals, and each control column has about ``MISSING_SHARE`` of its
    cells missing. Rows are
    shuffled, so country order in the file is by first appearance.
    """
    rng = np.random.default_rng([seed, rows, n_countries])
    sizes = country_sizes(rows, n_countries, min_rows)
    country_idx = np.repeat(np.arange(n_countries), sizes)
    country_effect = rng.normal(0.0, 0.6, size=n_countries)

    ages = 15 + np.floor(rng.beta(1.3, 1.5, size=rows) * 76).astype(np.int64)
    rnd = rng.integers(1, ROUNDS + 1, size=rows)
    happiness = (
        6.6
        + country_effect[country_idx]
        + 0.0009 * (ages - 50) ** 2
        - 0.03 * (rnd - 4)
        + rng.normal(0.0, 1.8, size=rows)
    )
    controls = {}
    for column in CONTROL_COLUMNS:
        codes, probs = _CODES[column]
        probs = np.asarray(probs) / np.sum(probs)
        values = rng.choice(np.asarray(codes), size=rows, p=probs)
        effects = _EFFECTS[column]
        happiness += np.array([effects.get(int(v), 0.0) for v in codes])[
            np.searchsorted(codes, values)
        ]
        missing = rng.random(rows) < MISSING_SHARE
        token = rng.integers(0, len(_MISSING_TOKENS), size=rows)
        controls[column] = [
            _MISSING_TOKENS[t] if m else str(v)
            for v, m, t in zip(values.tolist(), missing.tolist(), token.tolist())
        ]
    happy = np.clip(np.rint(happiness), 0, 10).astype(np.int64)
    weights = np.clip(rng.lognormal(0.0, 0.35, size=rows), 0.05, None)

    order = rng.permutation(rows)
    lines = [",".join(COLUMNS)]
    cntry = [COUNTRIES[i] for i in country_idx.tolist()]
    age_l, rnd_l, happy_l = ages.tolist(), rnd.tolist(), happy.tolist()
    weight_l = [f"{w:.4f}" for w in weights.tolist()]
    for i in order.tolist():
        lines.append(
            ",".join(
                (
                    cntry[i], str(rnd_l[i]), str(age_l[i]), str(happy_l[i]), weight_l[i],
                    *(controls[c][i] for c in CONTROL_COLUMNS),
                )
            )
        )
    data = ("\n".join(lines) + "\n").encode("utf-8")
    path.write_bytes(data)
    return hashlib.sha256(data).hexdigest()
