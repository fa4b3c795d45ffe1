"""Independent expected outputs for the benchmark's correctness check.

Nothing here imports ``agecurve``: designs are built with plain numpy
from the documented model presets, solved with ``numpy.linalg.lstsq``
(an SVD, not the package's pivoted QR), and the Monte Carlo samples are
redrawn from the package's documented reproducibility contract (seed
derivation, draw order, attrition stream). A change to any measured
layer therefore cannot also change what its outputs are compared with.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# --- model presets, as documented in README "Model presets" -------------

FINE_BINS = (
    ("15-24", 15), ("25-34", 25), ("35-44", 35), ("45-54", 45),
    ("55-64", 55), ("65-74", 65), ("75-84", 75), ("85+", 85),
)
COARSE_BINS = (("15-34", 15), ("35-59", 35), ("60-74", 60), ("75+", 75))
REFERENCE_BIN = {"fine": "35-44", "coarse": "35-59"}
CONTROLS = ("sex", "education", "marital", "labor_status")
ESS_CONTROL_COLUMNS = {"sex": "gndr", "education": "eisced", "marital": "maritalb", "labor_status": "mnactic"}
MISSING = {"", "NA", "NaN", "nan", "na", "."}

# (form, scheme, controls, age_cap, cohort)
PRESETS = {
    "quad-controls-cap": ("quadratic", None, True, 69, False),
    "quad-nocontrols-cap": ("quadratic", None, False, 69, False),
    "quad-nocontrols-nocap": ("quadratic", None, False, None, False),
    "quad-controls-nocap": ("quadratic", None, True, None, False),
    "ranges-coarse": ("ranges", "coarse", False, None, True),
    "ranges-fine": ("ranges", "fine", False, None, True),
}
QUAD_BATTERY = ("quad-controls-cap", "quad-nocontrols-cap", "quad-nocontrols-nocap", "quad-controls-nocap")

QUAD_T = 1.5
RANGE_T = 1.0
MIDLIFE_BINS = ("35-44", "45-54", "55-64")
RISE_EPSILON = 0.10


class Unidentified(ValueError):
    """A reference design is rank deficient, so the package would
    rightly refuse the fit."""


@dataclass
class Fit:
    labels: list[str]
    coef: np.ndarray
    se: np.ndarray
    n: int
    rank: int
    col_means: np.ndarray

    def __getitem__(self, label: str) -> float:
        return float(self.coef[self.labels.index(label)])

    def t(self, label: str) -> float:
        j = self.labels.index(label)
        return abs(float(self.coef[j])) / float(self.se[j])


def wls(x: np.ndarray, y: np.ndarray, w: np.ndarray, labels: list[str]) -> Fit:
    """Weighted least squares with classical standard errors, by SVD."""
    sw = np.sqrt(w)
    xs = x * sw[:, None]
    beta, _, rank, sv = np.linalg.lstsq(xs, y * sw, rcond=None)
    n, p = x.shape
    if rank < p:
        raise Unidentified(f"reference design is rank deficient ({rank} of {p})")
    resid = y - x @ beta
    sigma2 = float(np.sum(w * resid**2)) / (n - p)
    _, _, vt = np.linalg.svd(xs, full_matrices=False)
    xtx_inv_diag = np.sum((vt.T / sv) ** 2, axis=1)
    return Fit(labels, beta, np.sqrt(sigma2 * xtx_inv_diag), n, p, w @ x / w.sum())


def _dummies(codes: np.ndarray, levels: list, reference, prefix: str, sep: str):
    cols = [(codes == lvl).astype(np.float64) for lvl in levels if lvl != reference]
    labels = [f"{prefix}{sep}{lvl}" for lvl in levels if lvl != reference]
    return cols, labels


def _level_key(level: str):
    try:
        return (0, float(level), "")
    except ValueError:
        return (1, 0.0, level)


def design(data: dict, rows: np.ndarray, preset: str) -> tuple[np.ndarray, list[str]]:
    """Design matrix of one preset on the selected rows, columns in the
    package's documented order and labels."""
    form, scheme, controls, _, cohort = PRESETS[preset]
    age = data["age"][rows].astype(np.float64)
    year = data["year"][rows]
    cols, labels = [np.ones(rows.size)], ["const"]
    if form == "quadratic":
        cols += [age, age**2]
        labels += ["age", "age_sq"]
    else:
        bins = FINE_BINS if scheme == "fine" else COARSE_BINS
        idx = np.searchsorted([low for _, low in bins], data["age"][rows], side="right") - 1
        names = np.array([name for name, _ in bins])[idx]
        observed = [name for name, _ in bins if name in set(names.tolist())]
        c, l = _dummies(names, observed, REFERENCE_BIN[scheme], "bin", ":")
        cols += c
        labels += l
    years = sorted(set(year.tolist()))
    c, l = _dummies(year, years, years[0], "period", ":")
    cols += c
    labels += l
    if cohort:
        start = ((year - data["age"][rows]) // 5) * 5
        starts = sorted(set(start.tolist()))
        c, _ = _dummies(start, starts, starts[0], "cohort", ":")
        cols += c
        labels += [f"cohort:{s}-{s + 4}" for s in starts[1:]]
    if controls:
        for name in CONTROLS:
            values = data[name][rows]
            levels = sorted(set(values.tolist()), key=_level_key)
            c, l = _dummies(values, levels, levels[0], name, "=")
            cols += c
            labels += l
    return np.column_stack(cols), labels


def read_survey(path: Path) -> dict:
    """The survey file as arrays; missing control cells become None."""
    with path.open(newline="", encoding="utf-8") as handle:
        rows = list(csv.DictReader(handle))
    data = {
        "country": np.array([r["cntry"] for r in rows]),
        "age": np.array([int(r["agea"]) for r in rows]),
        "year": np.array([2000 + 2 * int(r["essround"]) for r in rows]),
        "happiness": np.array([float(r["happy"]) for r in rows]),
        "weight": np.array([float(r["dweight"]) for r in rows]),
    }
    for name, column in ESS_CONTROL_COLUMNS.items():
        data[name] = np.array(
            [None if r[column].strip() in MISSING else r[column].strip() for r in rows],
            dtype=object,
        )
    data["countries"] = list(dict.fromkeys(data["country"].tolist()))
    return data


def fit_preset(data: dict, country: str, preset: str) -> Fit:
    _, _, controls, cap, _ = PRESETS[preset]
    keep = data["country"] == country
    if cap is not None:
        keep &= data["age"] <= cap
    if controls:
        for name in CONTROLS:
            keep &= np.array([v is not None for v in data[name]])
    rows = np.flatnonzero(keep)
    x, labels = design(data, rows, preset)
    return wls(x, data["happiness"][rows], data["weight"][rows], labels)


def curve_levels(fit: Fit, scheme: str = "fine") -> dict[str, float]:
    """Adjusted level per age bin: intercept plus the weighted-mean
    contribution of every non-age column, plus the bin's coefficient."""
    context = [
        j for j, label in enumerate(fit.labels)
        if label not in ("const", "age", "age_sq") and not label.startswith("bin:")
    ]
    base = fit["const"] + float(fit.col_means[context] @ fit.coef[context])
    bins = FINE_BINS if scheme == "fine" else COARSE_BINS
    levels = {}
    for name, _ in bins:
        if name == REFERENCE_BIN[scheme]:
            levels[name] = base
        elif f"bin:{name}" in fit.labels:
            levels[name] = base + fit[f"bin:{name}"]
    return levels


def curve_is_ushape(levels: list[float], bins: list[str]) -> bool:
    """The curve heuristic: the first minimum lies in midlife and a later
    bin rises at least ``RISE_EPSILON`` above it. (Its "real fall or flat
    start" clause, ``fall >= eps or fall <= eps``, holds for every curve.)"""
    i_min = min(range(len(levels)), key=levels.__getitem__)
    later = levels[i_min + 1:]
    rise = (max(later) - levels[i_min]) if later else 0.0
    return bins[i_min] in MIDLIFE_BINS and rise >= RISE_EPSILON


def survey_expectations(data: dict, presets: tuple[str, ...], curves: bool, detect: bool) -> dict:
    """Expected fits, curves, reductions and verdicts per country."""
    out: dict = {"countries": data["countries"], "fits": {}, "curves": {}, "reductions": {}, "detect": {}}
    for country in data["countries"]:
        fits = {preset: fit_preset(data, country, preset) for preset in presets}
        out["fits"][country] = fits
        if curves or detect:
            levels = curve_levels(fit_preset(data, country, "ranges-fine"))
            out["curves"][country] = levels
        if detect:
            bare, controlled = fits["quad-nocontrols-nocap"], fits["quad-controls-cap"]
            out["reductions"][country] = {
                label: (controlled[label], bare[label]) for label in ("age", "age_sq")
            }
            coarse = fit_preset(data, country, "ranges-coarse")
            out["detect"][country] = {
                "quad_t15": bare["age"] < 0 < bare["age_sq"]
                and bare.t("age") > QUAD_T and bare.t("age_sq") > QUAD_T,
                "range_t1": coarse["bin:15-34"] > 0 and coarse["bin:60-74"] > 0
                and coarse.t("bin:15-34") > RANGE_T and coarse.t("bin:60-74") > RANGE_T,
                "curve_heuristic": curve_is_ushape(list(levels.values()), list(levels)),
            }
    return out


# --- Monte Carlo experiments ---------------------------------------------

ROUNDS = np.arange(1, 9, dtype=np.int64)
S_SHAPE = (-0.3375, 0.006, -1.0 / 30000.0)


def replicate_seed(master: int, index: int) -> int:
    sequence = np.random.SeedSequence(master, spawn_key=(index,))
    return int(sequence.generate_state(1, dtype=np.uint64)[0])


def draw(seed: int, experiment: str, strength: float = 0.0, n: int = 5000) -> dict:
    """One synthetic sample under the default configuration of an
    experiment, redrawn from the documented stream layout."""
    base, attrition = np.random.SeedSequence(seed).spawn(2)
    rng = np.random.default_rng(base)
    age = rng.integers(15, 91, size=n)
    rnd = rng.choice(ROUNDS, size=n)
    noise = rng.normal(0.0, 1.0, size=n)
    a = age.astype(np.float64)
    sample = {"age": age, "year": 2000 + 2 * rnd}
    if experiment == "mediator":
        med_noise = rng.normal(0.0, 1.0, size=n)
        sample["mediator"] = 0.5 * age + med_noise
        sample["happiness"] = 7.0 + 0.5 * a + noise + med_noise
        return sample
    lin, sq, cub = S_SHAPE
    sample["happiness"] = 9.0 + (lin * a + sq * a**2 + cub * a**3) + noise
    if strength > 0.0:
        u = np.random.default_rng(attrition).random(n)
        keep = ~((age > 75) & (noise < 0.0) & (u < strength))
        sample = {k: v[keep] for k, v in sample.items()}
    return sample


def _sample_fit(sample: dict, rows: np.ndarray, preset: str) -> Fit:
    x, labels = design(sample, rows, preset)
    return wls(x, sample["happiness"][rows], np.ones(rows.size), labels)


def _linear_design(sample: dict, rows: np.ndarray) -> tuple[np.ndarray, list[str]]:
    x, labels = design(sample, rows, "quad-nocontrols-nocap")
    keep = [j for j, label in enumerate(labels) if label != "age_sq"]
    return x[:, keep], [labels[j] for j in keep]


def experiment(name: str, master: int, reps: int, strength: float = 0.0) -> dict:
    """Per-replicate estimates (in the CLI's column order), seeds, the
    expected overall verdict, and the size of every sample drawn."""
    seeds = [replicate_seed(master, i) for i in range(reps)]
    series: dict[str, list[float]] = {}
    sizes: list[int] = []

    def put(key: str, value: float) -> None:
        series.setdefault(key, []).append(value)

    for seed in seeds:
        sizes.append(5000)
        if name == "mediator":
            s = draw(seed, "mediator")
            rows = np.arange(s["age"].size)
            x, labels = _linear_design(s, rows)
            total = wls(x, s["happiness"], np.ones(rows.size), labels)
            both = wls(np.column_stack([x, s["mediator"]]), s["happiness"], np.ones(rows.size), labels + ["mediator"])
            put("total_age_slope", total["age"])
            put("direct_age_slope", both["age"])
            put("mediator_coef", both["mediator"])
        elif name == "truncation":
            s = draw(seed, "truncation")
            full = _sample_fit(s, np.arange(s["age"].size), "quad-nocontrols-nocap")
            capped = _sample_fit(s, np.flatnonzero(s["age"] <= 69), "quad-nocontrols-nocap")
            put("full_age_sq", full["age_sq"])
            put("capped_age_sq", capped["age_sq"])
            put("full_age", full["age"])
            put("capped_age", capped["age"])
        else:
            full_s = draw(seed, "attrition", 0.0)
            att_s = draw(seed, "attrition", strength)
            sizes.append(att_s["age"].size)
            full = curve_levels(_sample_fit(full_s, np.arange(full_s["age"].size), "ranges-fine"))
            att = curve_levels(_sample_fit(att_s, np.arange(att_s["age"].size), "ranges-fine"))
            for label in ("75-84", "85+"):
                put(f"inflation:{label}", att[label] - full[label] if label in full and label in att else float("nan"))

    arrays = {k: np.asarray(v) for k, v in series.items()}
    return {
        "seeds": seeds,
        "estimates": arrays,
        "passed": _passes(name, arrays, reps, strength),
        "rows": sizes,
    }


def _within_3se(values: np.ndarray, target: float, reps: int) -> bool:
    return abs(float(np.mean(values)) - target) <= 3.0 * float(np.std(values, ddof=1)) / np.sqrt(reps)


def _passes(name: str, est: dict, reps: int, strength: float) -> bool:
    if name == "mediator":
        return _within_3se(est["total_age_slope"], 0.5, reps) and _within_3se(est["direct_age_slope"], 0.0, reps)
    if name == "truncation":
        return float(np.mean(est["capped_age_sq"] > est["full_age_sq"])) >= 0.95
    for values in est.values():
        finite = values[np.isfinite(values)]
        if finite.size != reps:
            return False
        if strength > 0:
            if float(np.mean(finite > 0)) < 0.95:
                return False
        elif finite.size > 1 and not abs(float(np.mean(finite))) <= 3.0 * float(np.std(finite, ddof=1)) / np.sqrt(reps):
            return False
    return True
