"""Compare the CLI's output files with the oracle's expectations.

Every check returns ``{unit: passed}``. A unit is one country x output
file for the survey commands and one experiment for ``simulate``.
Numbers must agree within the solver criterion's relative bound
(C01: 1e-8); verdicts and sign flags must agree exactly.
"""

from __future__ import annotations

import csv
import math
import xml.etree.ElementTree as ET
from pathlib import Path

RTOL = 1e-8
# Floor on the scale of a value, as a share of the largest magnitude in
# the same vector, so a coefficient that is nearly zero is compared on
# the scale of its fit and not on its own.
SCALE_FLOOR = 1e-6


def close(got: float, want: float, scale: float = 0.0) -> bool:
    if isinstance(got, str) or got is None:
        return False
    if math.isnan(want):
        return math.isnan(got)
    return abs(got - want) <= RTOL * max(abs(want), SCALE_FLOOR * scale)


def all_close(got, want) -> bool:
    if len(got) != len(want):
        return False
    finite = [abs(w) for w in want if not math.isnan(w)]
    scale = max(finite, default=0.0)
    return all(close(g, w, scale) for g, w in zip(got, want))


def read_rows(path: Path) -> tuple[list[str], list[list]]:
    """Header and rows of a table written with quoted strings and bare
    numbers: bare cells come back as floats, quoted ones as strings. A
    missing or malformed file reads as no rows."""
    try:
        with path.open(newline="", encoding="utf-8") as handle:
            reader = csv.reader(handle, quoting=csv.QUOTE_NONNUMERIC)
            header = [str(h) for h in next(reader)]
            return header, [row for row in reader if row]
    except (OSError, ValueError, StopIteration):
        return [], []


def _by_country(rows: list[list]) -> dict[str, list[list]]:
    grouped: dict[str, list[list]] = {}
    for row in rows:
        grouped.setdefault(str(row[0]), []).append(row)
    return grouped


def check_fit(path: Path, expect: dict, preset: str) -> dict[str, bool]:
    _, rows = read_rows(path)
    grouped = _by_country(rows)
    result = {}
    for country in expect["countries"]:
        fit = expect["fits"][country][preset]
        got = grouped.get(country, [])
        result[f"{country}|fit:{preset}"] = (
            [r[2] for r in got] == fit.labels
            and all(r[1] == preset for r in got)
            and all_close([r[3] for r in got], list(fit.coef))
            and all_close([r[4] for r in got], list(fit.se))
            and all(r[6] == fit.n and r[7] == fit.rank for r in got)
        )
    return result


def check_reductions(path: Path, expect: dict) -> dict[str, bool]:
    _, rows = read_rows(path)
    grouped = _by_country(rows)
    result = {}
    for country in expect["countries"]:
        want = expect["reductions"][country]
        got = {str(r[1]): r for r in grouped.get(country, [])}
        ok = set(got) == set(want)
        for label, (old, new) in want.items():
            if not ok:
                break
            row = got[label]
            ok = (
                all_close([row[2], row[3]], [old, new])
                and close(row[4], (1.0 - new / old) * 100.0)
                and row[5] == ("yes" if old * new < 0 else "no")
            )
        result[f"{country}|reductions"] = ok
    return result


def check_detect(path: Path, expect: dict, rule: str) -> dict[str, bool]:
    _, rows = read_rows(path)
    got = {str(r[0]): (r[1], r[2]) for r in rows}
    return {
        f"{country}|detect:{rule}": got.get(country)
        == (rule, "yes" if expect["detect"][country][rule] else "no")
        for country in expect["countries"]
    }


def check_curves(path: Path, expect: dict) -> dict[str, bool]:
    """The header holds every bin of the scheme; a bin a country has no
    level for must be an empty cell."""
    header, rows = read_rows(path)
    bins = header[1:-3]
    got = {str(r[0]): r for r in rows}
    result = {}
    for country in expect["countries"]:
        levels = expect["curves"][country]
        row = got.get(country)
        ok = row is not None and len(row) == len(header) and [b for b in bins if b in levels] == list(levels)
        if ok:
            cells = dict(zip(bins, row[1:-3]))
            values = list(levels.values())
            high, low = max(values), min(values)
            ok = all(cells[b] == "" for b in bins if b not in levels) and all_close(
                [cells[b] for b in levels] + row[-3:], values + [high, low, high - low]
            )
        result[f"{country}|curves"] = ok
    return result


def check_svg(path: Path, expect: dict) -> dict[str, bool]:
    """One polyline per country, in country order, with one point per
    curve bin, and the country named in the legend."""
    countries = expect["countries"]
    try:
        root = ET.parse(path).getroot()
    except (OSError, ET.ParseError):
        return {f"{c}|svg": False for c in countries}
    ns = "{http://www.w3.org/2000/svg}"
    lines = [el.get("points", "").split() for el in root.iter(f"{ns}polyline")]
    legend = {el.text for el in root.iter(f"{ns}text")}
    return {
        f"{c}|svg": i < len(lines)
        and len(lines[i]) == len(expect["curves"][c])
        and c in legend
        for i, c in enumerate(countries)
    }


def check_simulation(out_dir: Path, name: str, expect: dict, exit_code: int) -> bool:
    """Estimates and seeds match the oracle, the run passed its own
    hypothesis checks, and it exited 0."""
    try:
        # plain reader: seeds are 64-bit integers that a float would round
        with (out_dir / f"simulate_{name}.csv").open(newline="", encoding="utf-8") as handle:
            header, *rows = list(csv.reader(handle))
        summary = (out_dir / f"simulate_{name}.txt").read_text(encoding="utf-8")
        keys = list(expect["estimates"])
        if header != ["replicate", "seed", *keys] or len(rows) != len(expect["seeds"]):
            return False
        if [int(r[1]) for r in rows] != expect["seeds"]:
            return False
        for j, key in enumerate(keys):
            if not all_close([float(r[2 + j]) for r in rows], list(expect["estimates"][key])):
                return False
    except (OSError, ValueError, IndexError):
        return False
    return exit_code == 0 and expect["passed"] and summary.rstrip().endswith("overall: PASS")
