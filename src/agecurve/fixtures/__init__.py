"""Bundled reference tables.

Four CSV files of published estimates for European countries (survey
rounds 1-8), used as regression targets by the detection rules and as
demo input for the CLI. Comment lines in the files explain provenance;
none of the numbers are produced by this package.
"""

from __future__ import annotations

from ..render import read_csv

FIXTURE_NAMES = ("table1", "table2", "table3", "table4")

Row = dict[str, "str | float | None"]


def load(name: str) -> list[Row]:
    """Rows of one bundled table as dicts; numeric cells become floats,
    empty cells become None. ``name`` is one of :data:`FIXTURE_NAMES`."""
    if name not in FIXTURE_NAMES:
        raise KeyError(f"unknown fixture {name!r}; known: {list(FIXTURE_NAMES)}")
    # imported here, not at startup: only a command that reads a table needs it
    from importlib import resources

    with resources.as_file(resources.files(__name__) / f"{name}.csv") as path:
        header, rows = read_csv(path)
    return [dict(zip(header, row)) for row in rows]


def table1() -> list[Row]:
    """Germany quadratic battery: published coefficients per model."""
    return load("table1")


def table2() -> list[Row]:
    """Per-country bare quadratics with published u-shape flags and
    coefficient reductions."""
    return load("table2")


def table3() -> list[Row]:
    """Per-country coarse-range estimates with published u-shape flags."""
    return load("table3")


def table4() -> list[Row]:
    """Per-country adjusted levels per fine age range with published
    extremes."""
    return load("table4")
