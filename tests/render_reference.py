"""The per-cell reference writers: agecurve's ``write_csv`` (one
``csv.writer`` row per table row) and ``format_table`` (one format call
per cell) as they were before the columnar writers, kept verbatim so
that ``test_render_equivalence.py`` can check the columnar writers
against them byte for byte. Only the imports differ.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Iterable, Sequence


def write_csv(path: str | Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write rows with quoted strings and bare numbers (numeric cells stay
    machine-readable after a round trip). ``None`` becomes an empty cell."""
    with Path(path).open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, quoting=csv.QUOTE_NONNUMERIC)
        writer.writerow(list(header))
        for row in rows:
            writer.writerow(["" if cell is None else cell for cell in row])


def format_table(
    header: Sequence[str],
    rows: Sequence[Sequence],
    formats: Sequence[str] | None = None,
) -> str:
    """Right-aligned plain-text table.

    ``formats`` gives one printf-style format per column for non-string
    cells (default ``"%g"``); strings and None pass through.
    """
    if formats is None:
        formats = ["%g"] * len(header)
    if len(formats) != len(header):
        raise ValueError(f"{len(formats)} formats for {len(header)} columns")

    def render(cell, fmt: str) -> str:
        if cell is None:
            return ""
        if isinstance(cell, str):
            return cell
        return fmt % cell

    text_rows = [[render(c, f) for c, f in zip(row, formats)] for row in rows]
    widths = [
        max(len(header[j]), *(len(r[j]) for r in text_rows)) if text_rows else len(header[j])
        for j in range(len(header))
    ]
    lines = ["  ".join(h.rjust(w) for h, w in zip(header, widths))]
    lines.append("  ".join("-" * w for w in widths))
    for row in text_rows:
        lines.append("  ".join(c.rjust(w) for c, w in zip(row, widths)))
    return "\n".join(lines) + "\n"
