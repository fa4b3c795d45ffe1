"""Output rendering: CSV, aligned text tables, and standalone SVG charts.

Everything here is deterministic: rendering the same inputs twice yields
byte-identical output (no timestamps, no environment lookups), so runs
can be diffed.
"""

from __future__ import annotations

import csv
from itertools import chain
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

__all__ = ["write_csv", "write_columns", "read_csv", "format_table", "bin_midpoint", "svg_line_chart"]

# write_columns formats and writes this many rows at a time, so its memory is flat in rows.
_BLOCK_ROWS = 1024

_NUMBERS = (int, float, np.number, np.bool_)


def _columns(rows: Sequence[Sequence], width: int) -> list[tuple]:
    columns = list(zip(*rows, strict=True)) if rows else [()] * width
    if len(columns) != width:
        raise ValueError(f"rows of {len(columns)} cells under {width} column names")
    return columns


def _has_text(column: tuple) -> bool:
    """Whether a column holds a str or None; a cell that is neither of
    these nor a number raises TypeError."""
    kinds = [kind for kind in set(map(type, column)) if not issubclass(kind, _NUMBERS)]
    for kind in kinds:
        if kind is not type(None) and not issubclass(kind, str):
            raise TypeError(f"a table cell must be None, a str or a number, not {kind.__name__}")
    return bool(kinds)


def _csv_cells(column: Sequence) -> list[str]:
    if isinstance(column, np.ndarray):
        column = column.tolist()
    if not _has_text(column):
        return list(map(str, column))
    quoted = {s: '"%s"' % s.replace('"', '""') for s in set(column) if isinstance(s, str)}
    quoted[None] = '""'
    return [quoted[cell] if cell in quoted else str(cell) for cell in column]


def _text_cells(column: tuple, fmt: str) -> list[str]:
    if not _has_text(column):
        return list(map(fmt.__mod__, column))
    return ["" if c is None else c if isinstance(c, str) else fmt % c for c in column]


def write_columns(path: str | Path, header: Sequence[str], columns: Sequence[Sequence]) -> None:
    """Write a table given as its columns, lists or numpy arrays of one
    length, as :func:`write_csv` writes rows, :data:`_BLOCK_ROWS` rows at
    a time."""
    rows = len(columns[0]) if len(columns) else 0
    if len(columns) != len(header) or any(len(column) != rows for column in columns):
        raise ValueError(f"columns of {sorted(set(map(len, columns)))} cells under {len(header)} column names")
    blocks = ([column[i : i + _BLOCK_ROWS] for column in columns] for i in range(0, rows, _BLOCK_ROWS))
    with Path(path).open("w", newline="", encoding="utf-8") as handle:
        for block in chain([[[name] for name in header]], blocks):
            cells = [_csv_cells(column) for column in block]
            handle.write("\r\n".join(map(",".join, zip(*cells))) + "\r\n")


def write_csv(path: str | Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write rows with every string quoted (``"`` doubled) and numbers
    bare as ``str`` gives them, so numeric cells stay machine-readable
    after a round trip; ``None`` gives ``""``. Lines end in CRLF."""
    write_columns(path, header, _columns(list(rows), len(header)))


def read_csv(path: str | Path) -> tuple[list[str], list[list]]:
    """Inverse of :func:`write_csv`: numeric-looking cells come back as
    floats, empty cells as None, everything else as str. Lines starting
    with ``#`` are skipped."""
    with Path(path).open(newline="", encoding="utf-8") as handle:
        lines = [line for line in handle if not line.startswith("#")]
    reader = csv.reader(lines)
    header = next(reader)

    def convert(cell: str):
        if cell == "":
            return None
        try:
            return float(cell)
        except ValueError:
            return cell

    return header, [[convert(cell) for cell in row] for row in reader if row]


def format_table(
    header: Sequence[str],
    rows: Sequence[Sequence],
    formats: Sequence[str] | None = None,
) -> str:
    """Right-aligned plain-text table, two spaces between columns.

    ``formats`` gives one printf-style format per column for numeric
    cells (default ``"%g"``); strings pass through and None is blank.
    """
    if formats is None:
        formats = ["%g"] * len(header)
    if len(formats) != len(header):
        raise ValueError(f"{len(formats)} formats for {len(header)} columns")
    texts = [_text_cells(column, fmt) for column, fmt in zip(_columns(rows, len(header)), formats)]
    widths = [max(len(h), max(map(len, column), default=0)) for h, column in zip(header, texts)]
    line = "  ".join(f"%{w}s" for w in widths)
    lines = [line % tuple(header), "  ".join("-" * w for w in widths)]
    lines.extend(map(line.__mod__, zip(*texts)))
    return "\n".join(lines) + "\n"


def bin_midpoint(label: str) -> float:
    """Plot coordinate for an age-bin label: ``"45-54"`` -> 49.5,
    open-ended ``"85+"`` -> 90 (lower bound plus five)."""
    if label.endswith("+"):
        return float(label[:-1]) + 5.0
    low, high = label.split("-")
    return (float(low) + float(high)) / 2.0


_PALETTE = (
    "#4269d0", "#efb118", "#ff725c", "#6cc5b0", "#3ca951",
    "#ff8ab7", "#a463f2", "#97bbf5", "#9c6b4e", "#9498a0",
)


# Chart text is escaped, so that any title or name leaves the SVG well-formed XML.
_ESCAPES = str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;"})


def _ticks(low: float, high: float) -> list[float]:
    if high <= low:
        high = low + 1.0
    raw_step = (high - low) / 5  # about six ticks
    magnitude = 10.0 ** int(f"{raw_step:e}".split("e")[1])
    for mult in (1, 2, 2.5, 5, 10):
        step = mult * magnitude
        if step >= raw_step:
            break
    first = step * int(low / step)
    if first < low - 1e-9:
        first += step
    ticks = []
    value = first
    while value <= high + 1e-9:
        ticks.append(round(value, 10))
        value += step
    return ticks


def svg_line_chart(
    series: Sequence[tuple[str, Sequence[tuple[float, float]]]],
    *,
    title: str = "",
    y_range: tuple[float, float] | None = (0.0, 10.0),
) -> str:
    """Standalone SVG line chart of happiness by age.

    ``series`` is ``[(name, [(x, y), ...]), ...]``; each series becomes
    one polyline plus a legend entry. ``y_range`` defaults to the full
    0-10 happiness scale so charts from different countries are visually
    comparable; pass None to fit the data instead. ``&``, ``<`` and ``>``
    in the title and the names are escaped.
    """
    if not series:
        raise ValueError("chart needs at least one series")
    points = [pt for _, pts in series for pt in pts]
    if not points:
        raise ValueError("chart needs at least one data point")

    x_low = min(x for x, _ in points)
    x_high = max(x for x, _ in points)
    if x_high == x_low:
        x_low, x_high = x_low - 1.0, x_high + 1.0
    if y_range is None:
        y_low = min(y for _, y in points)
        y_high = max(y for _, y in points)
        pad = 0.05 * (y_high - y_low or 1.0)
        y_low, y_high = y_low - pad, y_high + pad
    else:
        y_low, y_high = y_range

    width, height = 900, 520
    margin_left, margin_right = 64, 180
    margin_top, margin_bottom = 48, 56
    plot_w = width - margin_left - margin_right
    plot_h = height - margin_top - margin_bottom

    def sx(x: float) -> float:
        return margin_left + plot_w * (x - x_low) / (x_high - x_low)

    def sy(y: float) -> float:
        return margin_top + plot_h * (1.0 - (y - y_low) / (y_high - y_low))

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    if title:
        out.append(
            f'<text x="{width / 2:.1f}" y="24" text-anchor="middle" '
            f'font-family="sans-serif" font-size="16">{title.translate(_ESCAPES)}</text>'
        )

    axis_style = 'stroke="#333" stroke-width="1"'
    out += [
        f'<line x1="{margin_left}" y1="{margin_top + plot_h}" '
        f'x2="{margin_left + plot_w}" y2="{margin_top + plot_h}" {axis_style}/>',
        f'<line x1="{margin_left}" y1="{margin_top}" '
        f'x2="{margin_left}" y2="{margin_top + plot_h}" {axis_style}/>',
    ]
    for tick in _ticks(y_low, y_high):
        y = sy(tick)
        out += [
            f'<line x1="{margin_left - 4}" y1="{y:.2f}" x2="{margin_left}" '
            f'y2="{y:.2f}" {axis_style}/>',
            f'<line x1="{margin_left}" y1="{y:.2f}" '
            f'x2="{margin_left + plot_w}" y2="{y:.2f}" '
            f'stroke="#ddd" stroke-width="0.5"/>',
            f'<text x="{margin_left - 8}" y="{y + 4:.2f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{tick:g}</text>',
        ]
    for tick in _ticks(x_low, x_high):
        x = sx(tick)
        out += [
            f'<line x1="{x:.2f}" y1="{margin_top + plot_h}" x2="{x:.2f}" '
            f'y2="{margin_top + plot_h + 4}" {axis_style}/>',
            f'<text x="{x:.2f}" y="{margin_top + plot_h + 18}" '
            f'text-anchor="middle" font-family="sans-serif" '
            f'font-size="11">{tick:g}</text>',
        ]
    out += [
        f'<text x="{margin_left + plot_w / 2:.1f}" y="{height - 12}" '
        f'text-anchor="middle" font-family="sans-serif" '
        'font-size="12">age</text>',
        f'<text x="16" y="{margin_top + plot_h / 2:.1f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12" '
        f'transform="rotate(-90 16 {margin_top + plot_h / 2:.1f})">happiness</text>',
    ]

    for k, (name, pts) in enumerate(series):
        color = _PALETTE[k % len(_PALETTE)]
        coords = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in pts)
        legend_y = margin_top + 16 * k
        out += [
            f'<polyline points="{coords}" fill="none" stroke="{color}" '
            f'stroke-width="1.8"/>',
            f'<line x1="{margin_left + plot_w + 12}" y1="{legend_y:.1f}" '
            f'x2="{margin_left + plot_w + 34}" y2="{legend_y:.1f}" '
            f'stroke="{color}" stroke-width="1.8"/>',
            f'<text x="{margin_left + plot_w + 40}" y="{legend_y + 4:.1f}" '
            f'font-family="sans-serif" font-size="11">{name.translate(_ESCAPES)}</text>',
        ]

    out.append("</svg>")
    return "\n".join(out) + "\n"
