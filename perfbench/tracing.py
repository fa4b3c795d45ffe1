"""Spans around agecurve's public functions, recorded from outside the
package, and the per-layer metrics computed from them.

:class:`Tracer`, :func:`install` and :func:`span_cost` run inside a
benchmark pass: every public function of each layer module is wrapped
once, and the wrapper is bound at every module attribute that held the
original, so calls made through ``agecurve.models.apply_filter``,
``agecurve.cli.adjusted_means`` and the like are all recorded. A span is
``[name, parent, start, end, counts]`` with ``parent`` the index of the
enclosing span or -1. Spans stay in memory until the pass writes them
out.

The remaining functions are plain arithmetic on span lists.
"""

from __future__ import annotations

import functools
import inspect
import os
import statistics
import sys
import time

LAYERS = ("dataset", "design", "wls", "models", "shape", "simulate", "render", "cli")

# Called once per row inside build_design: a span per row would cost
# more than the work it times, so these run inside their caller's span.
PER_ROW = frozenset({"design.age_bin_label", "dataset.cohort_bin"})


def _fit_key(args, kwargs, _result):
    records = args[0] if args else kwargs["records"]
    spec = args[1] if len(args) > 1 else kwargs["spec"]
    country = args[2] if len(args) > 2 else kwargs.get("country")
    fingerprint = (getattr(spec, "name", repr(spec)), country, len(records), records[0], records[-1])
    return {"key": hash(fingerprint)}


def _text_bytes(_args, _kwargs, result):
    return {"bytes": len(result.encode("utf-8"))}


# What each traced call adds to its span, from its arguments and result.
COUNTERS = {
    "dataset.load_csv": lambda a, k, r: {"rows": r[1].rows_read, "kept": r[1].rows_kept},
    "dataset.apply_filter": lambda a, k, r: {"rows": r[1].n_in, "kept": r[1].n_kept},
    "design.build_design": lambda a, k, r: {"cells": int(r.values.shape[0] * r.values.shape[1])},
    "models.fit_spec": _fit_key,
    "models.batch_fit": lambda a, k, r: {"failures": sum(not res.ok for res in r)},
    "simulate.generate": lambda a, k, r: {"rows": len(r)},
    "render.write_csv": lambda a, k, r: {"bytes": os.path.getsize(a[0] if a else k["path"])},
    "render.svg_line_chart": _text_bytes,
    "render.format_table": _text_bytes,
}


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open: list[int] = []

    def wrap(self, name: str, func, count=None):
        spans, open_spans = self.spans, self._open

        @functools.wraps(func)
        def traced(*args, **kwargs):
            span = [name, open_spans[-1] if open_spans else -1, 0.0, 0.0, {}]
            open_spans.append(len(spans))
            spans.append(span)
            span[2] = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            except BaseException:
                span[3] = time.perf_counter()
                open_spans.pop()
                span[4]["failed"] = 1
                raise
            span[3] = time.perf_counter()
            open_spans.pop()
            if count is not None:
                try:
                    span[4].update(count(args, kwargs, result))
                except (AttributeError, IndexError, KeyError, TypeError, OSError):
                    span[4]["uncounted"] = 1
            return result

        return traced


def install(tracer: Tracer) -> None:
    """Wrap every public function of every layer module and rebind it
    wherever the package holds it."""
    wrappers = {}
    for layer in LAYERS:
        module = sys.modules[f"agecurve.{layer}"]
        for attr, obj in vars(module).items():
            name = f"{layer}.{attr}"
            if (
                inspect.isfunction(obj)
                and obj.__module__ == module.__name__
                and not attr.startswith("_")
                and name not in PER_ROW
            ):
                wrappers[obj] = tracer.wrap(name, obj, COUNTERS.get(name))
    for module_name, module in list(sys.modules.items()):
        if module_name == "agecurve" or module_name.startswith("agecurve."):
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(module, attr, wrappers[obj])


def span_cost(calls: int = 2000, repeats: int = 7) -> float:
    """Seconds the tracer adds to one call: the median over ``repeats``
    of the per-call difference between a wrapped and a bare no-op. The
    spans go to a throwaway tracer."""

    def noop():
        return None

    wrapped = Tracer().wrap("noop", noop)
    costs = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(calls):
            wrapped()
        t1 = time.perf_counter()
        for _ in range(calls):
            noop()
        t2 = time.perf_counter()
        costs.append(((t1 - t0) - (t2 - t1)) / calls)
    return statistics.median(costs)


# --- arithmetic on spans ---------------------------------------------------


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of its interval that its
    child spans cover (overlapping children are counted once)."""
    children: dict[int, list[int]] = {}
    for i, span in enumerate(spans):
        if span[1] >= 0:
            children.setdefault(span[1], []).append(i)
    out = []
    for i, (_, _, start, end, _) in enumerate(spans):
        covered, cursor = 0.0, start
        for c in sorted(children.get(i, ()), key=lambda c: spans[c][2]):
            lo, hi = max(spans[c][2], cursor), min(spans[c][3], end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(end - start - covered)
    return out


def _outermost(spans: list[list], match) -> list[int]:
    """Indices of matching spans with no matching ancestor, so nested
    calls of the same kind are not counted twice."""
    out = []
    for i, span in enumerate(spans):
        if not match(span[0]):
            continue
        parent = span[1]
        while parent >= 0 and not match(spans[parent][0]):
            parent = spans[parent][1]
        if parent < 0:
            out.append(i)
    return out


def _percentile_ms(durations: list[float], q: int) -> float:
    if not durations:
        return 0.0
    if len(durations) == 1:
        return durations[0] * 1e3
    return statistics.quantiles(durations, n=100, method="inclusive")[q - 1] * 1e3


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer metrics of one traced pass, keyed by metric name."""
    selfs = self_times(spans)
    by_name: dict[str, list[int]] = {}
    for i, span in enumerate(spans):
        by_name.setdefault(span[0], []).append(i)

    def idx(name: str) -> list[int]:
        return by_name.get(name, [])

    def calls(name: str) -> float:
        return float(len(idx(name)))

    def busy(name: str) -> float:
        return sum((spans[i][3] - spans[i][2] for i in _outermost(spans, lambda n: n == name)), 0.0)

    def total(name: str, key: str) -> float:
        return float(sum(spans[i][4].get(key, 0) for i in idx(name)))

    def durations(name: str) -> list[float]:
        return [spans[i][3] - spans[i][2] for i in idx(name)]

    m: dict[str, float] = {}
    m["dataset.load_csv.busy_s"] = busy("dataset.load_csv")
    m["dataset.load_csv.rows"] = total("dataset.load_csv", "rows")
    m["dataset.load_csv.kept_ratio"] = _ratio(total("dataset.load_csv", "kept"), m["dataset.load_csv.rows"])
    m["dataset.apply_filter.calls"] = calls("dataset.apply_filter")
    m["dataset.apply_filter.busy_s"] = busy("dataset.apply_filter")
    m["dataset.apply_filter.rows_in"] = total("dataset.apply_filter", "rows")
    m["dataset.apply_filter.kept_ratio"] = _ratio(total("dataset.apply_filter", "kept"), m["dataset.apply_filter.rows_in"])
    for name in ("design.build_design", "wls.fit_wls", "simulate.generate"):
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.busy_s"] = busy(name)
        m[f"{name}.p50_ms"] = _percentile_ms(durations(name), 50)
        m[f"{name}.p95_ms"] = _percentile_ms(durations(name), 95)
    m["design.build_design.cells"] = total("design.build_design", "cells")
    m["wls.fit_wls.failed"] = total("wls.fit_wls", "failed")
    m["simulate.generate.rows"] = total("simulate.generate", "rows")
    for name in ("experiment_mediator", "experiment_truncation", "experiment_attrition"):
        m[f"simulate.{name}.busy_s"] = busy(f"simulate.{name}")
    m["models.fit_spec.calls"] = calls("models.fit_spec")
    m["models.fit_spec.distinct"] = float(len({spans[i][4].get("key", i) for i in idx("models.fit_spec")}))
    m["models.fit_spec.distinct_ratio"] = _ratio(m["models.fit_spec.distinct"], m["models.fit_spec.calls"])
    m["models.adjusted_means.busy_s"] = busy("models.adjusted_means")
    m["models.batch_fit.busy_s"] = busy("models.batch_fit")
    m["models.country_failures"] = total("models.batch_fit", "failures") + total("models.adjusted_means", "failed")
    shape = _outermost(spans, lambda n: n.startswith("shape."))
    m["shape.calls"] = float(sum(1 for s in spans if s[0].startswith("shape.")))
    m["shape.busy_s"] = sum((spans[i][3] - spans[i][2] for i in shape), 0.0)
    m["render.write_csv.busy_s"] = busy("render.write_csv")
    m["render.svg_line_chart.busy_s"] = busy("render.svg_line_chart")
    m["render.bytes_out"] = sum(
        total(name, "bytes") for name in ("render.write_csv", "render.svg_line_chart", "render.format_table")
    )
    m["cli.main.busy_s"] = busy("cli.main")
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum((t for t, s in zip(selfs, spans) if s[0].split(".", 1)[0] == layer), 0.0)
    m["trace.spans"] = float(len(spans))
    m["trace.uncounted"] = float(sum(s[4].get("uncounted", 0) for s in spans))
    return m
