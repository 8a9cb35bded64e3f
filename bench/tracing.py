"""Spans around the public functions the iforest-dpg CLI calls.

The package is not changed: `install` rebinds public names in the
`iforest_dpg.cli` and `iforest_dpg.io` module namespaces, and
`ForestModel.flat_trees`, to wrappers that record one span per call. A span
is named `<module>.<qualname>` after the function it wraps, with the
`iforest_dpg.` prefix dropped, and records its start, end, parent span and
operation id. Spans stay in memory until the job writes them out. A name that
a later version of the package no longer has is reported as absent.
Private functions are not wrapped.
"""

from __future__ import annotations

import functools
import importlib
import time
from typing import Any, Callable

# (module namespace to rebind, public name).
REBOUND = (
    ("iforest_dpg.cli", "fit"),
    ("iforest_dpg.cli", "build_model_graph"),
    ("iforest_dpg.cli", "score_graph"),
    ("iforest_dpg.cli", "score_samples"),
    ("iforest_dpg.cli", "label_scores"),
    ("iforest_dpg.cli", "read_csv"),
    ("iforest_dpg.cli", "load_model"),
    ("iforest_dpg.cli", "write_explanation_bundle"),
    ("iforest_dpg.cli", "rank_report"),
    ("iforest_dpg.cli", "fixture_one"),
    ("iforest_dpg.io", "model_to_dict"),
    ("iforest_dpg.io", "model_from_dict"),
    ("iforest_dpg.io", "graph_to_dict"),
    ("iforest_dpg.io", "export_dot"),
    ("iforest_dpg.io", "rank_report"),
)
REBOUND_METHODS = (("iforest_dpg.forest", "ForestModel", "flat_trees"),)

ROOT = "cli.main"


def span_name(fn: Callable) -> str:
    return f"{fn.__module__.removeprefix('iforest_dpg.')}.{fn.__qualname__}"


class Tracer:
    """Records spans of one synchronous job; spans nest by call stack."""

    def __init__(self) -> None:
        self.spans: list[dict[str, Any]] = []
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []
        self._op: Any = None

    def wrap(self, fn: Callable) -> Callable:
        name = span_name(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if name == "synth.fixture_one":
                # On `repro` one fixture seed is one operation; the spans that
                # follow belong to it until the next fixture is drawn.
                self._op = kwargs.get("seed", args[0] if args else None)
            span = {
                "name": name,
                "parent": self._stack[-1] if self._stack else None,
                "op": self._op,
                "start": time.perf_counter(),
                "end": None,
            }
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if name == "dpg.build_model_graph":
                self._count_graph(result)
            return result

        return traced

    def _count_graph(self, graph: Any) -> None:
        meta = getattr(graph, "metadata", None) or {}
        for key, value in (
            ("dpg.traces_total", meta.get("traces_total", 0)),
            ("dpg.traces_pruned", meta.get("traces_pruned", 0)),
            ("dpg.edges", len(getattr(graph, "edges", ()))),
            ("dpg.predicates", len(getattr(graph, "predicates", ()))),
        ):
            self.counts[key] = self.counts.get(key, 0) + value


def install(tracer: Tracer) -> list[str]:
    """Rebind every traced name; return the names this version lacks."""
    absent = []
    for module_name, attr in REBOUND:
        module = importlib.import_module(module_name)
        fn = getattr(module, attr, None)
        if callable(fn):
            setattr(module, attr, tracer.wrap(fn))
        else:
            absent.append(f"{module_name}.{attr}")
    for module_name, cls_name, attr in REBOUND_METHODS:
        cls = getattr(importlib.import_module(module_name), cls_name, None)
        fn = getattr(cls, attr, None)
        if callable(fn):
            setattr(cls, attr, tracer.wrap(fn))
        else:
            absent.append(f"{module_name}.{cls_name}.{attr}")
    return absent


def self_times(spans: list[dict[str, Any]]) -> dict[str, tuple[float, int]]:
    """Per span name: summed self seconds and call count.

    Self time is a span's duration minus the durations of its children; the
    program is single-threaded, so children never overlap.
    """
    child_s = [0.0] * len(spans)
    for span in spans:
        if span["parent"] is not None:
            child_s[span["parent"]] += span["end"] - span["start"]
    out: dict[str, tuple[float, int]] = {}
    for span, inner in zip(spans, child_s):
        self_s, calls = out.get(span["name"], (0.0, 0))
        out[span["name"]] = (self_s + span["end"] - span["start"] - inner, calls + 1)
    return out
