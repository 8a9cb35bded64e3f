"""Inlier-Outlier Propagation Score per predicate node, with ranked reports.

IOP(v) = (f_i(v) - f_o(v)) / f_in(v): +1 means a node's flow goes entirely
to the Inlier terminal, -1 entirely to the Outlier terminal, 0 neutral.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .dpg import LE, DpGraph, Predicate, predicate_label


def iop_score(f_i: float, f_o: float, f_in: float) -> float:
    """(f_i - f_o) / f_in, for terminal flows 0 <= f_i, f_o <= f_in.

    The result lies in [-1, 1] with no clamp: |f_i - f_o| <= max(f_i, f_o)
    <= f_in, and rounding is monotone, so neither the difference nor the
    quotient can round past those bounds. A pure node (f_i == f_in, f_o == 0
    or the reverse) gives exactly +1 or -1.
    """
    if f_in <= 0.0:
        raise ValueError(f"f_in must be positive, got {f_in}")
    if f_i < 0.0 or f_o < 0.0:
        raise ValueError("terminal flows must be non-negative")
    if max(f_i, f_o) > f_in:
        raise ValueError(f"terminal flow {max(f_i, f_o)} exceeds the inflow {f_in}")
    return (f_i - f_o) / f_in


@dataclass(frozen=True)
class IopEntry:
    predicate: Predicate
    iop: float
    f_i: float
    f_o: float
    f_in: float


@dataclass(frozen=True)
class IopReport:
    """Per-predicate scores, sorted by descending IOP (ties: feature, LE first)."""

    entries: tuple[IopEntry, ...]
    feature_names: list[str] | None = None

    def label(self, entry: IopEntry) -> str:
        return predicate_label(entry.predicate, self.feature_names)

    def by_predicate(self) -> dict[Predicate, IopEntry]:
        return {e.predicate: e for e in self.entries}


def score_graph(graph: DpGraph) -> IopReport:
    """Score every predicate node of the graph from its integer count sums.

    f_i = c_in[v, INLIER]*w_i, f_o = c_out[v, OUTLIER]*w_o and f_in =
    sum(c_in[:, v])*w_i + sum(c_out[:, v])*w_o, which counts the virtual
    source and self-loops. A terminal count is at most its node's inflow
    count, so f_i, f_o <= f_in holds after rounding too and `iop_score` needs
    no clamp; a node whose flow all ends in one class scores exactly +1 or -1.
    """
    w_i, w_o = graph.weights.w_i, graph.weights.w_o
    into_i, into_o = graph.c_in.sum(axis=0), graph.c_out.sum(axis=0)
    # The last two columns are the INLIER and OUTLIER terminals.
    entries = []
    for p in graph.predicates:
        v = graph.index(p)
        f_i = float(graph.c_in[v, -2] * w_i)
        f_o = float(graph.c_out[v, -1] * w_o)
        f_in = float(into_i[v] * w_i + into_o[v] * w_o)
        entries.append(
            IopEntry(predicate=p, iop=iop_score(f_i, f_o, f_in), f_i=f_i, f_o=f_o, f_in=f_in)
        )
    entries.sort(
        key=lambda e: (-e.iop, e.predicate.feature_index, 0 if e.predicate.sign == LE else 1)
    )
    names = graph.metadata.get("feature_names")
    return IopReport(entries=tuple(entries), feature_names=names)


def rank_report(report: IopReport, format: str = "table") -> str:
    """Render the report as an aligned text table or a JSON document.

    Table values are rounded to 4 decimals for display; the JSON form keeps
    full precision.
    """
    if format == "table":
        labels = [report.label(e) for e in report.entries]
        width = max([len("Predicate")] + [len(s) for s in labels])
        lines = [f"{'Predicate'.ljust(width)} | IOP-Score"]
        for label, e in zip(labels, report.entries):
            lines.append(f"{label.ljust(width)} | {e.iop:.4f}")
        return "\n".join(lines) + "\n"
    if format == "json":
        doc = {
            "schema_version": 1,
            "entries": [
                {
                    "feature": e.predicate.feature_index,
                    "sign": e.predicate.sign,
                    "label": report.label(e),
                    "iop": e.iop,
                    "f_i": e.f_i,
                    "f_o": e.f_o,
                    "f_in": e.f_in,
                }
                for e in report.entries
            ],
        }
        return json.dumps(doc, indent=2) + "\n"
    raise ValueError(f"unknown report format {format!r}")
