"""File formats: CSV ingestion/emission, JSON persistence, DOT export, bundles.

All JSON documents carry a top-level schema_version. Floats are written with
Python's shortest round-trip repr, so every persisted real value reloads
bit-exactly. DOT output is one statement per line with LF endings and is a
pure function of its inputs.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import platform
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

from . import __version__
from .dpg import (
    INLIER_ID,
    LE,
    OUTLIER_ID,
    SOURCE_ID,
    DpGraph,
    node_sort_key,
    predicate_id,
    predicate_label,
)
from .forest import (
    Contamination,
    Dataset,
    ForestModel,
    ForestParams,
    Internal,
    Leaf,
    ScoreThreshold,
    TreeNode,
    _rule_to_dict,
)
from .metrics import IopReport, rank_report

SCHEMA_VERSION = 1

_OUTLIER_TOKENS = {"o", "outlier", "1"}
_INLIER_TOKENS = {"n", "inlier", "0"}


# ---------------------------------------------------------------------------
# CSV


def _parse_label(token: str, row_number: int) -> str:
    low = token.strip().lower()
    if low in _OUTLIER_TOKENS:
        return "Outlier"
    if low in _INLIER_TOKENS:
        return "Inlier"
    raise ValueError(f"unknown label token {token!r} at row {row_number}")


def read_csv(
    path: str | Path,
    has_header: bool = True,
    label_column: str | int | None = None,
) -> Dataset:
    """Load a numeric CSV, optionally peeling off one label column.

    Label tokens map case-insensitively: o/outlier/1 to Outlier and
    n/inlier/0 to Inlier. Row numbers in error messages are 1-based file
    rows, counting the header.
    """
    path = Path(path)
    with open(path, newline="", encoding="utf-8-sig") as fh:
        rows = [(i + 1, row) for i, row in enumerate(csv.reader(fh)) if row]
    if not rows:
        raise ValueError(f"empty CSV file: {path}")

    header: list[str] | None = None
    if has_header:
        header = [cell.strip() for cell in rows[0][1]]
        rows = rows[1:]
        if not rows:
            raise ValueError(f"no data rows in CSV file: {path}")

    width = len(rows[0][1])
    for row_number, row in rows:
        if len(row) != width:
            raise ValueError(
                f"ragged CSV row at row {row_number}: "
                f"expected {width} fields, got {len(row)}"
            )
    if header is not None and len(header) != width:
        raise ValueError(
            f"header has {len(header)} fields but data rows have {width}"
        )

    label_idx: int | None = None
    if label_column is not None:
        if isinstance(label_column, str):
            if header is None:
                raise ValueError(
                    "label_column by name requires has_header=True"
                )
            if label_column not in header:
                raise ValueError(
                    f"label column {label_column!r} not found in header {header}"
                )
            label_idx = header.index(label_column)
        else:
            label_idx = int(label_column)
            if not 0 <= label_idx < width:
                raise ValueError(
                    f"label column index {label_idx} out of range for {width} columns"
                )
    if width - (0 if label_idx is None else 1) == 0:
        raise ValueError(f"no numeric columns in CSV file: {path}")

    feature_cols = [j for j in range(width) if j != label_idx]
    if header is not None:
        names = [header[j] for j in feature_cols]
    else:
        names = [f"F{k}" for k in range(len(feature_cols))]

    features = np.empty((len(rows), len(feature_cols)), dtype=np.float64)
    labels: list[str] | None = [] if label_idx is not None else None
    for r, (row_number, row) in enumerate(rows):
        for k, j in enumerate(feature_cols):
            token = row[j].strip()
            try:
                value = float(token)
            except ValueError:
                raise ValueError(
                    f"non-numeric value {row[j]!r} at row {row_number}, "
                    f"column {names[k]!r}"
                ) from None
            if not math.isfinite(value):
                raise ValueError(
                    f"non-finite value {row[j]!r} at row {row_number}, "
                    f"column {names[k]!r}"
                )
            features[r, k] = value
        if labels is not None:
            labels.append(_parse_label(row[label_idx], row_number))

    label_array = np.asarray(labels, dtype="<U7") if labels is not None else None
    return Dataset(features=features, feature_names=names, labels=label_array)


def write_dataset_csv(path: str | Path, data: Dataset) -> None:
    """Emit the dataset with a header row; labels become a final column."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        header = list(data.feature_names)
        if data.labels is not None:
            header.append("label")
        writer.writerow(header)
        for i in range(data.n_samples):
            row = [repr(float(v)) for v in data.features[i]]
            if data.labels is not None:
                row.append(str(data.labels[i]))
            writer.writerow(row)


def write_injection_log(path: str | Path, log) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["sample", "feature", "initial", "final", "alteration"])
        for rec in log:
            writer.writerow(
                [
                    rec.sample,
                    rec.feature,
                    repr(rec.initial),
                    repr(rec.final),
                    repr(rec.alteration),
                ]
            )


# ---------------------------------------------------------------------------
# Model JSON


def _node_to_dict(node: TreeNode) -> dict[str, Any]:
    if isinstance(node, Leaf):
        return {"size": node.size}
    return {
        "feature": node.feature_index,
        "split": node.split_value,
        "left": _node_to_dict(node.left),
        "right": _node_to_dict(node.right),
    }


def _node_from_dict(obj: dict[str, Any], depth: int) -> TreeNode:
    if "size" in obj:
        return Leaf(size=int(obj["size"]), depth=depth)
    return Internal(
        feature_index=int(obj["feature"]),
        split_value=float(obj["split"]),
        left=_node_from_dict(obj["left"], depth + 1),
        right=_node_from_dict(obj["right"], depth + 1),
    )


def _rule_from_dict(obj: dict[str, Any]) -> ScoreThreshold | Contamination:
    if obj["kind"] == "contamination":
        return Contamination(fraction=float(obj["fraction"]))
    if obj["kind"] == "score_threshold":
        return ScoreThreshold(threshold=float(obj["threshold"]))
    raise ValueError(f"unknown label rule kind: {obj['kind']!r}")


def model_to_dict(model: ForestModel) -> dict[str, Any]:
    p = model.params
    return {
        "schema_version": SCHEMA_VERSION,
        "params": {
            "n_trees": p.n_trees,
            "max_subsample": p.max_subsample,
            "seed": p.seed,
            "leaf_adjustment": p.leaf_adjustment,
            "label_rule": _rule_to_dict(p.label_rule),
        },
        "n_train": model.n_train,
        "trees": [_node_to_dict(t) for t in model.trees],
        "scores": [float(s) for s in model.scores],
        "labels": [str(l) for l in model.labels],
    }


def model_from_dict(obj: dict[str, Any]) -> ForestModel:
    """Rebuild a model; a missing or mistyped field is a ValueError."""
    if not isinstance(obj, dict):
        raise ValueError(
            f"malformed model file: expected an object, got {type(obj).__name__}"
        )
    if obj.get("schema_version") != SCHEMA_VERSION:
        raise ValueError(
            f"unsupported model schema_version: {obj.get('schema_version')!r}"
        )
    try:
        p = obj["params"]
        params = ForestParams(
            n_trees=int(p["n_trees"]),
            max_subsample=int(p["max_subsample"]),
            seed=int(p["seed"]),
            leaf_adjustment=bool(p["leaf_adjustment"]),
            label_rule=_rule_from_dict(p["label_rule"]),
        )
        return ForestModel(
            trees=[_node_from_dict(t, 0) for t in obj["trees"]],
            params=params,
            n_train=int(obj["n_train"]),
            scores=np.asarray(obj["scores"], dtype=np.float64),
            labels=np.asarray(obj["labels"], dtype="<U7"),
        )
    except (KeyError, TypeError, IndexError) as exc:
        raise ValueError(f"malformed model file: {type(exc).__name__}: {exc}") from exc


def save_model(path: str | Path, model: ForestModel) -> None:
    Path(path).write_text(
        json.dumps(model_to_dict(model), indent=2) + "\n", encoding="utf-8"
    )


def load_model(path: str | Path) -> ForestModel:
    try:
        return model_from_dict(json.loads(Path(path).read_text(encoding="utf-8")))
    except RecursionError:
        raise ValueError("malformed model file: nested too deeply") from None


# ---------------------------------------------------------------------------
# Graph JSON


def graph_to_dict(graph: DpGraph, report: IopReport | None = None) -> dict[str, Any]:
    """Graph document: nodes (with IOP when a report is given), edges, weights."""
    iop_by_id: dict[str, float] = {}
    if report is not None:
        for entry in report.entries:
            iop_by_id[predicate_id(entry.predicate)] = entry.iop

    nodes: list[dict[str, Any]] = [
        {"id": SOURCE_ID, "kind": "source", "feature": None, "sign": None, "iop": None}
    ]
    for p in graph.predicates:
        pid = predicate_id(p)
        nodes.append(
            {
                "id": pid,
                "kind": "predicate",
                "feature": p.feature_index,
                "sign": p.sign,
                "iop": iop_by_id.get(pid),
            }
        )
    for cid in (INLIER_ID, OUTLIER_ID):
        nodes.append(
            {"id": cid, "kind": "class", "feature": None, "sign": None, "iop": None}
        )

    edges = [
        {"src": src, "dst": dst, "weight": w}
        for (src, dst), w in sorted(
            graph.edges.items(),
            key=lambda kv: (node_sort_key(kv[0][0]), node_sort_key(kv[0][1])),
        )
    ]
    return {
        "schema_version": SCHEMA_VERSION,
        "nodes": nodes,
        "edges": edges,
        "weights": {
            "w_o": graph.weights.w_o,
            "w_i": graph.weights.w_i,
            "n_o": graph.weights.n_o,
            "n_i": graph.weights.n_i,
        },
        "metadata": graph.metadata,
    }


def write_graph_json(
    path: str | Path, graph: DpGraph, report: IopReport | None = None
) -> None:
    Path(path).write_text(
        json.dumps(graph_to_dict(graph, report), indent=2) + "\n", encoding="utf-8"
    )


# ---------------------------------------------------------------------------
# DOT export

# 11-step red-white-blue diverging palette, sampled linearly from most
# negative (red) to most positive (blue); index 5 is the neutral midpoint.
IOP_PALETTE = (
    "#67001f",
    "#b2182b",
    "#d6604d",
    "#f4a582",
    "#fddbc7",
    "#f7f7f7",
    "#d1e5f0",
    "#92c5de",
    "#4393c3",
    "#2166ac",
    "#053061",
)

# Fills dark enough to need white label text.
_DARK_FILL_STEPS = {0, 1, 9, 10}


@dataclass(frozen=True)
class DotStyle:
    iop_palette: tuple[str, ...] = IOP_PALETTE
    edge_width: tuple[float, float] = (0.5, 6.0)
    show_source: bool = False
    class_node_shape: str = "box"

    def __post_init__(self) -> None:
        if len(self.iop_palette) < 3 or len(self.iop_palette) % 2 == 0:
            raise ValueError("iop_palette must have an odd length >= 3")
        lo, hi = self.edge_width
        if not 0 < lo < hi:
            raise ValueError("edge_width must be an increasing positive pair")


def _palette_step(style: DotStyle, iop: float) -> int:
    steps = len(style.iop_palette) - 1
    return int(round((iop + 1.0) / 2.0 * steps))


def iop_color(style: DotStyle, iop: float) -> str:
    """Fill color for an IOP value: -1 and +1 hit the palette endpoints."""
    if not -1.0 <= iop <= 1.0:
        raise ValueError(f"iop must lie in [-1, 1], got {iop}")
    return style.iop_palette[_palette_step(style, iop)]


def _width_map(style: DotStyle, weights: list[float]):
    lo, hi = style.edge_width
    wmin, wmax = min(weights), max(weights)
    if wmax == wmin:
        mid = (lo + hi) / 2.0
        return lambda w: mid
    scale = (hi - lo) / (wmax - wmin)
    return lambda w: lo + (w - wmin) * scale


def export_dot(
    graph: DpGraph, report: IopReport, style: DotStyle | None = None
) -> str:
    """Render the graph as DOT text: filled predicate ellipses colored by
    IOP, class terminals as boxes, pen width proportional to edge weight.

    Byte-deterministic: same graph/report/style, same output.
    """
    if style is None:
        style = DotStyle()
    iop_by_id = {predicate_id(e.predicate): e.iop for e in report.entries}
    missing = [predicate_id(p) for p in graph.predicates if predicate_id(p) not in iop_by_id]
    if missing:
        raise ValueError(f"report does not cover graph predicates: {missing}")

    names = graph.metadata.get("feature_names") if graph.metadata else None
    lines = ["digraph dpg {", "  rankdir=LR;"]
    if style.show_source:
        lines.append('  "SOURCE" [label="Source", shape=point];')
    for p in sorted(graph.predicates, key=lambda q: (q.feature_index, q.sign != LE)):
        pid = predicate_id(p)
        step = _palette_step(style, iop_by_id[pid])
        font = ', fontcolor="#ffffff"' if step in _DARK_FILL_STEPS else ""
        lines.append(
            f'  "{pid}" [label="{predicate_label(p, names)}", style=filled, '
            f'fillcolor="{style.iop_palette[step]}"{font}];'
        )
    for cid, label in ((INLIER_ID, "Inliers"), (OUTLIER_ID, "Outliers")):
        lines.append(f'  "{cid}" [label="{label}", shape={style.class_node_shape}];')

    shown = [
        (key, w)
        for key, w in graph.edges.items()
        if style.show_source or key[0] != SOURCE_ID
    ]
    if shown:
        width_of = _width_map(style, [w for _, w in shown])
        for (src, dst), w in sorted(
            shown, key=lambda kv: (node_sort_key(kv[0][0]), node_sort_key(kv[0][1]))
        ):
            lines.append(f'  "{src}" -> "{dst}" [penwidth={width_of(w):.2f}];')
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Explanation bundle


def _sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def write_explanation_bundle(
    out_dir: str | Path,
    model: ForestModel,
    graph: DpGraph,
    report: IopReport,
    input_path: str | Path | None = None,
) -> dict[str, Any]:
    """Write model.json, graph.json, iop_report.json, graph.dot, iop_table.txt
    and a manifest.json recording versions, seed, params, and content hashes.

    Returns the manifest. Nothing here depends on wall-clock time, so a rerun
    with the same inputs reproduces every file byte for byte.
    """
    out_dir = Path(out_dir)
    model_dict = model_to_dict(model)
    contents: dict[str, str] = {
        "model.json": json.dumps(model_dict, indent=2) + "\n",
        "graph.json": json.dumps(graph_to_dict(graph, report), indent=2) + "\n",
        "iop_report.json": rank_report(report, format="json"),
        "graph.dot": export_dot(graph, report),
        "iop_table.txt": rank_report(report, format="table"),
    }

    input_info: dict[str, Any] = {"path": None, "sha256": None}
    if input_path is not None:
        input_info["path"] = str(input_path)
        input_info["sha256"] = _sha256_bytes(Path(input_path).read_bytes())

    manifest = {
        "schema_version": SCHEMA_VERSION,
        "generator": "iforest-dpg",
        "versions": {
            "package": __version__,
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "seed": model.params.seed,
        "params": model_dict["params"],
        "input": input_info,
        "files": {
            name: _sha256_bytes(text.encode("utf-8")) for name, text in contents.items()
        },
    }
    contents["manifest.json"] = json.dumps(manifest, indent=2) + "\n"

    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        for name, text in contents.items():
            (out_dir / name).write_text(text, encoding="utf-8", newline="\n")
    except OSError as exc:
        raise OSError(
            f"cannot write explanation bundle to directory '{out_dir}': {exc}"
        ) from exc
    return manifest
