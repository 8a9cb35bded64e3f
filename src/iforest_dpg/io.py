"""File formats: CSV ingestion/emission, JSON persistence, DOT export, bundles.

CSV data rows are parsed by `np.loadtxt`, in one pass or a block of rows at a
time; a numeric cell is an ASCII decimal or exponent number, inf or nan (the
last two rejected as non-finite), optionally quoted and padded with
whitespace. Only a file that fails is scanned again cell by cell, to name the
first fault by file row.

All JSON documents carry a top-level schema_version: 4 for model.json, which
stores the feature names and each tree's splits by heap index, the numbering
of `FlatForest`'s slots within a tree, is checked for structure on load and
is written as one compact line, and 1 for the rest, which are indented.
Floats are written with Python's shortest round-trip repr, so every persisted
real value reloads bit-exactly. DOT output is one statement per line with LF
endings and is a pure function of its inputs.
"""

from __future__ import annotations

import csv
import json
import math
import platform
import warnings
from collections.abc import Generator, Iterator
from pathlib import Path
from typing import Any, NoReturn

import numpy as np

from . import __version__
from .dpg import (
    INLIER_ID,
    OUTLIER_ID,
    SOURCE_ID,
    DpGraph,
    predicate_id,
    predicate_label,
)
from .forest import (
    INLIER,
    OUTLIER,
    Contamination,
    Dataset,
    FlatForest,
    ForestModel,
    ForestParams,
    ScoreThreshold,
    SingleClassError,
    _rule_to_dict,
    _score_cutoff,
    label_scores,
    max_tree_depth,
)
from .metrics import IopReport, rank_report

SCHEMA_VERSION = 1
# model.json alone is at version 4: trees by heap index, a cutoff and the
# feature names, and no training labels.
MODEL_SCHEMA_VERSION = 4

# Label tokens (lower-cased, stripped) as loadtxt's label converter reads them.
_LABEL_CODES = {"o": 1.0, "outlier": 1.0, "1": 1.0, "n": 0.0, "inlier": 0.0, "0": 0.0}


# ---------------------------------------------------------------------------
# CSV


def _label_code(token: str) -> float:
    """1.0 for an Outlier token, 0.0 for an Inlier one; KeyError otherwise."""
    return _LABEL_CODES[token.strip().lower()]


def _cell_value(cell: str) -> float:
    """A feature cell as np.loadtxt reads it, or ValueError.

    That is Python's float() of the stripped cell, less the forms only float()
    knows: non-ASCII digits and '_' digit separators.
    """
    token = cell.strip()
    if not token.isascii() or "_" in token:
        raise ValueError(cell)
    return float(token)


def _feature_names(header: list[str] | None, feature_cols: list[int]) -> list[str]:
    if header is None:
        return [f"F{k}" for k in range(len(feature_cols))]
    return [header[j] for j in feature_cols]


def read_csv(
    path: str | Path,
    has_header: bool = True,
    label_column: str | int | None = None,
) -> Dataset:
    """Load a numeric CSV, optionally peeling off one label column.

    The header is the first non-blank row, read with `csv`; the data rows are
    parsed by one `np.loadtxt` call (comma-delimited, '"' quoting, no comment
    character, blank lines skipped): `read_csv_blocks` with one block. Label
    tokens map case-insensitively: o/outlier/1 to Outlier and n/inlier/0 to
    Inlier. A file loadtxt refuses, or one with a non-finite cell, is scanned
    again cell by cell to name its first fault; row numbers in those
    messages are 1-based file rows, counting the header and blank lines.
    """
    return next(read_csv_blocks(path, has_header, label_column))


def read_csv_blocks(
    path: str | Path,
    has_header: bool = True,
    label_column: str | int | None = None,
    rows: int | None = None,
) -> Iterator[Dataset]:
    """`read_csv`'s dataset, `rows` data rows at a time (all of them when
    None), as successive `np.loadtxt(..., max_rows=rows)` calls on one open
    file.

    Each cell parses as it would in one call, so the blocks' features joined
    are `read_csv`'s bit for bit, with the same names and labels. A block
    that loadtxt refuses, that is not the first block's width, that holds a
    non-finite cell, or a file with no data rows, raises `read_csv`'s error
    for the whole file when that block is read; earlier blocks have been
    yielded by then. Blank lines do not count toward `max_rows`, so a read
    of 0 rows, or of fewer than `rows`, is the end of the file.
    """
    path = Path(path)
    with open(path, newline="", encoding="utf-8-sig") as fh:
        complete = yield from _csv_blocks(fh, has_header, label_column, rows)
    if not complete:
        _raise_csv_fault(path, has_header, label_column)


def _csv_blocks(
    fh, has_header: bool, label_column: str | int | None, rows: int | None
) -> Generator[Dataset, None, bool]:
    """`read_csv_blocks`' blocks of the open file `fh`; returns True at the
    end of the file, and False at the first block with a fault to report."""
    layout = _csv_layout(fh, has_header, label_column)
    if layout is None:
        return False
    header, label_idx = layout
    table = _load_rows(fh, label_idx, rows)
    if table is None:
        return False
    n_rows, width = table.shape
    feature_cols = [j for j in range(width) if j != label_idx]
    if (
        n_rows == 0
        or not feature_cols
        or (header is not None and len(header) != width)
        or (label_idx is not None and label_idx >= width)
    ):
        return False
    names = _feature_names(header, feature_cols)
    while True:
        features = table if label_idx is None else table[:, feature_cols]
        if not np.isfinite(features).all():
            return False
        labels = None
        if label_idx is not None:
            labels = np.where(table[:, label_idx] == 1.0, OUTLIER, INLIER)
        yield Dataset(features=features, feature_names=list(names), labels=labels)
        if rows is None or len(table) < rows:
            return True
        table = _load_rows(fh, label_idx, rows)
        if table is not None and len(table) == 0:
            return True
        if table is None or table.shape[1] != width:
            return False


def _csv_layout(
    fh, has_header: bool, label_column: str | int | None
) -> tuple[list[str] | None, int | None] | None:
    """Read the header off `fh`; return it (None without one) and the label
    column's index, or None when either is a fault to report."""
    header: list[str] | None = None
    if has_header:
        header = next((row for row in csv.reader(fh) if row), None)
        if header is None:
            return None
        header = [cell.strip() for cell in header]
    if label_column is None:
        return header, None
    if isinstance(label_column, str):
        if header is None or label_column not in header:
            return None
        return header, header.index(label_column)
    label_idx = int(label_column)
    return (header, label_idx) if label_idx >= 0 else None


def _load_rows(fh, label_idx: int | None, rows: int | None) -> np.ndarray | None:
    """The next `rows` data rows of `fh` (all when None) as a 2-D float64
    table, or None when loadtxt refuses them."""
    try:
        with warnings.catch_warnings():
            # A file without data rows is reported by the scan instead, and
            # a later block without rows is the end of the file. Blank lines
            # are skipped, as they always were, whether or not `rows` is set.
            warnings.filterwarnings(
                "ignore", "loadtxt: input contained no data", UserWarning
            )
            warnings.filterwarnings(
                "ignore", "Input line [0-9]+ contained no data", UserWarning
            )
            return np.loadtxt(
                fh,
                delimiter=",",
                quotechar='"',
                comments=None,
                dtype=np.float64,
                ndmin=2,
                max_rows=rows,
                converters=None if label_idx is None else {label_idx: _label_code},
            )
    except ValueError:
        return None


def _raise_csv_fault(
    path: Path, has_header: bool, label_column: str | int | None
) -> NoReturn:
    """Scan the file cell by cell and raise a ValueError naming its first fault.

    The cold path of `read_csv_blocks`: it runs only when a block failed, over
    the whole file whichever block that was, and reads a cell as numeric
    exactly when loadtxt does (`_cell_value`).
    """
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
    names = _feature_names(header, feature_cols)
    for row_number, row in rows:
        for j, name in zip(feature_cols, names):
            try:
                value = _cell_value(row[j])
            except ValueError:
                raise ValueError(
                    f"non-numeric value {row[j]!r} at row {row_number}, "
                    f"column {name!r}"
                ) from None
            if not math.isfinite(value):
                raise ValueError(
                    f"non-finite value {row[j]!r} at row {row_number}, "
                    f"column {name!r}"
                )
        if label_idx is not None and row[label_idx].strip().lower() not in _LABEL_CODES:
            raise ValueError(
                f"unknown label token {row[label_idx]!r} at row {row_number}"
            )
    # Reached only if loadtxt refused a file this scan accepts.
    raise ValueError(f"cannot parse CSV file: {path}")


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


def _malformed(message: str) -> ValueError:
    return ValueError(f"malformed model file: {message}")


def _value(obj: dict[str, Any], key: str, types: tuple[type, ...]) -> Any:
    """obj[key], which must be exactly one of `types` (so a bool is not an int)."""
    value = obj[key]
    if type(value) not in types:
        raise _malformed(f"{key!r} is a {type(value).__name__}")
    return value


def _number(obj: dict[str, Any], key: str) -> float:
    value = float(_value(obj, key, (int, float)))
    if not math.isfinite(value):
        raise _malformed(f"{key!r} is not finite")
    return value


def _array(obj: dict[str, Any], key: str, types: tuple[type, ...], dtype) -> np.ndarray:
    values = _value(obj, key, (list,))
    if not {type(v) for v in values} <= set(types):
        raise _malformed(f"{key!r} holds a value that is not a {types[-1].__name__}")
    return np.array(values, dtype=dtype)


def _rule_from_dict(obj: dict[str, Any]) -> ScoreThreshold | Contamination:
    kind = _value(obj, "kind", (str,))
    if kind == "contamination":
        return Contamination(fraction=_number(obj, "fraction"))
    if kind == "score_threshold":
        return ScoreThreshold(threshold=_number(obj, "threshold"))
    raise ValueError(f"unknown label rule kind: {kind!r}")


def _heap_slots(n_trees: int, levels: int, tree: np.ndarray, node: np.ndarray) -> np.ndarray:
    """The slots of heap indices `node` of trees `tree` in a forest of
    `n_trees` trees and `levels` levels: heap index 2**k - 1 + p, position p
    of level k, of tree t is slot T*(2**k - 1) + t*2**k + p."""
    level = np.repeat(np.arange(levels), 1 << np.arange(levels))[node]
    return (n_trees - 1) * ((1 << level) - 1) + (tree << level) + node


# A tree's arrays in model.json: one entry per split, and `size` one more.
_TREE_KEYS = ("node", "feature", "split", "size")


def _slots_from_trees(trees: list, levels: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """`FlatForest`'s (feature, threshold, size) slots, `levels` levels deep,
    of trees as model.json stores them; a list that is not such trees is a
    ValueError.

    A tree lists its splits by heap index in `node`, increasing from the
    root 0, where the children of i are 2i + 1 and 2i + 2 and position p of
    level k is 2**k - 1 + p; then their `feature` and `split`; then `size`,
    the subsample rows of each leaf from left to right. Each split is above
    the depth cap and, but for the root, the child of a split; features are
    in [0, int32 max), splits finite, sizes at least 1. Trees that pass are
    binary trees with one more leaf than splits, and each has one such form,
    so a loaded forest saves as the same trees.
    """
    n_trees = len(trees)
    joined: dict[str, list] = {key: [] for key in _TREE_KEYS}
    n_splits = np.empty(n_trees, dtype=np.int64)
    for t, tree in enumerate(trees):
        n_splits[t] = len(_value(tree, "node", (list,)))
        for key in _TREE_KEYS:
            values = _value(tree, key, (list,))
            if len(values) != n_splits[t] + (key == "size"):
                raise _malformed("a tree's arrays are not one entry per node and one more size")
            joined[key] += values
    node = _array(joined, "node", (int,), np.int64)
    feature = _array(joined, "feature", (int,), np.int64)
    split = _array(joined, "split", (int, float), np.float64)
    size = _array(joined, "size", (int,), np.int64)
    root = np.zeros(len(node), dtype=bool)
    root[(n_splits.cumsum() - n_splits)[n_splits > 0]] = True
    if np.any(node[root]) or np.any(node <= np.where(root, -1, np.roll(node, 1))):
        raise _malformed("a tree's nodes do not increase from 0")
    if np.any(node >= (1 << levels) - 1):
        raise _malformed(f"a tree is deeper than the depth cap {levels}")
    if np.any((feature < 0) | (feature >= np.iinfo(np.int32).max)):
        raise _malformed("a split feature is out of range")
    if not np.all(np.isfinite(split)):
        raise _malformed("a split value is not finite")
    if np.any((size < 1) | (size > np.iinfo(np.int32).max)):
        raise _malformed("a leaf size is out of range")
    slot = _heap_slots(n_trees, levels, np.arange(n_trees).repeat(n_splits), node)
    slot_feature = np.zeros(n_trees * ((1 << levels) - 1), dtype=np.int32)
    slot_threshold = np.full(len(slot_feature), np.inf)
    slot_feature[slot] = feature
    slot_threshold[slot] = split
    # The parent of slot s below the roots is slot (s - T) // 2.
    if not np.all(np.isfinite(slot_threshold[(slot[~root] - n_trees) // 2])):
        raise _malformed("a split's parent is not a split")
    # Each leaf's size goes at the final slot its left-going route ends at:
    # from the roots down, a slot's left child is marked if it is, and its
    # right child if it splits.
    ends = np.ones(n_trees, dtype=bool)
    for k in range(levels):
        first = n_trees * ((1 << k) - 1)
        inner = np.isfinite(slot_threshold[first : first + (n_trees << k)])
        ends = np.stack([ends, inner], axis=1).ravel()
    slot_size = np.zeros(n_trees << levels, dtype=np.int32)
    slot_size[ends] = size
    return slot_feature, slot_threshold, slot_size


def _model_head(model: ForestModel) -> dict[str, Any]:
    """model.json's fields ahead of the trees."""
    p = model.params
    return {
        "schema_version": MODEL_SCHEMA_VERSION,
        "params": {
            "n_trees": p.n_trees,
            "max_subsample": p.max_subsample,
            "seed": p.seed,
            "leaf_adjustment": p.leaf_adjustment,
            "label_rule": _rule_to_dict(p.label_rule),
        },
        "n_train": model.n_train,
        "cutoff": model.cutoff,
        "feature_names": model.feature_names,
    }


def _tree_dicts(forest: FlatForest) -> Iterator[dict[str, list]]:
    """Each tree as model.json stores it, `_slots_from_trees`'s input: the
    heap index, feature and value of each slot that splits, in heap order,
    and the sizes of its final slots that are not 0, which are its leaves'
    from left to right."""
    n_trees, width = forest.n_trees, (1 << forest.levels) - 1
    tree, node = np.arange(n_trees).repeat(width), np.tile(np.arange(width), n_trees)
    slot = _heap_slots(n_trees, forest.levels, tree, node)
    split = np.isfinite(forest.threshold[slot])
    tree, node, slot = tree[split], node[split].tolist(), slot[split]
    feature, threshold = forest.feature[slot].tolist(), forest.threshold[slot].tolist()
    size = forest.size[forest.size > 0].tolist()
    start = 0
    for t, end in enumerate(np.bincount(tree, minlength=n_trees).cumsum().tolist()):
        yield {
            "node": node[start:end],
            "feature": feature[start:end],
            "split": threshold[start:end],
            "size": size[start + t : end + t + 1],
        }
        start = end


def model_to_dict(model: ForestModel) -> dict[str, Any]:
    return {
        **_model_head(model),
        "trees": list(_tree_dicts(model.forest)),
        "scores": model.scores.tolist(),
    }


def model_from_dict(obj: dict[str, Any]) -> ForestModel:
    """Rebuild a model; a missing, mistyped or inconsistent field is a ValueError.

    The training outlier mask is the label rule applied to the saved scores,
    as fit applied it, not `scores >= cutoff`: a training row that ties the
    Contamination cutoff can be an Inlier. The saved cutoff must be the one
    fit derives from those scores and that rule (`_score_cutoff`). Files of
    another schema_version, model.json versions 1 to 3 included, are
    rejected rather than converted.
    """
    if not isinstance(obj, dict):
        raise _malformed(f"expected an object, got {type(obj).__name__}")
    if obj.get("schema_version") != MODEL_SCHEMA_VERSION:
        raise ValueError(
            f"unsupported model schema_version: {obj.get('schema_version')!r} "
            f"(this version reads {MODEL_SCHEMA_VERSION}; train the model again)"
        )
    try:
        p = _value(obj, "params", (dict,))
        params = ForestParams(
            n_trees=_value(p, "n_trees", (int,)),
            max_subsample=_value(p, "max_subsample", (int,)),
            seed=_value(p, "seed", (int,)),
            leaf_adjustment=_value(p, "leaf_adjustment", (bool,)),
            label_rule=_rule_from_dict(_value(p, "label_rule", (dict,))),
        )
        n_train = _value(obj, "n_train", (int,))
        scores = _array(obj, "scores", (int, float), np.float64)
        if len(scores) != n_train:
            raise _malformed(f"{len(scores)} scores for n_train {n_train}")
        if not np.all(np.isfinite(scores)):
            raise _malformed("a score is not finite")
        trees = _value(obj, "trees", (list,))
        if len(trees) != params.n_trees:
            raise _malformed(f"{len(trees)} trees for n_trees {params.n_trees}")
        subsample_size = min(params.max_subsample, n_train)
        levels = max_tree_depth(subsample_size)
        feature, threshold, size = _slots_from_trees(trees, levels)
        sums = size.reshape(len(trees), -1).sum(axis=1)
        if np.any(sums != subsample_size):
            raise _malformed(
                f"a tree's leaf sizes sum to {sums[sums != subsample_size][0]}, "
                f"not the subsample size {subsample_size}"
            )
        forest = FlatForest(
            len(trees), levels, feature, threshold, size, params.leaf_adjustment
        )
        # Names need not be distinct, as CSV headers need not be.
        names = _value(obj, "feature_names", (list,))
        if {type(name) for name in names} - {str} or len(names) < forest.width:
            raise _malformed(
                f"'feature_names' is not {forest.width} or more strings, "
                "one per column the trees may split on"
            )
        is_outlier = label_scores(scores, params.label_rule)
        cutoff = _score_cutoff(scores, is_outlier, params.label_rule)
        if _number(obj, "cutoff") != cutoff:
            raise _malformed(
                f"'cutoff' is {obj['cutoff']!r}, but its scores and label rule give {cutoff!r}"
            )
        return ForestModel(
            forest=forest,
            params=params,
            n_train=n_train,
            scores=scores,
            is_outlier=is_outlier,
            cutoff=cutoff,
            feature_names=names,
        )
    # fit never saves a rule that labels no training row Outlier.
    except (KeyError, TypeError, IndexError, OverflowError, SingleClassError) as exc:
        raise _malformed(f"{type(exc).__name__}: {exc}") from exc


def _compact(obj: Any) -> str:
    return json.dumps(obj, separators=(",", ":"))


# Training rows per piece of model.json's `scores`.
_ROWS_PER_PIECE = 1 << 10


def _model_json_pieces(model: ForestModel) -> Iterator[str]:
    """model.json's text, one compact line, in pieces: the head, each tree,
    then the scores `_ROWS_PER_PIECE` at a time. Joined, the pieces are
    `json.dumps(model_to_dict(model))` with compact separators plus a
    newline; the only JSON document not indented."""
    yield _compact(_model_head(model))[:-1] + ',"trees":['
    for i, tree in enumerate(_tree_dicts(model.forest)):
        yield ("," if i else "") + _compact(tree)
    yield '],"scores":['
    for start in range(0, model.n_train, _ROWS_PER_PIECE):
        piece = _compact(model.scores[start : start + _ROWS_PER_PIECE].tolist())[1:-1]
        yield ("," if start else "") + piece
    yield "]}\n"


def save_model(path: str | Path, model: ForestModel) -> None:
    """Write model.json piece by piece."""
    with open(path, "wb") as fh:
        for piece in _model_json_pieces(model):
            fh.write(piece.encode("utf-8"))


def load_model(path: str | Path) -> ForestModel:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError(f"malformed model file: {path}: not UTF-8: {exc}") from None
    try:
        return model_from_dict(json.loads(text))
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed model file: {path}: not JSON: {exc}") from None
    except RecursionError:
        raise ValueError(f"malformed model file: {path}: nested too deeply") from None


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

    edges = [{"src": src, "dst": dst, "weight": w} for (src, dst), w in graph.edges.items()]
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

# Pen widths of the lightest and the heaviest edge drawn.
_EDGE_WIDTH = (0.5, 6.0)


def _palette_step(iop: float) -> int:
    """The palette index of an IOP value: -1 and +1 hit the endpoints."""
    return int(round((iop + 1.0) / 2.0 * (len(IOP_PALETTE) - 1)))


def _width_map(weights: list[float]):
    lo, hi = _EDGE_WIDTH
    wmin, wmax = min(weights), max(weights)
    if wmax == wmin:
        mid = (lo + hi) / 2.0
        return lambda w: mid
    scale = (hi - lo) / (wmax - wmin)
    return lambda w: lo + (w - wmin) * scale


def _dot_escape(text: str) -> str:
    """Text for a DOT double-quoted string: backslash and quote escaped."""
    return text.replace("\\", "\\\\").replace('"', '\\"')


def export_dot(graph: DpGraph, report: IopReport) -> str:
    """Render the graph as DOT text: filled predicate ellipses colored by
    IOP, class terminals as boxes, pen width proportional to edge weight.
    The virtual SOURCE node and its edges are not drawn.

    Byte-deterministic: same graph and report, same output.
    """
    iop_by_id = {predicate_id(e.predicate): e.iop for e in report.entries}
    predicates = graph.predicates
    missing = [predicate_id(p) for p in predicates if predicate_id(p) not in iop_by_id]
    if missing:
        raise ValueError(f"report does not cover graph predicates: {missing}")

    names = graph.metadata.get("feature_names") if graph.metadata else None
    lines = ["digraph dpg {", "  rankdir=LR;"]
    for p in predicates:
        pid = predicate_id(p)
        step = _palette_step(iop_by_id[pid])
        font = ', fontcolor="#ffffff"' if step in _DARK_FILL_STEPS else ""
        lines.append(
            f'  "{pid}" [label="{_dot_escape(predicate_label(p, names))}", style=filled, '
            f'fillcolor="{IOP_PALETTE[step]}"{font}];'
        )
    for cid, label in ((INLIER_ID, "Inliers"), (OUTLIER_ID, "Outliers")):
        lines.append(f'  "{cid}" [label="{label}", shape=box];')

    shown = [(key, w) for key, w in graph.edges.items() if key[0] != SOURCE_ID]
    if shown:
        width_of = _width_map([w for _, w in shown])
        for (src, dst), w in shown:
            lines.append(f'  "{src}" -> "{dst}" [penwidth={width_of(w):.2f}];')
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Explanation bundle


def _sha256_file(path: Path) -> str:
    """sha256 of a file, read 64 KiB at a time into one reused buffer, so
    hashing model.json after writing it holds far less than the file."""
    import hashlib  # see write_explanation_bundle

    digest = hashlib.sha256()
    buffer = memoryview(bytearray(1 << 16))
    with open(path, "rb", buffering=0) as fh:
        while read := fh.readinto(buffer):
            digest.update(buffer[:read])
    return digest.hexdigest()


def write_explanation_bundle(
    out_dir: str | Path,
    model: ForestModel,
    graph: DpGraph,
    report: IopReport,
    input_path: str | Path | None = None,
) -> dict[str, Any]:
    """Write model.json, graph.json, iop_report.json, graph.dot, iop_table.txt
    and a manifest.json recording versions, seed, params, and content hashes.

    model.json is streamed to disk and hashed from there; every other file
    is encoded once. Returns the manifest. Nothing here depends on wall-clock
    time, so a rerun with the same inputs reproduces every file byte for byte.
    """
    # Imported here, the one path that hashes: hashlib maps OpenSSL's
    # libcrypto, 3.6 MB of resident memory that `score` has no use for.
    import hashlib

    out_dir = Path(out_dir)
    encoded: dict[str, bytes] = {
        name: text.encode("utf-8")
        for name, text in (
            ("graph.json", json.dumps(graph_to_dict(graph, report), indent=2) + "\n"),
            ("iop_report.json", rank_report(report, format="json")),
            ("graph.dot", export_dot(graph, report)),
            ("iop_table.txt", rank_report(report, format="table")),
        )
    }

    input_info: dict[str, Any] = {"path": None, "sha256": None}
    if input_path is not None:
        input_info["path"] = str(input_path)
        input_info["sha256"] = _sha256_file(Path(input_path))

    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        save_model(out_dir / "model.json", model)
        hashes = {"model.json": _sha256_file(out_dir / "model.json")}
        for name, data in encoded.items():
            (out_dir / name).write_bytes(data)
            hashes[name] = hashlib.sha256(data).hexdigest()
        manifest = {
            "schema_version": SCHEMA_VERSION,
            "generator": "iforest-dpg",
            "versions": {
                "package": __version__,
                "python": platform.python_version(),
                "numpy": np.__version__,
            },
            "seed": model.params.seed,
            "params": _model_head(model)["params"],
            "input": input_info,
            "files": hashes,
        }
        (out_dir / "manifest.json").write_bytes(
            (json.dumps(manifest, indent=2) + "\n").encode("utf-8")
        )
    except OSError as exc:
        raise OSError(
            f"cannot write explanation bundle to directory '{out_dir}': {exc}"
        ) from exc
    return manifest
