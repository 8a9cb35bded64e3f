"""Decision predicate graph construction from a fitted isolation forest.

Every training sample's route through every tree is one labeled trace of the
split predicates it satisfied. Outlier traces that reach the depth cap are
pruned, split values are dropped so predicates collapse to (feature, sign)
pairs, and the surviving transitions are counted per class and weighted into
a directed graph between predicate nodes, a virtual source, and the two
class terminals. The routes are the ones `fit` already walks to score the
training set, so the builder reuses fit's transition counts. Only the
outlier rows are routed again, once: their counts, and the counts of the
traces pruned from them, are read off how many of them reach each leaf.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .forest import (
    INLIER,
    OUTLIER,
    Dataset,
    FlatForest,
    ForestModel,
    SingleClassError,
    _check_width,
    _leaf_visits,
    _n_codes,
    _rule_to_dict,
    _training_counts,
    _transition_counts,
)

LE = "<="
GT = ">"

SOURCE_ID = "SOURCE"
INLIER_ID = "INLIER"
OUTLIER_ID = "OUTLIER"


class PredicateTriple(NamedTuple):
    feature_index: int
    sign: str
    split_value: float


class Predicate(NamedTuple):
    feature_index: int
    sign: str


def predicate_id(p: Predicate | PredicateTriple) -> str:
    """Stable node id, e.g. (3, "<=") -> "F3_LE"."""
    return f"F{p.feature_index}_{'LE' if p.sign == LE else 'GT'}"


def predicate_label(p: Predicate, feature_names: list[str] | None = None) -> str:
    """Display label, e.g. "F3 <=" or "TSH >" when feature names are known."""
    name = feature_names[p.feature_index] if feature_names else f"F{p.feature_index}"
    return f"{name} {p.sign}"


@dataclass(slots=True)
class TraceList:
    """Ordered predicates satisfied by one sample traversing one tree."""

    sample_index: int
    tree_index: int
    predicates: list
    class_label: str


@dataclass(frozen=True)
class ClassWeights:
    """Imbalance-correcting transition multipliers from sample counts."""

    w_o: float
    w_i: float
    n_o: int
    n_i: int


def class_weights(n_o: int, n_i: int) -> ClassWeights:
    """w_o = (N_o + N_i)/N_o and w_i = (N_o + N_i)/N_i."""
    if n_o < 1 or n_i < 1:
        raise SingleClassError("single-class dataset; weighting undefined")
    total = n_o + n_i
    return ClassWeights(w_o=total / n_o, w_i=total / n_i, n_o=n_o, n_i=n_i)


@dataclass
class DpGraph:
    """Weighted directed graph over predicate nodes plus SOURCE/INLIER/OUTLIER.

    `edges` maps (src_id, dst_id) to accumulated weighted frequency. The
    virtual source carries path-start flow so every predicate node has
    positive inflow and flow conservation holds; it is hidden in rendered
    output by default. Treat instances as immutable once built.
    """

    predicates: list[Predicate]
    edges: dict[tuple[str, str], float]
    weights: ClassWeights
    metadata: dict = field(default_factory=dict)

    def node_ids(self) -> list[str]:
        ids = [SOURCE_ID]
        ids.extend(predicate_id(p) for p in self.predicates)
        ids.extend([INLIER_ID, OUTLIER_ID])
        return ids

    def edge_weight(self, src: str, dst: str) -> float:
        return self.edges.get((src, dst), 0.0)

    def incoming_weight(self, node: str) -> float:
        return sum(w for (_, dst), w in self.edges.items() if dst == node)

    def outgoing_weight(self, node: str) -> float:
        return sum(w for (src, _), w in self.edges.items() if src == node)


def node_sort_key(node_id: str) -> tuple:
    """Deterministic node order: SOURCE, predicates by (feature, LE, GT), terminals."""
    if node_id == SOURCE_ID:
        return (0, 0, 0)
    if node_id == INLIER_ID:
        return (2, 0, 0)
    if node_id == OUTLIER_ID:
        return (2, 1, 0)
    feature, sign = node_id[1:].rsplit("_", 1)
    return (1, int(feature), 0 if sign == "LE" else 1)


def _tree_paths(
    forest: FlatForest, root: int, X: np.ndarray, depth_cap: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Predicate codes along each sample's root-to-leaf path in one tree.

    The tree is the one rooted at node `root` of `forest`. Returns (codes,
    lengths, values): codes is (n, depth_cap) of 2*feature + went_right with
    -1 padding, lengths the per-sample number of predicates, values the split
    thresholds. `traverse` uses this as a step-by-step route independent of
    `forest._route`.
    """
    n = len(X)
    codes = np.full((n, depth_cap), -1, dtype=np.int32)
    values = np.full((n, depth_cap), np.nan)
    lengths = np.zeros(n, dtype=np.int32)
    cur = np.full(n, root, dtype=np.intp)
    rows = np.arange(n)
    for step in range(depth_cap):
        internal = ~forest.leaf[cur]
        if not internal.any():
            break
        f = forest.feature[cur]
        thr = forest.threshold[cur]
        go_right = X[rows, f] > thr
        step_codes = 2 * f + go_right
        codes[internal, step] = step_codes[internal]
        values[internal, step] = thr[internal]
        lengths[internal] += 1
        cur = np.where(internal, forest.child[2 * cur + go_right], cur)
    return codes, lengths, values


def traverse(model: ForestModel, data: Dataset) -> list[TraceList]:
    """One labeled TraceList of (feature, sign, value) triples per (tree, sample).

    `data` must be the training dataset; class labels are copied from the
    model. Traces are ordered by (tree_index, sample_index). Materializes
    n_trees * n_samples objects, so prefer `build_model_graph` for large runs.
    """
    if data.n_samples != model.n_train:
        raise ValueError(
            f"dataset has {data.n_samples} samples but model was trained on {model.n_train}"
        )
    X = data.features
    depth_cap = model.max_depth
    labels = model.labels
    forest = model.forest
    _check_width(forest, data.n_features)
    traces: list[TraceList] = []
    for t, root in enumerate(forest.roots):
        codes, lengths, values = _tree_paths(forest, root, X, depth_cap)
        for s in range(len(X)):
            preds = [
                PredicateTriple(int(codes[s, j]) // 2, LE if codes[s, j] % 2 == 0 else GT, float(values[s, j]))
                for j in range(lengths[s])
            ]
            traces.append(
                TraceList(
                    sample_index=s,
                    tree_index=t,
                    predicates=preds,
                    class_label=str(labels[s]),
                )
            )
    return traces


def prune_deep_outlier_traces(traces: list[TraceList], dmax: int) -> list[TraceList]:
    """Drop Outlier traces whose predicate list reached the depth cap.

    A leaf at depth >= dmax was force-stopped rather than isolated early, so
    it carries no outlier evidence. Inlier traces are always kept.
    """
    return [
        tr
        for tr in traces
        if not (tr.class_label == OUTLIER and len(tr.predicates) >= dmax)
    ]


def collapse(traces: list[TraceList]) -> list[TraceList]:
    """Project triples to (feature, sign) pairs, preserving order and repeats.

    Consecutive duplicates are retained; they become self-loop transitions.
    """
    return [
        TraceList(
            sample_index=tr.sample_index,
            tree_index=tr.tree_index,
            predicates=[Predicate(p.feature_index, p.sign) for p in tr.predicates],
            class_label=tr.class_label,
        )
        for tr in traces
    ]


def build_graph(
    traces: list[TraceList], weights: ClassWeights, metadata: dict | None = None
) -> DpGraph:
    """Aggregate collapsed traces into the weighted predicate-transition graph.

    Each trace adds one to its class's count of (SOURCE -> first predicate),
    every consecutive pair, and (last predicate -> class terminal); traces
    with no predicates route SOURCE directly to their terminal. Every edge
    weight is then c_i*w_i + c_o*w_o from its integer counts, so it does not
    depend on the trace order.
    """
    if not traces:
        raise ValueError("cannot build a graph from zero traces")
    by_class = {INLIER: 0, OUTLIER: 0}
    for tr in traces:
        by_class[tr.class_label] += 1
    if min(by_class.values()) == 0:
        missing = INLIER if by_class[INLIER] == 0 else OUTLIER
        raise SingleClassError(
            f"no {missing} traces remain; graph would be single-class"
        )

    counts: dict[tuple[str, str], list[int]] = {}
    seen: set[Predicate] = set()
    terminal = {INLIER: INLIER_ID, OUTLIER: OUTLIER_ID}
    for tr in traces:
        c = 1 if tr.class_label == OUTLIER else 0
        prev = SOURCE_ID
        for p in tr.predicates:
            seen.add(p)
            counts.setdefault((prev, predicate_id(p)), [0, 0])[c] += 1
            prev = predicate_id(p)
        counts.setdefault((prev, terminal[tr.class_label]), [0, 0])[c] += 1
    edges = {
        key: c_i * weights.w_i + c_o * weights.w_o for key, (c_i, c_o) in counts.items()
    }

    predicates = sorted(seen, key=lambda p: (p.feature_index, 0 if p.sign == LE else 1))
    return DpGraph(
        predicates=predicates,
        edges=edges,
        weights=weights,
        metadata=dict(metadata or {}),
    )


def build_model_graph(model: ForestModel, data: Dataset) -> DpGraph:
    """Fused traverse -> prune -> collapse -> weight -> build pipeline.

    Produces the same graph as composing the individual steps (verified by
    tests) from integer transition counts per class, without materializing
    traces. Every route ends at a leaf, so counts are read off how many rows
    reach each leaf (`forest._transition_counts`). The all-row counts come
    from fit's routing pass when `data` holds the matrix fit routed, and from
    one routing pass otherwise; only the outlier rows are routed again, once,
    and their kept counts are those of their visits to leaves above the depth
    cap. The inlier counts are the all-row counts minus the outlier rows'.
    Each edge weight is c_i*w_i + c_o*w_o, computed once, exactly as
    `build_graph` computes it.
    """
    if data.n_samples != model.n_train:
        raise ValueError(
            f"dataset has {data.n_samples} samples but model was trained on {model.n_train}"
        )
    weights = class_weights(model.outlier_count(), model.inlier_count())
    X = data.features
    n = data.n_samples
    d = data.n_features
    depth_cap = model.max_depth
    forest = model.forest

    # Counts use the layout beside forest._route: predicate codes 0..2d-1,
    # SOURCE = 2d, END = 2d + 1.
    m = _n_codes(d)
    visits = _leaf_visits(forest, X[model.labels == OUTLIER])
    deep = forest.depth >= depth_cap
    pruned = int(visits[deep].sum())
    if pruned == forest.n_trees * weights.n_o:
        raise SingleClassError("no Outlier traces remain; graph would be single-class")
    c_outliers = _transition_counts(forest, visits, d)
    kept = _transition_counts(forest, np.where(deep, 0, visits), d).reshape(m, m)

    # Graph node indexing: predicates 0..2d-1, then SOURCE, INLIER, OUTLIER.
    # END is the class terminal, so it maps to INLIER in the inlier counts
    # (same index) and moves to OUTLIER in the outlier counts.
    k = 2 * d
    src_idx, inl_idx, out_idx = k, k + 1, k + 2
    c_in = np.zeros((k + 3, k + 3), dtype=np.int64)
    c_in[:m, :m] = (_training_counts(model, X) - c_outliers).reshape(m, m)
    c_out = np.zeros((k + 3, k + 3), dtype=np.int64)
    c_out[:m, : k + 1] = kept[:, : k + 1]
    c_out[:m, out_idx] = kept[:, k + 1]
    dense = c_in * weights.w_i + c_out * weights.w_o

    id_of = (
        [predicate_id(Predicate(c // 2, LE if c % 2 == 0 else GT)) for c in range(k)]
        + [SOURCE_ID, INLIER_ID, OUTLIER_ID]
    )
    edges: dict[tuple[str, str], float] = {}
    order = [src_idx] + list(range(k)) + [inl_idx, out_idx]
    for a in order:
        for b in order:
            if dense[a, b] > 0.0:
                edges[(id_of[a], id_of[b])] = float(dense[a, b])

    present = dense.sum(axis=0) + dense.sum(axis=1)
    predicates = [
        Predicate(c // 2, LE if c % 2 == 0 else GT) for c in range(k) if present[c] > 0.0
    ]
    metadata = {
        "n_trees": model.params.n_trees,
        "max_subsample": model.params.max_subsample,
        "seed": model.params.seed,
        "leaf_adjustment": model.params.leaf_adjustment,
        "label_rule": _rule_to_dict(model.params.label_rule),
        "n_train": model.n_train,
        "subsample_size": model.subsample_size,
        "max_depth": depth_cap,
        "n_outliers": weights.n_o,
        "n_inliers": weights.n_i,
        "traces_total": model.params.n_trees * n,
        "traces_pruned": pruned,
        "feature_names": list(data.feature_names),
    }
    return DpGraph(predicates=predicates, edges=edges, weights=weights, metadata=metadata)
