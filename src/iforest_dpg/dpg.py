"""Decision predicate graph construction from a fitted isolation forest.

Every training sample's route through every tree is one labeled trace of the
split predicates it satisfied. Outlier traces that reach the depth cap are
pruned, split values are dropped so predicates become (feature, sign) pairs,
and the surviving transitions are counted per class. The graph is those two
integer count matrices over predicate nodes, a virtual source and the two
class terminals; an edge's weight is its counts times the class weights.
Because the graph holds counts, flow conservation at a node is an integer
identity, and every flow the IOP-Score reads is one count sum times one
class weight. The routes are the ones `fit` already walks to score the
training set, so the builder reuses fit's transition counts. Only the
outlier rows are routed again, once: their counts, and the counts of the
traces pruned from them, are read off how many of them reach each leaf.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .forest import (
    OUTLIER,
    Dataset,
    ForestModel,
    SingleClassError,
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


class Predicate(NamedTuple):
    feature_index: int
    sign: str


def predicate_id(p: Predicate) -> str:
    """Stable node id, e.g. (3, "<=") -> "F3_LE"."""
    return f"F{p.feature_index}_{'LE' if p.sign == LE else 'GT'}"


def predicate_label(p: Predicate, feature_names: list[str] | None = None) -> str:
    """Display label, e.g. "F3 <=" or "TSH >" when feature names are known."""
    name = feature_names[p.feature_index] if feature_names else f"F{p.feature_index}"
    return f"{name} {p.sign}"


def _code_predicate(code: int) -> Predicate:
    """Predicate code 2*feature + (sign is ">") back to its predicate."""
    return Predicate(code // 2, GT if code % 2 else LE)


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


@dataclass(frozen=True, eq=False)
class DpGraph:
    """Class-weighted predicate-transition graph, held as its integer counts.

    `c_in` and `c_out` are the int64 (2d+3) x (2d+3) inlier and outlier
    transition counts, row the source node and column the destination, in
    node order SOURCE, predicate codes 0..2d-1 (2*feature + (sign is ">")),
    INLIER, OUTLIER. An edge weighs c_in*w_i + c_out*w_o. The virtual source
    carries path-start flow so every predicate node has positive inflow; it
    is hidden in rendered output by default. `edges` and `predicates` are
    derived from the counts on each access, in node order. Treat instances
    as immutable once built.
    """

    c_in: np.ndarray
    c_out: np.ndarray
    weights: ClassWeights
    metadata: dict = field(default_factory=dict)

    def node_ids(self) -> list[str]:
        """The id of every row of the count matrices, in node order."""
        ids = [predicate_id(_code_predicate(c)) for c in range(len(self.c_in) - 3)]
        return [SOURCE_ID, *ids, INLIER_ID, OUTLIER_ID]

    def index(self, p: Predicate) -> int:
        """Row and column of predicate node p in the count matrices."""
        return 1 + 2 * p.feature_index + (p.sign == GT)

    @property
    def edges(self) -> dict[tuple[str, str], float]:
        """(src_id, dst_id) -> weight, for every transition with a count."""
        weight = self.c_in * self.weights.w_i + self.c_out * self.weights.w_o
        ids = self.node_ids()
        return {
            (ids[a], ids[b]): float(weight[a, b])
            for a, b in zip(*np.nonzero(self.c_in + self.c_out))
        }

    @property
    def predicates(self) -> list[Predicate]:
        """Predicate nodes that some kept trace enters."""
        inflow = (self.c_in + self.c_out).sum(axis=0)[1:-2]
        return [_code_predicate(c) for c in np.flatnonzero(inflow).tolist()]


def build_model_graph(model: ForestModel, data: Dataset) -> DpGraph:
    """The graph's count matrices, without materializing traces.

    Gives the counts of the step-by-step trace pipeline in
    tests/graph_reference.py, which the tests check it against. Every route
    ends at a leaf, so counts are read off how many rows reach each leaf
    (`forest._transition_counts`). The all-row counts come from fit's routing
    pass when `data` holds the matrix fit routed, and from one routing pass
    otherwise; only the outlier rows are routed again, once, and their kept
    counts are those of their visits to leaves above the depth cap. The
    inlier counts are the all-row counts minus the outlier rows'.
    """
    if data.n_samples != model.n_train:
        raise ValueError(
            f"dataset has {data.n_samples} samples but model was trained on {model.n_train}"
        )
    weights = class_weights(model.outlier_count(), model.inlier_count())
    X = data.features
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
    c_outliers = _transition_counts(forest, visits, d).reshape(m, m)
    kept = _transition_counts(forest, np.where(deep, 0, visits), d).reshape(m, m)

    # Graph node order puts SOURCE first and moves each code up by one. END
    # is the class terminal: INLIER in the inlier counts, OUTLIER in the
    # outlier counts.
    k = 2 * d
    to_inlier = np.r_[1 : k + 1, 0, k + 1]
    to_outlier = np.r_[1 : k + 1, 0, k + 2]
    c_in = np.zeros((k + 3, k + 3), dtype=np.int64)
    c_in[np.ix_(to_inlier, to_inlier)] = _training_counts(model, X).reshape(m, m) - c_outliers
    c_out = np.zeros_like(c_in)
    c_out[np.ix_(to_outlier, to_outlier)] = kept

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
        "traces_total": model.params.n_trees * data.n_samples,
        "traces_pruned": pruned,
        "feature_names": list(data.feature_names),
    }
    return DpGraph(c_in=c_in, c_out=c_out, weights=weights, metadata=metadata)
