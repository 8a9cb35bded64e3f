"""Decision predicate graph construction from a fitted isolation forest.

Every sample's route through every tree is one trace of the split predicates
it satisfied, labeled Outlier or Inlier by a mask over the samples. Outlier
traces that reach the depth cap are pruned, split values are dropped so
predicates become (feature, sign) pairs, and the surviving transitions are
counted per class. The graph is those two integer count matrices over
predicate nodes, a virtual source and the two class terminals; an edge's
weight is its counts times the class weights. Because the graph holds
counts, flow conservation at a node is an integer identity, and every flow
the IOP-Score reads is one count sum times one class weight. The counts are
read off how many rows of each class end at each leaf.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .forest import (
    Dataset,
    ForestModel,
    SingleClassError,
    _leaf_visits,
    _rule_to_dict,
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


def build_model_graph(
    model: ForestModel,
    data: Dataset,
    outlier: np.ndarray,
    visits: np.ndarray | None = None,
) -> DpGraph:
    """The graph of `data`'s routes, row i's traces Outlier iff `outlier[i]`.

    Gives the counts of the trace pipeline in tests/graph_reference.py. Every
    route ends at a final slot of the forest, so counts follow from how many
    routes of each class end at each (`forest._transition_counts`), the
    outliers' only at leaves above the depth cap. The outlier rows are
    routed for theirs, and the inlier visits are all rows' `visits` minus
    those: fit's `model.train_visits` for the training set, else one routing
    pass over all rows. A mask that is not one bool per row, or visits that
    cannot be `data`'s, is a ValueError.
    """
    outlier = np.asarray(outlier)
    if outlier.dtype != bool or outlier.shape != (data.n_samples,):
        raise ValueError(f"outlier mask must be {data.n_samples} bools, one per sample")
    n_o = int(np.count_nonzero(outlier))
    weights = class_weights(n_o, data.n_samples - n_o)
    X = data.features
    d = data.n_features
    depth_cap = model.max_depth
    forest = model.forest

    outlier_visits = _leaf_visits(forest, X[outlier])
    if visits is None:
        visits = _leaf_visits(forest, X)
    elif (
        visits.shape != forest.h.shape
        or visits.sum() != forest.n_trees * data.n_samples
        or (visits < outlier_visits).any()
    ):
        raise ValueError(
            "leaf visits must count one per (tree, row) pair of the dataset, "
            "at each leaf at least the outlier rows'"
        )
    inlier_visits = visits - outlier_visits
    # A route reaches the depth cap iff it ends at a final slot that is a
    # node: one whose parent splits.
    deep = np.isfinite(forest.threshold[forest.level(depth_cap - 1)]).repeat(2)
    pruned = int(outlier_visits[deep].sum())
    if pruned == forest.n_trees * n_o:
        raise SingleClassError("no Outlier traces remain; graph would be single-class")
    outlier_visits[deep] = 0

    c_in = _transition_counts(forest, inlier_visits, d, terminal=2 * d + 1)
    c_out = _transition_counts(forest, outlier_visits, d, terminal=2 * d + 2)

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
