"""Reference trace pipeline for the tests: traverse -> prune -> collapse -> count.

The object route the graph is defined by: one labeled trace of (feature,
sign, split value) triples per (tree, sample), walked by
`tree_reference.route`; outlier traces that reach the depth cap dropped;
split values dropped; then every transition of every trace counted per
class. It shares no code with `build_model_graph`, which reads the same
counts off leaf visits without materializing traces.
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from iforest_dpg.dpg import (
    INLIER_ID,
    OUTLIER_ID,
    SOURCE_ID,
    DpGraph,
    Predicate,
    predicate_id,
)
from iforest_dpg.forest import INLIER, OUTLIER, SingleClassError
from tree_reference import route, trees_of


class PredicateTriple(NamedTuple):
    feature_index: int
    sign: str
    split_value: float


@dataclass
class TraceList:
    """Ordered predicates satisfied by one sample traversing one tree."""

    sample_index: int
    tree_index: int
    predicates: list
    class_label: str


def traverse(model, data, outlier) -> list[TraceList]:
    """One labeled TraceList per (tree, sample), ordered by (tree, sample).

    Sample s's traces are Outlier traces iff `outlier[s]`, one bool per
    sample of `data`.
    """
    if len(outlier) != data.n_samples:
        raise ValueError(f"{len(outlier)} labels for {data.n_samples} samples")
    trees = trees_of(model)
    widest = max((f for tree in trees for f in tree.feature), default=-1)
    if widest >= data.n_features:
        raise ValueError(f"model splits on column {widest}; data has {data.n_features}")
    return [
        TraceList(
            sample_index=s,
            tree_index=t,
            predicates=[PredicateTriple(*step) for step in route(tree, x)[0]],
            class_label=OUTLIER if outlier[s] else INLIER,
        )
        for t, tree in enumerate(trees)
        for s, x in enumerate(data.features)
    ]


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


def node_ids(n_features: int) -> list[str]:
    """Graph node ids in matrix order: SOURCE, F0_LE, F0_GT, F1_LE, ..., terminals."""
    ids = [f"F{f}_{sign}" for f in range(n_features) for sign in ("LE", "GT")]
    return [SOURCE_ID, *ids, INLIER_ID, OUTLIER_ID]


def graph_of(counts, n_features, weights, metadata=None) -> DpGraph:
    """The graph whose edge (src_id, dst_id) has counts[(src_id, dst_id)] = (c_i, c_o)."""
    index = {node: i for i, node in enumerate(node_ids(n_features))}
    c_in = np.zeros((len(index), len(index)), dtype=np.int64)
    c_out = np.zeros_like(c_in)
    for (src, dst), (c_i, c_o) in counts.items():
        c_in[index[src], index[dst]] = c_i
        c_out[index[src], index[dst]] = c_o
    return DpGraph(c_in=c_in, c_out=c_out, weights=weights, metadata=dict(metadata or {}))


def build_graph(traces: list[TraceList], weights, n_features, metadata=None) -> DpGraph:
    """Count collapsed traces into the graph over n_features features.

    Each trace adds one to its class's count of (SOURCE -> first predicate),
    every consecutive pair, and (last predicate -> class terminal); traces
    with no predicates route SOURCE directly to their terminal.
    """
    if not traces:
        raise ValueError("cannot build a graph from zero traces")
    classes = {tr.class_label for tr in traces}
    if classes != {INLIER, OUTLIER}:
        missing = INLIER if INLIER not in classes else OUTLIER
        raise SingleClassError(f"no {missing} traces remain; graph would be single-class")
    counts: dict[tuple[str, str], list[int]] = {}
    for tr in traces:
        c = 1 if tr.class_label == OUTLIER else 0
        terminal = OUTLIER_ID if c else INLIER_ID
        chain = [SOURCE_ID, *map(predicate_id, tr.predicates), terminal]
        for edge in zip(chain, chain[1:]):
            counts.setdefault(edge, [0, 0])[c] += 1
    return graph_of(counts, n_features, weights, metadata)

