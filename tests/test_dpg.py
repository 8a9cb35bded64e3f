from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iforest_dpg.dpg import (
    GT,
    INLIER_ID,
    LE,
    OUTLIER_ID,
    SOURCE_ID,
    ClassWeights,
    Predicate,
    build_model_graph,
    class_weights,
    predicate_id,
    predicate_label,
)
from iforest_dpg.forest import (
    OUTLIER,
    Contamination,
    Dataset,
    ForestModel,
    ForestParams,
    SingleClassError,
    _leaf_visits,
    fit,
    max_tree_depth,
    score_samples,
)
from iforest_dpg.io import model_from_dict, model_to_dict
from iforest_dpg.metrics import score_graph
from iforest_dpg.synth import fixture_one
from graph_reference import (
    PredicateTriple,
    TraceList,
    build_graph,
    collapse,
    prune_deep_outlier_traces,
    traverse,
)
from tree_reference import Tree, flat, route, trees_of


def _manual_model(trees, labels):
    n = len(labels)
    forest = flat(trees)
    return ForestModel(
        forest=forest,
        params=ForestParams(n_trees=len(trees), seed=0),
        n_train=n,
        scores=np.full(n, 0.5),
        is_outlier=np.asarray(labels) == OUTLIER,
        cutoff=0.5,
        feature_names=[f"F{k}" for k in range(forest.width)],
    )


# ---------------------------------------------------------------------------
# ids and labels


def test_predicate_ids_and_labels():
    le = Predicate(3, LE)
    gt = Predicate(0, GT)
    assert predicate_id(le) == "F3_LE"
    assert predicate_id(gt) == "F0_GT"
    assert predicate_label(le) == "F3 <="
    assert predicate_label(gt, ["Age", "TSH"]) == "Age >"


# ---------------------------------------------------------------------------
# traverse (the reference trace pipeline in graph_reference.py)


def test_traverse_single_split():
    tree = Tree(feature=[2, -1, -1], split=[0.5, 0.0, 0.0], right=[2, -1, -1], size=[0, 1, 1])
    model = _manual_model([tree], ["Inlier", "Outlier"])
    data = Dataset(
        features=np.array([[0.0, 0.0, 0.3], [0.0, 0.0, 0.9]]),
        feature_names=["a", "b", "c"],
    )
    traces = traverse(model, data, model.is_outlier)
    assert len(traces) == 2
    assert traces[0].predicates == [PredicateTriple(2, LE, 0.5)]
    assert traces[0].class_label == "Inlier"
    assert traces[1].predicates == [PredicateTriple(2, GT, 0.5)]
    assert traces[1].class_label == "Outlier"


def test_traverse_single_leaf_tree():
    model = _manual_model([Tree([-1], [0.0], [-1], [2])], ["Outlier", "Inlier"])
    data = Dataset(features=np.zeros((2, 1)), feature_names=["a"])
    traces = traverse(model, data, model.is_outlier)
    assert [t.predicates for t in traces] == [[], []]
    assert [t.class_label for t in traces] == ["Outlier", "Inlier"]


def test_traverse_trace_count_and_order(small_model):
    data, model = small_model
    traces = traverse(model, data, model.is_outlier)
    assert len(traces) == model.params.n_trees * data.n_samples
    expected = [
        (t, s) for t in range(model.params.n_trees) for s in range(data.n_samples)
    ]
    assert [(tr.tree_index, tr.sample_index) for tr in traces] == expected
    cap = max_tree_depth(model.subsample_size)
    assert all(len(tr.predicates) <= cap for tr in traces)
    assert all(
        (tr.class_label == OUTLIER) == model.is_outlier[tr.sample_index] for tr in traces
    )


def test_traverse_rejects_wrong_sample_count(small_model):
    data, model = small_model
    shrunk = Dataset(features=data.features[:-1], feature_names=data.feature_names)
    with pytest.raises(ValueError):
        traverse(model, shrunk, model.is_outlier)


def test_traverse_rejects_narrow_data(small_model):
    data, model = small_model
    narrow = Dataset(
        features=data.features[:, :1], feature_names=data.feature_names[:1]
    )
    with pytest.raises(ValueError):
        traverse(model, narrow, model.is_outlier)


# ---------------------------------------------------------------------------
# prune / collapse


def _trace(label, length, sample=0, tree=0):
    preds = [PredicateTriple(0, LE, float(j)) for j in range(length)]
    return TraceList(
        sample_index=sample, tree_index=tree, predicates=preds, class_label=label
    )


def test_prune_drops_only_deep_outlier_traces():
    traces = [
        _trace("Outlier", 8),
        _trace("Outlier", 9),
        _trace("Outlier", 7),
        _trace("Inlier", 8),
        _trace("Inlier", 0),
    ]
    kept = prune_deep_outlier_traces(traces, dmax=8)
    assert [(t.class_label, len(t.predicates)) for t in kept] == [
        ("Outlier", 7),
        ("Inlier", 8),
        ("Inlier", 0),
    ]


def test_collapse_projects_and_keeps_repeats():
    tr = TraceList(
        sample_index=0,
        tree_index=0,
        predicates=[PredicateTriple(0, LE, 0.3), PredicateTriple(4, GT, 1.2)],
        class_label="Inlier",
    )
    assert collapse([tr])[0].predicates == [Predicate(0, LE), Predicate(4, GT)]

    rep = TraceList(
        sample_index=0,
        tree_index=0,
        predicates=[PredicateTriple(0, LE, 0.3), PredicateTriple(0, LE, 0.1)],
        class_label="Inlier",
    )
    assert collapse([rep])[0].predicates == [Predicate(0, LE), Predicate(0, LE)]

    empty = TraceList(sample_index=0, tree_index=0, predicates=[], class_label="Inlier")
    assert collapse([empty])[0].predicates == []


# ---------------------------------------------------------------------------
# class_weights


def test_class_weights_reference_counts():
    w = class_weights(1, 199)
    assert w.w_o == 200.0
    assert w.w_i == 200.0 / 199.0
    w = class_weights(4, 196)
    assert w.w_o == 50.0
    assert w.w_i == 200.0 / 196.0


def test_class_weights_balanced():
    w = class_weights(7, 7)
    assert (w.w_o, w.w_i) == (2.0, 2.0)


def test_class_weights_single_class_errors():
    with pytest.raises(SingleClassError):
        class_weights(0, 10)
    with pytest.raises(SingleClassError):
        class_weights(10, 0)


# ---------------------------------------------------------------------------
# build_graph (hand-traced examples)


def _ctrace(label, preds, sample=0, tree=0):
    return TraceList(
        sample_index=sample, tree_index=tree, predicates=preds, class_label=label
    )


A = Predicate(0, LE)
B = Predicate(1, GT)


def test_build_graph_hand_traced_aggregation():
    weights = ClassWeights(w_o=2.0, w_i=2.0, n_o=1, n_i=1)
    traces = [
        _ctrace("Inlier", [A, B]),
        _ctrace("Outlier", [A, B], sample=1),
    ]
    g = build_graph(traces, weights, n_features=2)
    # Edges come in node order: SOURCE, F0 <=, F0 >, F1 <=, F1 >, terminals.
    assert list(g.edges.items()) == [
        ((SOURCE_ID, "F0_LE"), 4.0),
        (("F0_LE", "F1_GT"), 4.0),
        (("F1_GT", INLIER_ID), 2.0),
        (("F1_GT", OUTLIER_ID), 2.0),
    ]
    assert g.predicates == [A, B]
    # Rows and columns: SOURCE, F0_LE, F0_GT, F1_LE, F1_GT, INLIER, OUTLIER.
    assert g.c_in[0, 1] == g.c_in[1, 4] == g.c_in[4, 5] == 1
    assert g.c_out[0, 1] == g.c_out[1, 4] == g.c_out[4, 6] == 1
    assert g.c_in.sum() == g.c_out.sum() == 3


def test_build_graph_single_trace_and_duplicates():
    weights = ClassWeights(w_o=3.0, w_i=2.0, n_o=2, n_i=3)
    g = build_graph(
        [_ctrace("Inlier", [A]), _ctrace("Outlier", [A]), _ctrace("Outlier", [A])],
        weights,
        n_features=1,
    )
    assert g.edges == {
        (SOURCE_ID, "F0_LE"): 2.0 + 3.0 + 3.0,
        ("F0_LE", INLIER_ID): 2.0,
        ("F0_LE", OUTLIER_ID): 6.0,
    }


def test_build_graph_empty_traces_route_source_to_terminal():
    weights = ClassWeights(w_o=4.0, w_i=1.5, n_o=1, n_i=2)
    g = build_graph(
        [_ctrace("Outlier", []), _ctrace("Inlier", [A])],
        weights,
        n_features=1,
    )
    assert g.edges == {
        (SOURCE_ID, "F0_LE"): 1.5,
        (SOURCE_ID, OUTLIER_ID): 4.0,
        ("F0_LE", INLIER_ID): 1.5,
    }


def test_build_graph_self_loop_from_repeated_predicate():
    weights = ClassWeights(w_o=2.0, w_i=2.0, n_o=1, n_i=1)
    g = build_graph(
        [_ctrace("Outlier", [A, A]), _ctrace("Inlier", [B])],
        weights,
        n_features=2,
    )
    assert g.edges[("F0_LE", "F0_LE")] == 2.0


def test_build_graph_errors():
    weights = ClassWeights(w_o=2.0, w_i=2.0, n_o=1, n_i=1)
    with pytest.raises(ValueError):
        build_graph([], weights, n_features=1)
    with pytest.raises(SingleClassError):
        build_graph([_ctrace("Inlier", [A])], weights, n_features=1)


# ---------------------------------------------------------------------------
# brute-force oracle: rational-arithmetic transition counting


def _oracle_edges(model, data, outlier):
    """Fraction-exact expected edge map of `data` labeled by the `outlier`
    mask, or None when pruning empties a class."""
    n_o = int(sum(outlier))
    n_i = len(outlier) - n_o
    if n_o == 0 or n_i == 0:
        return None
    total = Fraction(n_o + n_i)
    w = {"Outlier": total / n_o, "Inlier": total / n_i}
    dmax = max_tree_depth(model.subsample_size)

    kept = {"Outlier": 0, "Inlier": 0}
    edges: dict[tuple[str, str], Fraction] = {}
    for tree in trees_of(model):
        for s in range(data.n_samples):
            label = "Outlier" if outlier[s] else "Inlier"
            steps, _ = route(tree, data.features[s])
            if label == "Outlier" and len(steps) >= dmax:
                continue
            kept[label] += 1
            ids = [f"F{f}_{'LE' if sign == LE else 'GT'}" for f, sign, _ in steps]
            terminal = "OUTLIER" if label == "Outlier" else "INLIER"
            chain = ["SOURCE"] + ids + [terminal]
            for a, b in zip(chain, chain[1:]):
                edges[(a, b)] = edges.get((a, b), Fraction(0)) + w[label]
    if kept["Outlier"] == 0 or kept["Inlier"] == 0:
        return None
    return edges


def _oracle_iops(edges):
    """Fraction-exact IOP of every predicate node of an oracle edge map."""
    inflow: dict[str, Fraction] = {}
    for (_, dst), w in edges.items():
        inflow[dst] = inflow.get(dst, Fraction(0)) + w
    return {
        node: (edges.get((node, "INLIER"), 0) - edges.get((node, "OUTLIER"), 0)) / f_in
        for node, f_in in inflow.items()
        if node not in ("INLIER", "OUTLIER")
    }


def _assert_matches_oracle(g, expected):
    """The graph's edges and IOPs are the oracle's; returns how many
    predicates have a pure-class IOP of exactly +-1."""
    assert set(g.edges) == set(expected)
    for key, frac in expected.items():
        assert g.edges[key] == pytest.approx(float(frac), rel=1e-9)
    exact = _oracle_iops(expected)
    report = score_graph(g)
    assert {predicate_id(e.predicate) for e in report.entries} == set(exact)
    pure = 0
    for e in report.entries:
        iop = exact[predicate_id(e.predicate)]
        assert abs(Fraction(e.iop) - iop) <= Fraction(4, 2**52)
        if abs(iop) == 1:
            assert e.iop == iop
            pure += 1
    return pure


def _assert_matches_object_route(g, model, data, outlier):
    """The graph's counts are those of the step-by-step trace pipeline."""
    dmax = max_tree_depth(model.subsample_size)
    traces = collapse(prune_deep_outlier_traces(traverse(model, data, outlier), dmax))
    n_o = int(np.count_nonzero(outlier))
    staged = build_graph(traces, class_weights(n_o, len(outlier) - n_o), data.n_features)
    assert np.array_equal(staged.c_in, g.c_in)
    assert np.array_equal(staged.c_out, g.c_out)
    assert staged.predicates == g.predicates
    assert list(staged.edges.items()) == list(g.edges.items())


def test_oracle_equivalence_on_random_tiny_instances():
    rng = np.random.default_rng(2024)
    built, pure = 0, 0
    for trial in range(50):
        n = int(rng.integers(4, 11))
        d = int(rng.integers(1, 4))
        data = Dataset(
            features=rng.normal(size=(n, d)),
            feature_names=[f"F{i}" for i in range(d)],
        )
        params = ForestParams(
            n_trees=int(rng.integers(1, 4)),
            seed=trial,
            label_rule=Contamination(0.3),
        )
        model = fit(data, params)
        outlier = model.is_outlier
        expected = _oracle_edges(model, data, outlier)
        if expected is None:
            with pytest.raises(SingleClassError):
                build_model_graph(model, data, outlier, model.train_visits)
            continue
        built += 1
        g = build_model_graph(model, data, outlier, model.train_visits)
        pure += _assert_matches_oracle(g, expected)
    assert built >= 25, f"only {built}/50 instances produced two-class graphs"
    assert pure > 0, "no pure-class predicate node was exercised"


def test_fused_pipeline_matches_object_route(small_model):
    data, model = small_model
    outlier = model.is_outlier
    fused = build_model_graph(model, data, outlier, model.train_visits)
    _assert_matches_object_route(fused, model, data, outlier)


def test_graph_from_reloaded_model_matches_fitted(small_model):
    # The fitted model keeps fit's leaf visits; a reloaded one has none and
    # routes the training set itself. Both must give one graph.
    data, model = small_model
    assert model.train_visits is not None
    reloaded = model_from_dict(model_to_dict(model))
    assert reloaded.train_visits is None
    fresh = build_model_graph(model, data, model.is_outlier, model.train_visits)
    again = build_model_graph(reloaded, data, reloaded.is_outlier)
    assert np.array_equal(again.c_in, fresh.c_in)
    assert np.array_equal(again.c_out, fresh.c_out)
    assert again.metadata == fresh.metadata


def test_graph_with_train_visits_equals_graph_without(small_model):
    data, model = small_model
    outlier = model.is_outlier
    given = build_model_graph(model, data, outlier, model.train_visits)
    routed = build_model_graph(model, data, outlier)
    assert np.array_equal(given.c_in, routed.c_in)
    assert np.array_equal(given.c_out, routed.c_out)
    assert given.metadata == routed.metadata


def test_mismatched_mask_or_visits_is_a_value_error(small_model):
    data, model = small_model
    outlier = model.is_outlier
    for mask in (outlier[:-1], outlier.astype(int), outlier[:, None]):
        with pytest.raises(ValueError, match="outlier mask"):
            build_model_graph(model, data, mask)
    # Visits of a matrix with another row count do not sum to T x n.
    shorter = _leaf_visits(model.forest, data.features[:-1])
    # Visits that sum to T x n, moved off a leaf some outlier row reaches.
    moved = model.train_visits.copy()
    reached = np.flatnonzero(_leaf_visits(model.forest, data.features[outlier]))
    other = np.flatnonzero(moved > 0)
    other = other[other != reached[0]][0]
    moved[other] += moved[reached[0]]
    moved[reached[0]] = 0
    assert moved.sum() == model.train_visits.sum()
    for visits in (shorter, moved, model.train_visits[:-1]):
        with pytest.raises(ValueError, match="leaf visits"):
            build_model_graph(model, data, outlier, visits)


def test_reloaded_model_graphs_a_new_batch_by_its_cutoff(small_model):
    # A saved model explains any batch: the rows it labels Outlier by its
    # stored cutoff are the outlier traces.
    data, model = small_model
    reloaded = model_from_dict(model_to_dict(model))
    rng = np.random.default_rng(5)
    batch = Dataset(
        features=np.vstack([rng.normal(size=(30, 3)), [[5.0, -5.0, 5.0], [-6.0, 0.0, 6.0]]]),
        feature_names=data.feature_names,
    )
    outlier = score_samples(reloaded, batch) >= reloaded.cutoff
    assert 0 < outlier.sum() < batch.n_samples
    g = build_model_graph(reloaded, batch, outlier)
    assert g.metadata["n_outliers"] == outlier.sum()
    assert g.metadata["traces_total"] == model.params.n_trees * batch.n_samples
    _assert_matches_object_route(g, reloaded, batch, outlier)
    _assert_matches_oracle(g, _oracle_edges(reloaded, batch, outlier))


def test_graph_of_fixture_one_true_labels_matches_oracles():
    # The graph of the true labels, one injected outlier, on a forest that
    # labels ten rows Outlier: the mask alone decides the classes.
    data, _ = fixture_one(seed=7)
    params = ForestParams(n_trees=30, seed=7, label_rule=Contamination(0.05))
    model = fit(data, params)
    truth = data.labels == OUTLIER
    assert truth.sum() == 1 and model.is_outlier.sum() == 10
    g = build_model_graph(model, data, truth, model.train_visits)
    assert (g.metadata["n_outliers"], g.metadata["n_inliers"]) == (1, 199)
    assert g.weights.w_o == 200.0
    _assert_matches_object_route(g, model, data, truth)
    _assert_matches_oracle(g, _oracle_edges(model, data, truth))
    assert not np.array_equal(
        g.c_out, build_model_graph(model, data, model.is_outlier).c_out
    )


# ---------------------------------------------------------------------------
# graph invariants


def _assert_graph_invariants(g, n_features):
    # One row and column per node: 2d predicates + source + two terminals.
    size = 2 * n_features + 3
    for counts in (g.c_in, g.c_out):
        assert counts.shape == (size, size) and counts.dtype == np.int64
        assert counts.min() >= 0
        # Terminals emit nothing; the source absorbs nothing.
        assert not counts[-2:].any() and not counts[:, 0].any()
        # Flow conservation at every predicate node, per class, exactly.
        assert np.array_equal(counts.sum(axis=0)[1:-2], counts.sum(axis=1)[1:-2])
    # Inlier traces end at INLIER, outlier traces at OUTLIER.
    assert not g.c_in[:, -1].any() and not g.c_out[:, -2].any()
    for p in g.predicates:
        assert g.c_in[:, g.index(p)].sum() + g.c_out[:, g.index(p)].sum() > 0
    # Every predicate reaches a terminal and is reached from the source.
    forward = {SOURCE_ID}
    frontier = [SOURCE_ID]
    succ: dict[str, list[str]] = {}
    pred: dict[str, list[str]] = {}
    for (a, b) in g.edges:
        succ.setdefault(a, []).append(b)
        pred.setdefault(b, []).append(a)
    while frontier:
        node = frontier.pop()
        for nxt in succ.get(node, []):
            if nxt not in forward:
                forward.add(nxt)
                frontier.append(nxt)
    backward = {INLIER_ID, OUTLIER_ID}
    frontier = [INLIER_ID, OUTLIER_ID]
    while frontier:
        node = frontier.pop()
        for prv in pred.get(node, []):
            if prv not in backward:
                backward.add(prv)
                frontier.append(prv)
    for p in g.predicates:
        assert predicate_id(p) in forward
        assert predicate_id(p) in backward


def test_graph_invariants_on_small_model(small_model):
    data, model = small_model
    g = build_model_graph(model, data, model.is_outlier)
    _assert_graph_invariants(g, data.n_features)


def test_terminal_inflow_identity(small_model):
    # The terminal counts are the kept traces of each class, exactly.
    data, model = small_model
    outlier = model.is_outlier
    g = build_model_graph(model, data, outlier)
    dmax = max_tree_depth(model.subsample_size)
    traces = prune_deep_outlier_traces(traverse(model, data, outlier), dmax)
    n_out = sum(1 for t in traces if t.class_label == "Outlier")
    n_in = sum(1 for t in traces if t.class_label == "Inlier")
    # One terminal transition per kept trace, and one start from SOURCE.
    assert g.c_in[:, -2].sum() == g.c_in[0].sum() == n_in
    assert g.c_out[:, -1].sum() == g.c_out[0].sum() == n_out
    assert g.metadata["traces_pruned"] == model.params.n_trees * data.n_samples - len(
        traces
    )


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_graph_invariants_randomized(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(8, 40))
    d = int(rng.integers(1, 5))
    data = Dataset(
        features=rng.normal(size=(n, d)),
        feature_names=[f"F{i}" for i in range(d)],
    )
    model = fit(
        data,
        ForestParams(n_trees=8, seed=seed, label_rule=Contamination(0.25)),
    )
    try:
        g = build_model_graph(model, data, model.is_outlier)
    except SingleClassError:
        return
    _assert_graph_invariants(g, d)


def test_metadata_records_run_configuration(small_model):
    data, model = small_model
    g = build_model_graph(model, data, model.is_outlier)
    md = g.metadata
    assert md["n_trees"] == model.params.n_trees
    assert md["seed"] == model.params.seed
    assert md["label_rule"] == {"kind": "contamination", "fraction": 0.05}
    assert md["n_outliers"] == model.is_outlier.sum()
    assert md["n_inliers"] == (~model.is_outlier).sum()
    assert md["feature_names"] == data.feature_names
    assert md["traces_total"] == model.params.n_trees * data.n_samples
