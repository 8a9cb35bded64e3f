import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iforest_dpg import forest as forest_module
from iforest_dpg.dpg import GT
from iforest_dpg.forest import (
    C1,
    OUTLIER,
    Contamination,
    Dataset,
    ForestParams,
    ScoreThreshold,
    SingleClassError,
    _route,
    _transition_counts,
    anomaly_score,
    average_path_normalizer,
    fit,
    label_scores,
    max_tree_depth,
    score_samples,
)
from iforest_dpg.synth import InjectionSpec, SynthConfig, fixture_one, generate
from tree_reference import Tree, flat, grow_forest, path_length, route, trees_of, walk


# ---------------------------------------------------------------------------
# average_path_normalizer


def test_normalizer_reference_values():
    assert average_path_normalizer(2) == pytest.approx(0.1544, abs=1e-4)
    assert average_path_normalizer(3) == pytest.approx(1.2074, abs=1e-3)
    assert average_path_normalizer(256) == pytest.approx(10.2447, abs=1e-3)


def test_normalizer_closed_form():
    for n in (2, 5, 37, 200):
        expected = 2.0 * (math.log(n - 1) + 0.5772) - 2.0 * (n - 1) / n
        assert average_path_normalizer(n) == expected


def test_normalizer_rejects_small_n():
    for n in (1, 0, -3):
        with pytest.raises(ValueError):
            average_path_normalizer(n)
    assert C1 == 0.0


def test_normalizer_strictly_increasing():
    values = [average_path_normalizer(n) for n in range(2, 400)]
    assert all(a < b for a, b in zip(values, values[1:]))


# ---------------------------------------------------------------------------
# max_tree_depth


def test_max_tree_depth_values():
    assert max_tree_depth(256) == 8
    assert max_tree_depth(200) == 8
    assert max_tree_depth(1000) == 8  # capped by the 256 subsample limit
    assert max_tree_depth(2) == 1
    assert max_tree_depth(4) == 2
    assert max_tree_depth(5) == 3


def test_max_tree_depth_rejects_small():
    with pytest.raises(ValueError):
        max_tree_depth(1)


# ---------------------------------------------------------------------------
# anomaly_score


def test_anomaly_score_fixed_point_is_half():
    # A mean path equal to c(n) must score exactly 0.5.
    for n in (2, 3, 10, 200, 256):
        assert anomaly_score(average_path_normalizer(n), n) == 0.5


def test_anomaly_score_boundaries():
    assert anomaly_score(0.0, 256) == 1.0
    assert 0.0 < anomaly_score(1000.0, 256) < 0.5


def test_anomaly_score_vectorized_matches_scalar():
    paths = np.array([0.0, 1.0, 5.0, 12.0])
    vector = anomaly_score(paths, 128)
    for p, s in zip(paths, vector):
        assert anomaly_score(float(p), 128) == s


@given(
    lo=st.floats(min_value=0.0, max_value=50.0),
    gap=st.floats(min_value=1e-6, max_value=50.0),
    n=st.integers(min_value=2, max_value=512),
)
def test_anomaly_score_strictly_decreasing(lo, gap, n):
    # Strictly decreasing for any float-distinguishable path difference.
    assert anomaly_score(lo, n) > anomaly_score(lo + gap, n)


# ---------------------------------------------------------------------------
# path lengths: h at the leaf a row is routed to


# One split on feature 0 at 0.5: a left leaf of 3 rows, a right leaf of 1.
_TOY_TREE = Tree(feature=[0, -1, -1], split=[0.5, 0.0, 0.0], right=[2, -1, -1], size=[0, 3, 1])


def _path_length(x, leaf_adjustment):
    forest = flat([_TOY_TREE], leaf_adjustment)
    return forest.h[_route(forest, np.array([x]))[0, 0]]


def test_path_length_with_and_without_adjustment():
    assert _path_length([0.2], leaf_adjustment=False) == 1.0
    assert _path_length([0.2], leaf_adjustment=True) == pytest.approx(
        1.0 + average_path_normalizer(3)
    )
    # Single-sample leaves never get an adjustment.
    assert _path_length([0.9], leaf_adjustment=True) == 1.0


def test_boundary_value_routes_left():
    assert _path_length([0.5], leaf_adjustment=True) == pytest.approx(
        1.0 + average_path_normalizer(3)
    )


# ---------------------------------------------------------------------------
# routing kernel


def test_route_matches_object_walk_on_edge_cases():
    # Every row but row 4 sits exactly on a split value, which routes left;
    # the second tree is a single leaf, so its routes are SOURCE -> END; the
    # third splits twice on one feature, a self-loop transition.
    trees = [
        Tree(
            feature=[0, 1, -1, -1, -1],
            split=[0.5, -1.0, 0.0, 0.0, 0.0],
            right=[4, 3, -1, -1, -1],
            size=[0, 0, 1, 2, 3],
        ),
        Tree(feature=[-1], split=[0.0], right=[-1], size=[4]),
        Tree(
            feature=[1, -1, 1, -1, -1],
            split=[2.0, 0.0, 3.0, 0.0, 0.0],
            right=[2, -1, 4, -1, -1],
            size=[0, 1, 0, 2, 1],
        ),
    ]
    X = np.array(
        [[0.5, -1.0], [0.5, 0.0], [0.9, 2.0], [0.1, 3.0], [0.2, 3.5], [0.5, 2.0]]
    )
    m = 2 * X.shape[1] + 2
    source, end = m - 2, m - 1
    for adjust in (False, True):
        forest = flat(trees, adjust)
        leaves = _route(forest, X)
        assert leaves.shape == (len(trees), len(X))
        for t, tree in enumerate(trees):
            for i, x in enumerate(X):
                leaf = leaves[t, i]
                assert forest.leaf[leaf]
                h = float(forest.depth[leaf])
                if adjust and forest.size[leaf] > 1:
                    h += average_path_normalizer(int(forest.size[leaf]))
                assert h == path_length(tree, x, adjust)
                assert forest.h[leaf] == h
                assert leaf == forest.roots[t] + route(tree, x)[1]
    for tree in trees:
        single = flat([tree])
        visits = np.bincount(_route(single, X)[0], minlength=single.n_nodes)
        expected = np.zeros(m * m, dtype=np.int64)
        for x in X:
            codes = [2 * f + (sign == GT) for f, sign, _ in route(tree, x)[0]]
            chain = [source, *codes, end]
            for a, b in zip(chain, chain[1:]):
                expected[a * m + b] += 1
        assert np.array_equal(_transition_counts(single, visits, X.shape[1]), expected)
    first = flat(trees[:1])
    assert first.depth[_route(first, X)[0, 0]] == 2  # (0.5, -1.0): left, left
    assert _route(first, np.empty((0, 2))).shape == (1, 0)


def _stepwise_counts(trees, X, keep):
    """Transition counts by walking each kept (tree, row) route step by step."""
    m = 2 * X.shape[1] + 2
    counts = np.zeros(m * m, dtype=np.int64)
    for tree in trees:
        for x in X:
            steps, _ = route(tree, x)
            if not keep(len(steps)):
                continue
            chain = [m - 2, *(2 * f + (sign == GT) for f, sign, _ in steps), m - 1]
            for a, b in zip(chain, chain[1:]):
                counts[a * m + b] += 1
    return counts


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_transition_counts_match_stepwise_routes(seed):
    # Counts read off leaf occupancy must equal counting every step of every
    # route, for all rows, for a row subset, and for deep leaves only.
    rng = np.random.default_rng(seed)
    n, d = 60, 3
    X = rng.normal(size=(n, d)).round(1)  # rounding makes split-value ties
    X[n // 2 :] = X[: n - n // 2]  # every row appears twice
    data = Dataset(features=X, feature_names=[f"F{i}" for i in range(d)])
    model = fit(data, ForestParams(n_trees=12, max_subsample=32, seed=seed))
    forest = model.forest
    trees = trees_of(model)
    cap = model.max_depth
    visits = np.bincount(_route(forest, X).ravel(), minlength=forest.n_nodes)
    assert np.array_equal(
        _transition_counts(forest, visits, d),
        _stepwise_counts(trees, X, lambda k: True),
    )
    assert np.array_equal(model._train_counts[1], _transition_counts(forest, visits, d))
    subset = X[rng.choice(n, size=17, replace=False)]
    sub_visits = np.bincount(_route(forest, subset).ravel(), minlength=forest.n_nodes)
    assert np.array_equal(
        _transition_counts(forest, sub_visits, d),
        _stepwise_counts(trees, subset, lambda k: True),
    )
    deep_visits = np.where(forest.depth >= cap, sub_visits, 0)
    assert deep_visits.sum() > 0
    assert np.array_equal(
        _transition_counts(forest, deep_visits, d),
        _stepwise_counts(trees, subset, lambda k: k >= cap),
    )


def test_path_sums_follow_tree_order(small_model, monkeypatch):
    # Scores add each tree's path length in tree order, block by block; a
    # plain per-tree loop must give the same bits. Blocks of 3 rows leave a
    # last block of 1 of the 40 rows.
    data, model = small_model
    forest = model.forest
    leaves = _route(forest, data.features)
    total = np.zeros(data.n_samples)
    for t in range(forest.n_trees):
        total += forest.h[leaves[t]]
    expected = anomaly_score(total / forest.n_trees, model.subsample_size)
    assert np.array_equal(model.scores, expected)
    monkeypatch.setattr(forest_module, "_BLOCK_PAIRS", 3 * forest.n_trees)
    assert np.array_equal(score_samples(model, data), expected)
    for i in range(data.n_samples):
        assert score_samples(model, data.features[i : i + 1])[0] == expected[i]


# ---------------------------------------------------------------------------
# fit


def test_fit_deterministic(small_data):
    params = ForestParams(n_trees=20, seed=5)
    a = fit(small_data, params)
    b = fit(small_data, params)
    assert trees_of(a) == trees_of(b)
    assert np.array_equal(a.scores, b.scores)
    assert np.array_equal(a.labels, b.labels)


def test_fit_seed_changes_forest(small_data):
    a = fit(small_data, ForestParams(n_trees=20, seed=5))
    b = fit(small_data, ForestParams(n_trees=20, seed=6))
    assert trees_of(a) != trees_of(b)


@pytest.mark.parametrize("seed", [0, 3, 8])
@pytest.mark.parametrize("variant", ["plain", "constant column", "duplicate rows"])
def test_fitted_table_matches_recursive_grower(seed, variant):
    # The iterative grower must make the recursive reference's trees, split
    # for split; a constant column takes the redraw path.
    data, _ = fixture_one(seed=seed)
    X = data.features.copy()
    if variant == "constant column":
        X[:, 2] = 1.5
    elif variant == "duplicate rows":
        X[100:] = X[:100]
    params = ForestParams(n_trees=40, seed=seed)
    model = fit(Dataset(features=X, feature_names=data.feature_names), params)
    reference = grow_forest(X, params)
    assert trees_of(model) == reference
    table = flat(reference)
    for name in ("roots", "feature", "threshold", "child", "leaf", "size", "depth", "h", "code"):
        assert np.array_equal(getattr(model.forest, name), getattr(table, name)), name


def test_tree_structure_bounds(small_model):
    data, model = small_model
    cap = max_tree_depth(model.subsample_size)
    for root, tree in zip(model.forest.roots, trees_of(model)):
        leaf_sizes = 0
        for node, depth in walk(tree):
            assert depth <= cap
            assert model.forest.depth[root + node] == depth
            if tree.feature[node] < 0:
                assert tree.size[node] >= 1
                leaf_sizes += tree.size[node]
        assert leaf_sizes == model.subsample_size


def test_scores_match_object_route(small_model):
    # The vectorized scorer must agree with the per-tree scalar walk.
    data, model = small_model
    adjust = model.params.leaf_adjustment
    for i in range(data.n_samples):
        mean = np.mean(
            [path_length(t, data.features[i], adjust) for t in trees_of(model)]
        )
        assert model.scores[i] == pytest.approx(
            anomaly_score(mean, model.subsample_size), rel=1e-12
        )


def test_scores_in_unit_interval(small_model):
    _, model = small_model
    assert np.all(model.scores > 0.0)
    assert np.all(model.scores <= 1.0)


def test_all_identical_rows_warns_and_degenerates():
    X = np.ones((6, 2))
    data = Dataset(features=X, feature_names=["a", "b"])
    with pytest.warns(UserWarning):
        model = fit(data, ForestParams(n_trees=5, seed=0))
    for tree in trees_of(model):
        assert tree.feature == [-1]
    assert model.forest.max_depth == 0
    assert len(set(model.scores.tolist())) == 1


def test_constant_feature_is_never_split(small_data):
    X = small_data.features.copy()
    X[:, 1] = 7.5
    data = Dataset(features=X, feature_names=small_data.feature_names)
    model = fit(data, ForestParams(n_trees=15, seed=2))
    for tree in trees_of(model):
        assert 1 not in tree.feature


def test_score_samples_new_data(small_model):
    data, model = small_model
    inlier = np.zeros((1, 3))
    outlier = np.full((1, 3), 9.0)
    s_in = score_samples(model, inlier)[0]
    s_out = score_samples(model, outlier)[0]
    assert s_out > s_in
    assert np.array_equal(score_samples(model, data), model.scores)


# ---------------------------------------------------------------------------
# labeling


def test_threshold_labeling_example():
    scores = np.array([0.7, 0.4, 0.45])
    labels = label_scores(scores, ScoreThreshold(0.5))
    assert labels.tolist() == ["Outlier", "Inlier", "Inlier"]


def test_threshold_boundary_is_outlier():
    labels = label_scores(np.array([0.5, 0.49999]), ScoreThreshold(0.5))
    assert labels.tolist() == ["Outlier", "Inlier"]


def test_contamination_tie_breaks_to_lower_index():
    scores = np.array([0.6, 0.6, 0.3])
    labels = label_scores(scores, Contamination(1 / 3))
    assert labels.tolist() == ["Outlier", "Inlier", "Inlier"]


def test_contamination_count_is_ceiling():
    scores = np.linspace(0.1, 0.9, 10)
    labels = label_scores(scores, Contamination(0.25))
    assert (labels == "Outlier").sum() == 3  # ceil(2.5)


def test_contamination_zero_outliers_raises():
    with pytest.raises(SingleClassError, match="no outliers detected"):
        label_scores(np.array([0.5, 0.6]), Contamination(0.0))


def test_cutoff_follows_label_rule(small_data):
    # A threshold rule keeps its threshold; contamination keeps the lowest
    # training-outlier score, which relabels the training set as fit did.
    rule = ScoreThreshold(0.6)
    assert fit(small_data, ForestParams(n_trees=10, seed=1, label_rule=rule)).cutoff == 0.6
    model = fit(small_data, ForestParams(n_trees=10, seed=1, label_rule=Contamination(0.1)))
    assert model.cutoff == model.scores[model.labels == OUTLIER].min()
    relabelled = label_scores(model.scores, ScoreThreshold(model.cutoff))
    assert np.array_equal(relabelled, model.labels)


def test_params_validation():
    with pytest.raises(ValueError):
        ForestParams(n_trees=0)
    with pytest.raises(ValueError):
        ForestParams(max_subsample=1)
    with pytest.raises(ValueError):
        ForestParams(label_rule=Contamination(0.0))
    with pytest.raises(ValueError):
        ForestParams(label_rule=Contamination(0.6))
    with pytest.raises(ValueError, match="finite"):
        ForestParams(label_rule=ScoreThreshold(math.inf))


def test_dataset_validation():
    # The two-sample floor is fit's: a single row is a valid batch to score.
    one_row = Dataset(features=np.zeros((1, 2)), feature_names=["a", "b"])
    with pytest.raises(ValueError, match="need at least 2 samples"):
        fit(one_row, ForestParams(n_trees=1))
    with pytest.raises(ValueError):
        Dataset(features=np.array([[1.0, np.inf]] * 2), feature_names=["a", "b"])
    with pytest.raises(ValueError):
        Dataset(features=np.zeros((3, 2)), feature_names=["a"])
    with pytest.raises(ValueError):
        Dataset(
            features=np.zeros((2, 1)),
            feature_names=["a"],
            labels=np.array(["Inlier", "bogus"]),
        )


# ---------------------------------------------------------------------------
# randomized properties


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    n=st.integers(min_value=4, max_value=60),
    d=st.integers(min_value=1, max_value=4),
)
def test_random_fits_stay_bounded(seed, n, d):
    rng = np.random.default_rng(seed)
    data = Dataset(
        features=rng.normal(size=(n, d)),
        feature_names=[f"F{i}" for i in range(d)],
    )
    model = fit(data, ForestParams(n_trees=5, seed=seed))
    assert np.all(model.scores > 0.0) and np.all(model.scores <= 1.0)
    cap = max_tree_depth(model.subsample_size)
    for tree in trees_of(model):
        assert all(depth <= cap for _, depth in walk(tree))


def test_injected_outlier_attains_max_score():
    # Seeded single-outlier protocol: the injected sample should have the
    # highest anomaly score in at least 95 of 100 runs.
    hits = 0
    runs = 100
    for seed in range(runs):
        config = SynthConfig(
            n_samples=100,
            n_features=3,
            injections=(
                InjectionSpec(
                    altered_features=(0, 1, 2),
                    factors=(5.0, 5.0, 5.0),
                    directions=(1, 1, 1),
                    sample=0,
                ),
            ),
            seed=seed,
        )
        data, _ = generate(config)
        model = fit(data, ForestParams(n_trees=50, seed=seed))
        hits += int(np.argmax(model.scores)) == 0
    assert hits >= 95, f"injected sample won only {hits}/{runs} runs"
