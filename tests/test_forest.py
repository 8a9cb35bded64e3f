import json
import math
import sys
import threading
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from iforest_dpg import forest as forest_module
from iforest_dpg.dpg import GT, build_model_graph
from iforest_dpg.forest import (
    C1,
    OUTLIER,
    Contamination,
    Dataset,
    ForestParams,
    ScoreThreshold,
    SingleClassError,
    _LevelTable,
    _route,
    _Streams,
    _transition_counts,
    anomaly_score,
    average_path_normalizer,
    fit,
    label_scores,
    max_tree_depth,
    score_samples,
)
from iforest_dpg.io import model_from_dict, model_to_dict
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


def _leaves(forest, X):
    """`_route` through the level table of `forest`."""
    return _route(_LevelTable(forest), X)


def _path_length(x, leaf_adjustment):
    forest = flat([_TOY_TREE], leaf_adjustment)
    return forest.h[_leaves(forest, np.array([x]))[0, 0]]


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


def _chain(depth, feature):
    """A tree `depth` splits deep down its right spine: node 2k splits on
    `feature` at k, its left child 2k + 1 is a one-row leaf."""
    one_row_leaf = (-1, 0.0, -1, 1)
    nodes = [n for k in range(depth) for n in ((feature, float(k), 2 * k + 2, 0), one_row_leaf)]
    return Tree(*map(list, zip(*nodes, one_row_leaf)))


def test_route_matches_object_walk_on_edge_cases():
    # Every row but rows 4, 6 and 7 sits exactly on a split value, which
    # routes left; a single-leaf tree's routes are SOURCE -> END; the third
    # tree splits twice on one feature, a self-loop transition. The other
    # forests mix a single leaf with a tree at the depth cap of a 256-row
    # subsample, which the last two rows reach, and hold only leaves.
    leaf = Tree(feature=[-1], split=[0.0], right=[-1], size=[4])
    trees = [
        Tree(
            feature=[0, 1, -1, -1, -1],
            split=[0.5, -1.0, 0.0, 0.0, 0.0],
            right=[4, 3, -1, -1, -1],
            size=[0, 0, 1, 2, 3],
        ),
        leaf,
        Tree(
            feature=[1, -1, 1, -1, -1],
            split=[2.0, 0.0, 3.0, 0.0, 0.0],
            right=[2, -1, 4, -1, -1],
            size=[0, 1, 0, 2, 1],
        ),
    ]
    deep = _chain(max_tree_depth(256), 1)
    X = np.array(
        [[0.5, -1.0], [0.5, 0.0], [0.9, 2.0], [0.1, 3.0], [0.2, 3.5], [0.5, 2.0],
         [0.3, 6.5], [0.3, 9.0]]
    )
    m = 2 * X.shape[1] + 2
    source, end = m - 2, m - 1
    for forest_trees in (trees, [leaf, deep, trees[0]], [leaf, leaf]):
        for adjust in (False, True):
            forest = flat(forest_trees, adjust)
            leaves = _leaves(forest, X)
            assert leaves.shape == (len(forest_trees), len(X))
            for t, tree in enumerate(forest_trees):
                for i, x in enumerate(X):
                    leaf_node = leaves[t, i]
                    assert forest.leaf[leaf_node]
                    h = float(forest.depth[leaf_node])
                    if adjust and forest.size[leaf_node] > 1:
                        h += average_path_normalizer(int(forest.size[leaf_node]))
                    assert h == path_length(tree, x, adjust)
                    assert forest.h[leaf_node] == h
                    assert leaf_node == forest.roots[t] + route(tree, x)[1]
        empty = np.empty((0, 2))
        assert _leaves(forest, empty).shape == (len(forest_trees), 0)
        assert forest_module._mean_paths(forest, empty).shape == (0,)
        assert not forest_module._leaf_visits(forest, empty).any()
    assert forest.max_depth == 0
    assert flat([leaf, deep]).max_depth == max_tree_depth(256)
    # The last two rows end at the two deepest leaves.
    assert [route(deep, x)[1] for x in X[-2:]] == [len(deep.feature) - 2, len(deep.feature) - 1]
    for tree in (*trees, deep):
        single = flat([tree])
        visits = np.bincount(_leaves(single, X)[0], minlength=single.n_nodes)
        expected = np.zeros(m * m, dtype=np.int64)
        for x in X:
            codes = [2 * f + (sign == GT) for f, sign, _ in route(tree, x)[0]]
            chain = [source, *codes, end]
            for a, b in zip(chain, chain[1:]):
                expected[a * m + b] += 1
        assert np.array_equal(_transition_counts(single, visits, X.shape[1]), expected)
    first = flat(trees[:1])
    assert first.depth[_leaves(first, X)[0, 0]] == 2  # (0.5, -1.0): left, left


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
    visits = np.bincount(_leaves(forest, X).ravel(), minlength=forest.n_nodes)
    assert np.array_equal(
        _transition_counts(forest, visits, d),
        _stepwise_counts(trees, X, lambda k: True),
    )
    assert np.array_equal(model.train_visits, visits)
    subset = X[rng.choice(n, size=17, replace=False)]
    sub_visits = np.bincount(_leaves(forest, subset).ravel(), minlength=forest.n_nodes)
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
    leaves = _leaves(forest, data.features)
    total = np.zeros(data.n_samples)
    for t in range(forest.n_trees):
        total += forest.h[leaves[t]]
    expected = anomaly_score(total / forest.n_trees, model.subsample_size)
    assert np.array_equal(model.scores, expected)
    monkeypatch.setattr(forest_module, "_BLOCK_PAIRS", 3 * forest.n_trees)
    assert np.array_equal(score_samples(model, data), expected)
    for i in range(data.n_samples):
        assert score_samples(model, data.features[i : i + 1])[0] == expected[i]


def _route_on_two_threads(monkeypatch, n_trees):
    """Make every routing pass use the helper thread, in blocks of 3 rows;
    return the set of thread idents that `_route` ran on."""
    monkeypatch.setattr(forest_module, "_THREAD_PAIRS", 0)
    monkeypatch.setattr(forest_module, "_THREADS", 2)
    monkeypatch.setattr(forest_module, "_BLOCK_PAIRS", 3 * n_trees)
    threads = set()
    route_block = forest_module._route

    def recording(table, X):
        threads.add(threading.get_ident())
        return route_block(table, X)

    monkeypatch.setattr(forest_module, "_route", recording)
    return threads


def test_two_thread_pass_matches_serial_pass(small_data, monkeypatch):
    # Splitting a pass's blocks between the caller and a helper thread must
    # not change one bit of the scores, the leaf visits or the counts.
    params = ForestParams(n_trees=25, seed=11, label_rule=Contamination(0.05))
    serial = fit(small_data, params)
    serial_visits = forest_module._leaf_visits(serial.forest, small_data.features)
    serial_graph = build_model_graph(serial, small_data, serial.labels == OUTLIER)
    threads = _route_on_two_threads(monkeypatch, params.n_trees)
    # Switch threads as often as the interpreter allows, to interleave the
    # caller's and the helper's blocks.
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threaded = fit(small_data, params)
    finally:
        sys.setswitchinterval(interval)
    assert len(threads) == 2
    assert np.array_equal(threaded.scores.view(np.int64), serial.scores.view(np.int64))
    assert np.array_equal(threaded.train_visits, serial.train_visits)
    assert np.array_equal(
        score_samples(threaded, small_data).view(np.int64), serial.scores.view(np.int64)
    )
    visits = forest_module._leaf_visits(threaded.forest, small_data.features)
    assert np.array_equal(visits, serial_visits)
    graph = build_model_graph(threaded, small_data, threaded.labels == OUTLIER)
    assert np.array_equal(graph.c_in, serial_graph.c_in)
    assert np.array_equal(graph.c_out, serial_graph.c_out)


def test_helper_thread_error_is_raised_in_the_caller(small_model, monkeypatch):
    data, model = small_model
    _route_on_two_threads(monkeypatch, model.forest.n_trees)
    route_block = forest_module._route
    caller = threading.get_ident()

    def failing(table, X):
        if threading.get_ident() != caller:
            raise RuntimeError("helper block failed")
        return route_block(table, X)

    monkeypatch.setattr(forest_module, "_route", failing)
    running = threading.active_count()
    with pytest.raises(RuntimeError, match="helper block failed"):
        score_samples(model, data)
    assert threading.active_count() == running


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


def _assert_grows_reference_trees(X, params):
    model = fit(Dataset(features=X, feature_names=[f"F{i}" for i in range(X.shape[1])]), params)
    reference = grow_forest(X, params)
    assert trees_of(model) == reference
    table = flat(reference)
    names = ("roots", "feature", "threshold", "leaf", "size", "depth", "end", "slot", "h", "code")
    for name in names:
        assert np.array_equal(getattr(model.forest, name), getattr(table, name)), name
    # FlatForest casts what it is given, so the grower's own flat arrays are
    # checked too, dtypes included, tree by tree as `n_nodes` slices them.
    sub_n = min(params.max_subsample, len(X))
    *grown, n_nodes = forest_module._grow_forest(
        X, sub_n, max_tree_depth(sub_n), params.n_trees, params.seed
    )
    assert n_nodes.tolist() == [len(t.feature) for t in reference]
    bounds = np.cumsum([0, *n_nodes.tolist()])
    dtypes = (np.int32, np.float64, np.int32, np.int32)
    for name, column, dtype in zip(Tree._fields, grown, dtypes):
        assert column.dtype == dtype and len(column) == bounds[-1], name
        trees = [column[a:b].tolist() for a, b in zip(bounds, bounds[1:])]
        assert trees == [getattr(t, name) for t in reference], name
    return model


@pytest.mark.parametrize("seed", [0, 3, 8])
@pytest.mark.parametrize(
    "variant",
    [
        "plain",
        "constant column",
        "duplicate rows",
        "one feature",
        "n > subsample",
        "few distinct rows",
        "subsample 2",
        "subsample 3",
    ],
)
def test_fitted_table_matches_recursive_grower(seed, variant):
    # The lockstep grower must make the recursive reference's trees, split
    # for split; a constant column takes the redraw path, and one feature
    # draws no feature index at all. Subsamples of 2 and 3 rows have depth
    # caps 1 and 2: a root of 2 rows splits into two 1-row leaves at the
    # cap, one of 3 rows into a 1-row leaf above the cap and a 2-row node
    # that splits again.
    data, _ = fixture_one(seed=seed)
    X = data.features.copy()
    if variant == "constant column":
        X[:, 2] = 1.5
    elif variant == "duplicate rows":
        X[100:] = X[:100]
    elif variant == "one feature":
        X = X[:, :1]
    elif variant == "few distinct rows":
        # 171 copies of row 0 and 29 other rows, subsamples of 8: a tree
        # that draws only copies is a single leaf, done at step 0, while
        # others split down to the depth cap.
        X[30:] = X[0]
    subsample = {
        "n > subsample": 64, "few distinct rows": 8, "subsample 2": 2, "subsample 3": 3,
    }.get(variant, 256)
    params = ForestParams(n_trees=40, seed=seed, max_subsample=subsample)
    model = _assert_grows_reference_trees(X, params)
    n_nodes = np.diff([*model.forest.roots.tolist(), model.forest.n_nodes])
    if variant == "few distinct rows":
        assert n_nodes.min() == 1
        assert model.forest.max_depth == max_tree_depth(subsample)
    elif variant.startswith("subsample"):
        assert set(n_nodes.tolist()) == {2 * subsample - 1}
        assert model.forest.max_depth == subsample - 1


def test_node_table_subtree_ends_and_slots_follow_the_walk():
    # A hand-built forest: a 5-node tree, a single leaf, a tree that splits
    # twice on one feature, and a chain down the right spine. Every node's
    # subtree [i, end[i]) ends at the next node, in preorder, at its depth
    # or above; its slot is T*(2**depth - 1) + t*2**depth + p, where p reads
    # the turns from the root as binary digits, right = 1.
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
        _chain(3, 0),
    ]
    forest = flat(trees)
    n_trees = len(trees)
    for t, (root, tree) in enumerate(zip(forest.roots.tolist(), trees)):
        order = list(walk(tree))
        assert [node for node, _ in order] == list(range(len(tree.feature)))
        turns = {}
        last_at_depth = {}
        for k, (node, depth) in enumerate(order):
            later = [j for j, (_, deeper) in enumerate(order) if j > k and deeper <= depth]
            assert forest.end[root + node] == root + (later[0] if later else len(order))
            parent = last_at_depth.get(depth - 1)
            turns[node] = 0 if depth == 0 else 2 * turns[parent] + (node != parent + 1)
            last_at_depth[depth] = node
            slot = n_trees * ((1 << depth) - 1) + (t << depth) + turns[node]
            assert forest.slot[root + node] == slot, (t, node)
            assert forest.depth[root + node] == depth
    assert forest.end[forest.roots[1]] == forest.roots[1] + 1
    assert forest.slot[forest.roots].tolist() == list(range(n_trees))


def test_growth_groups_do_not_change_the_forest(small_data, monkeypatch):
    # Trees grow in lockstep groups of at most _GROUP_ROWS subsample rows;
    # groups of 3 trees, the last one of 2, must grow the same trees.
    params = ForestParams(n_trees=20, seed=5)
    whole = trees_of(fit(small_data, params))
    monkeypatch.setattr(forest_module, "_GROUP_ROWS", 3 * small_data.n_samples)
    assert trees_of(fit(small_data, params)) == whole == grow_forest(small_data.features, params)


@settings(max_examples=50, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=600),
    d=st.integers(min_value=1, max_value=8),
    levels=st.integers(min_value=1, max_value=4),
    data_seed=st.integers(min_value=0, max_value=2**32 - 1),
    n_trees=st.integers(min_value=1, max_value=25),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@example(n=3, d=1, levels=2, data_seed=0, n_trees=25, seed=0)
@example(n=600, d=8, levels=3, data_seed=1, n_trees=25, seed=2**32 - 1)
@pytest.mark.filterwarnings("ignore:all samples are identical")
def test_fit_matches_recursive_grower_on_grid_matrices(n, d, levels, data_seed, n_trees, seed):
    # Each column takes at most `levels` values on a grid, which forces split
    # ties, constant columns, duplicate rows and nodes of identical rows.
    rng = np.random.default_rng(data_seed)
    X = rng.integers(0, rng.integers(1, levels + 1, size=d), size=(n, d)) / 2.0
    _assert_grows_reference_trees(X, ForestParams(n_trees=n_trees, seed=seed))


def _started_generators(start):
    """Three generators: fresh, or right after the first subsample draw
    `choice(300, size, replace=False)` that leaves all three with (or all
    without) a spare 32-bit half in the bit generator."""
    seeds = (0, 1, 2**32 + 5)
    if start == "fresh":
        return [np.random.default_rng(seed) for seed in seeds]
    pending = start.endswith("pending")
    for size in range(300, 0, -1):
        gens = [np.random.default_rng(seed) for seed in seeds]
        for g in gens:
            g.choice(300, size, replace=False)
        if all(g.bit_generator.state["has_uint32"] == pending for g in gens):
            return gens
    raise AssertionError(f"no subsample size leaves has_uint32 == {pending}")


@pytest.mark.parametrize("start", ["fresh", "after choice", "after choice, half pending"])
def test_streams_replay_generator_draws_bit_for_bit(start):
    # Three streams draw in lockstep, a random subset of them at each step,
    # interleaving integers(k) and uniform; every value must equal what each
    # stream's own Generator returns. k = 2**31 + 1 rejects about half of
    # its 32-bit draws, and k = 1 draws nothing.
    reference, replayed = _started_generators(start), _started_generators(start)
    streams = _Streams(replayed, prefetch=32)
    plan = np.random.default_rng(99)
    for _ in range(400):
        trees = np.flatnonzero(plan.random(3) < 0.7)
        if plan.random() < 0.5:
            k = [1, 2, 3, 6, 20, 2**31 + 1][plan.integers(6)]
            got = streams.integers(trees, k)
            want = [reference[t].integers(k) for t in trees]
            assert got.tolist() == want
        else:
            lo = plan.normal(size=len(trees)) * 10.0 ** plan.integers(-3, 4)
            hi = lo + plan.exponential(size=len(trees))
            got = streams.uniform(trees, lo, hi)
            want = np.array([reference[t].uniform(a, b) for t, a, b in zip(trees, lo, hi)])
            assert np.array_equal(got.view(np.int64), want.view(np.int64))


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


@pytest.mark.parametrize(
    "fraction, n, count",
    [
        # 0.07 * 100 is 7.000000000000001 in floats; 0.07 of 100 rows is 7.
        (0.07, 100, 7),
        (0.07, 200, 14),
        (0.07, 300, 21),
        (0.07, 101, 8),  # ceil(7.07)
        # The decimal 1/300 prints as lies above 1/300; 1/300 of 300 is 1.
        (1 / 300, 300, 1),
        (1 / 7, 7, 1),
        (np.float64(0.07), 100, 7),
        (np.float64(1 / 300), 300, 1),
    ],
)
def test_contamination_count_of_an_exact_product(fraction, n, count):
    labels = label_scores(np.linspace(0.1, 0.9, n), Contamination(fraction))
    assert (labels == OUTLIER).sum() == count


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
    with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
        ForestParams(seed=-1)


def test_split_range_that_overflows_is_a_value_error():
    # max - min of this column is inf: no uniform split value can be drawn.
    data = Dataset(features=np.array([[-1e308], [1e308], [0.0]]), feature_names=["a"])
    with pytest.raises(ValueError, match="too wide to split"):
        fit(data, ForestParams(n_trees=3))


def test_wide_finite_split_range_grows_without_warnings():
    # max - min of column 0 is 1.6e308, near the largest double but finite:
    # growth draws its split values with no overflow and no warning, and
    # grows the reference trees.
    rng = np.random.default_rng(4)
    X = np.column_stack([rng.uniform(-8e307, 8e307, 60), rng.normal(size=60)])
    X[:2, 0] = -8e307, 8e307
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _assert_grows_reference_trees(X, ForestParams(n_trees=20, seed=1))


def _ulp_steps(X, steps):
    """X with each cell moved up `steps` ulps, 0 to 3."""
    for k in range(1, 4):
        X = np.where(steps >= k, np.nextafter(X, np.inf), X)
    return X


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(["ulp", "few distinct", "huge"]),
    n=st.integers(min_value=2, max_value=39),
    d=st.integers(min_value=1, max_value=3),
    base=st.sampled_from([1.0, 1e16, -3.5, 1e-300, 5e-324, -8e307]),
    data_seed=st.integers(min_value=0, max_value=2**32 - 1),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@pytest.mark.filterwarnings("ignore:all samples are identical")
def test_every_fitted_model_loads_and_scores_as_fitted(kind, n, d, base, data_seed, seed):
    # Columns whose values are a few ulps apart, take few distinct values,
    # or span most of the double range. A split value drawn between two
    # adjacent doubles can round up to the larger; it must still leave rows
    # on both sides, so every leaf has rows and the model survives a
    # model.json round trip with every score bit for bit.
    rng = np.random.default_rng(data_seed)
    if kind == "ulp":
        X = _ulp_steps(np.full((n, d), base), rng.integers(0, 4, size=(n, d)))
    elif kind == "few distinct":
        X = rng.choice(base * rng.uniform(0.5, 1.0, size=3), size=(n, d))
    else:
        X = rng.choice([-8e307, -1e300, base, 1e300, 8e307], size=(n, d))
    model = _assert_grows_reference_trees(X, ForestParams(n_trees=10, seed=seed))
    assert model.forest.size[model.forest.leaf].min() >= 1
    reloaded = model_from_dict(json.loads(json.dumps(model_to_dict(model))))
    assert np.array_equal(score_samples(reloaded, X).view(np.int64), model.scores.view(np.int64))


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
    # A label is checked as given, not as cut to the 7 characters of "Outlier".
    with pytest.raises(ValueError, match="Outliers"):
        Dataset(features=np.zeros((2, 1)), feature_names=["a"], labels=["Outliers", "Inlier"])


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
