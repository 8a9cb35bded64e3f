import json
import math
import sys
import threading
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from iforest_dpg import forest as forest_module
from iforest_dpg.dpg import GT, build_model_graph
from iforest_dpg.forest import (
    C1,
    Contamination,
    Dataset,
    ForestParams,
    ScoreThreshold,
    SingleClassError,
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
from tree_reference import (
    Tree,
    flat,
    grow_forest,
    leaf_lengths,
    path_lengths,
    route,
    trees_of,
    walk,
)


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


def _chain(depth, feature):
    """A tree `depth` splits deep down its right spine: node 2k splits on
    `feature` at k, its left child 2k + 1 is a one-row leaf."""
    one_row_leaf = (-1, 0.0, -1, 1)
    nodes = [n for k in range(depth) for n in ((feature, float(k), 2 * k + 2, 0), one_row_leaf)]
    return Tree(*map(list, zip(*nodes, one_row_leaf)))


def test_route_matches_object_walk_on_edge_cases():
    # Every row but rows 4, 6 and 7 sits exactly on a split value, which
    # routes left; a single-leaf tree's routes are SOURCE -> OUTLIER; the third
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
    # Graph node order: SOURCE, the predicates, INLIER, OUTLIER.
    m = 2 * X.shape[1] + 3
    source, end = 0, m - 1
    for forest_trees in (trees, [leaf, deep, trees[0]], [leaf, leaf]):
        for adjust in (False, True):
            forest = flat(forest_trees, adjust)
            ends = _route(forest, X)
            assert ends.shape == (len(forest_trees), len(X))
            lengths = path_lengths(forest_trees, X, adjust)
            for t, tree in enumerate(forest_trees):
                for i, x in enumerate(X):
                    steps, leaf_node = route(tree, x)
                    assert ends[t, i] == _final_slot(t, steps, forest.levels)
                    assert forest.size[ends[t, i]] == tree.size[leaf_node]
                    assert forest.h[ends[t, i]] == lengths[i][t]
        empty = np.empty((0, 2))
        assert _route(forest, empty).shape == (len(forest_trees), 0)
        assert forest_module._mean_paths(forest, empty).shape == (0,)
        assert not forest_module._leaf_visits(forest, empty).any()
    assert forest.levels == 0
    assert flat([leaf, deep]).levels == max_tree_depth(256)
    # The last two rows end at the two deepest leaves.
    assert [route(deep, x)[1] for x in X[-2:]] == [len(deep.feature) - 2, len(deep.feature) - 1]
    for tree in (*trees, deep):
        single = flat([tree])
        visits = np.bincount(_route(single, X)[0], minlength=len(single.h))
        expected = np.zeros((m, m), dtype=np.int64)
        for x in X:
            codes = [1 + 2 * f + (sign == GT) for f, sign, _ in route(tree, x)[0]]
            chain = [source, *codes, end]
            for a, b in zip(chain, chain[1:]):
                expected[a, b] += 1
        assert np.array_equal(_transition_counts(single, visits, X.shape[1], end), expected)
    first = flat(trees[:1], leaf_adjustment=False)
    assert first.h[_route(first, X)[0, 0]] == 2  # (0.5, -1.0): left, left


def _final_slot(t, steps, levels):
    """The final slot of tree t where the route of `steps` ends: its leaf's
    position p at depth k, the turns read as binary digits (right = 1),
    then levels - k left steps."""
    p = 0
    for _, sign, _ in steps:
        p = 2 * p + (sign == GT)
    return ((t << len(steps)) + p) << (levels - len(steps))


def _stepwise_counts(trees, X, keep, terminal):
    """Transition counts by walking each kept (tree, row) route step by step,
    in graph node order, each route ending at node `terminal`."""
    m = 2 * X.shape[1] + 3
    counts = np.zeros((m, m), dtype=np.int64)
    for tree in trees:
        for x in X:
            steps, _ = route(tree, x)
            if not keep(len(steps)):
                continue
            chain = [0, *(1 + 2 * f + (sign == GT) for f, sign, _ in steps), terminal]
            for a, b in zip(chain, chain[1:]):
                counts[a, b] += 1
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
    inlier, outlier = 2 * d + 1, 2 * d + 2
    visits = np.bincount(_route(forest, X).ravel(), minlength=len(forest.h))
    assert np.array_equal(
        _transition_counts(forest, visits, d, inlier),
        _stepwise_counts(trees, X, lambda k: True, inlier),
    )
    assert np.array_equal(model.train_visits, visits)
    subset = X[rng.choice(n, size=17, replace=False)]
    sub_visits = np.bincount(_route(forest, subset).ravel(), minlength=len(forest.h))
    assert np.array_equal(
        _transition_counts(forest, sub_visits, d, outlier),
        _stepwise_counts(trees, subset, lambda k: True, outlier),
    )
    deep_visits = np.zeros_like(sub_visits)
    for t, tree in enumerate(trees):
        for x in subset:
            steps, _ = route(tree, x)
            if len(steps) >= cap:
                deep_visits[_final_slot(t, steps, forest.levels)] += 1
    assert deep_visits.sum() > 0
    assert np.array_equal(
        _transition_counts(forest, deep_visits, d, outlier),
        _stepwise_counts(trees, subset, lambda k: k >= cap, outlier),
    )


def _small_blocks(monkeypatch, rows, band):
    """Route every pass in blocks of `band` trees over runs of `rows` rows."""
    monkeypatch.setattr(forest_module, "_BLOCK_ROWS", rows)
    monkeypatch.setattr(forest_module, "_BLOCK_PAIRS", rows * band)


@pytest.mark.parametrize("threads", [1, 2])
def test_path_sums_are_exact_in_any_tree_order(small_model, monkeypatch, threads):
    # Path lengths sit on a grid on which every sum of one per tree is
    # exact, so the kernel's sums equal the same lengths added in reverse
    # tree order, in three shuffled orders and by math.fsum, bit for bit.
    # Passes in bands of 4 of the 25 trees over runs of 3 rows (a last band
    # of 1 tree, a last run of 1 of the 40 rows), on one thread or two, and
    # 1-row passes, which route bands of 9, 9 and 7.
    data, model = small_model
    forest = model.forest
    lengths = forest.h[_route(forest, data.features)]
    orders = [np.arange(forest.n_trees)[::-1]]
    orders += [np.random.default_rng(seed).permutation(forest.n_trees) for seed in range(3)]
    expected = np.array([math.fsum(row) for row in lengths.T])
    for order in orders:
        total = np.zeros(data.n_samples)
        for t in order:
            total += lengths[t]
        assert np.array_equal(total, expected)
    assert np.array_equal(
        model.scores, anomaly_score(expected / forest.n_trees, model.subsample_size)
    )
    if threads == 2:
        routed_on = _route_on_two_threads(monkeypatch)
    else:
        _small_blocks(monkeypatch, rows=3, band=4)
    paths = np.zeros(data.n_samples)
    forest_module._route_pass(forest, data.features, paths, None)
    assert np.array_equal(paths, expected)
    if threads == 2:
        assert len(routed_on) == 2
    paths = np.zeros(data.n_samples)
    for i in range(data.n_samples):
        forest_module._route_pass(forest, data.features[i : i + 1], paths[i : i + 1], None)
    assert np.array_equal(paths, expected)


def _route_on_two_threads(monkeypatch):
    """Make every routing pass use the helper thread, in blocks of 4 trees
    over 3 rows; return the set of thread idents that `_route` ran on.

    Each block gives up the interpreter lock once, as the numpy steps of a
    full-size block do, so both threads keep taking runs.
    """
    monkeypatch.setattr(forest_module, "_THREAD_PAIRS", 0)
    monkeypatch.setattr(forest_module, "_THREADS", 2)
    _small_blocks(monkeypatch, rows=3, band=4)
    threads = set()
    route_block = forest_module._route

    def recording(forest, X, work, trees):
        threads.add(threading.get_ident())
        time.sleep(0)
        return route_block(forest, X, work, trees)

    monkeypatch.setattr(forest_module, "_route", recording)
    return threads


def test_two_thread_pass_matches_serial_pass(small_data, monkeypatch):
    # Sharing a pass's runs between the caller and a helper thread must
    # not change one bit of the scores, the leaf visits or the counts, nor
    # route a block twice or not at all.
    params = ForestParams(n_trees=25, seed=11, label_rule=Contamination(0.05))
    serial = fit(small_data, params)
    serial_visits = forest_module._leaf_visits(serial.forest, small_data.features)
    serial_graph = build_model_graph(serial, small_data, serial.is_outlier)
    threads = _route_on_two_threads(monkeypatch)
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
    graph = build_model_graph(threaded, small_data, threaded.is_outlier)
    assert np.array_equal(graph.c_in, serial_graph.c_in)
    assert np.array_equal(graph.c_out, serial_graph.c_out)


def test_two_thread_pass_allocates_its_arrays_in_the_caller(small_model, monkeypatch):
    # Both threads' routing arrays come from the caller, so none stays in
    # the helper thread's malloc arena after the pass.
    data, model = small_model
    threads = _route_on_two_threads(monkeypatch)
    makers = []

    class Recorded(forest_module._RouteWork):
        __slots__ = ()

        def __init__(self, *args):
            makers.append(threading.get_ident())
            super().__init__(*args)

    monkeypatch.setattr(forest_module, "_RouteWork", Recorded)
    score_samples(model, data)
    assert len(threads) == 2
    assert makers == [threading.get_ident()] * 2


def test_two_thread_pass_counts_a_band_at_a_time(monkeypatch):
    # A two-thread pass with visits, through 600 trees, traced: its peak is
    # the intp feature table, two threads' work arrays and each thread's
    # count of one band, not a count of the whole forest.
    rng = np.random.default_rng(8)
    X = rng.normal(size=(3000, 3))
    data = Dataset(features=X, feature_names=["F0", "F1", "F2"])
    forest = fit(data, ForestParams(n_trees=600, seed=2)).forest
    monkeypatch.setattr(forest_module, "_THREADS", 2)
    threads = set()
    route_block = forest_module._route

    def recording(forest, X, work, trees):
        threads.add(threading.get_ident())
        return route_block(forest, X, work, trees)

    monkeypatch.setattr(forest_module, "_route", recording)
    paths = np.zeros(len(X))
    visits = np.zeros(len(forest.h), dtype=np.int64)
    tracemalloc.start()
    try:
        forest_module._route_pass(forest, X, paths, visits)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(threads) == 2
    rows = forest_module._BLOCK_ROWS
    band = forest_module._BLOCK_PAIRS // rows
    intp = np.dtype(np.intp).itemsize
    table = forest.feature.size * intp
    # Slot, index, value and comparison per pair, and a row of band sums.
    work = band * rows * (2 * intp + 8 + 1) + rows * 8
    band_counts = (band << forest.levels) * 8
    # A quarter megabyte for Python objects and small arrays.
    bound = table + 2 * work + 2 * band_counts + (256 << 10)
    assert peak < bound, (peak, bound)
    assert np.array_equal(visits, forest_module._leaf_visits(forest, X))


def test_helper_thread_error_is_raised_in_the_caller(small_model, monkeypatch):
    data, model = small_model
    _route_on_two_threads(monkeypatch)
    route_block = forest_module._route
    caller = threading.get_ident()

    def failing(forest, X, work, trees):
        if threading.get_ident() != caller:
            raise RuntimeError("helper block failed")
        return route_block(forest, X, work, trees)

    monkeypatch.setattr(forest_module, "_route", failing)
    running = threading.active_count()
    with pytest.raises(RuntimeError, match="helper block failed"):
        score_samples(model, data)
    assert threading.active_count() == running


@pytest.mark.parametrize("threads", [1, 2])
def test_reused_route_arrays_hold_nothing_stale(monkeypatch, threads):
    # A thread routes every block of a pass in the same arrays. Back-to-back
    # passes in bands of 4 of 7 trees, the last band of 3, over runs of 4
    # rows (full runs and a short last one, a 1-row last run) and then of 1
    # row; no rows, one row, and a wider matrix. Every block's routes, and
    # the pass's path sums and visits, must be the recursive walk's.
    rng = np.random.default_rng(5)
    X = rng.normal(size=(60, 3)).round(1)
    data = Dataset(features=X, feature_names=["F0", "F1", "F2"])
    model = fit(data, ForestParams(n_trees=7, max_subsample=32, seed=4))
    forest = model.forest
    trees = trees_of(model)
    if threads == 2:
        monkeypatch.setattr(forest_module, "_THREAD_PAIRS", 0)
        monkeypatch.setattr(forest_module, "_THREADS", 2)
    route_block = forest_module._route
    blocks = []

    def recording(forest, X, work, band):
        ends = route_block(forest, X, work, band)
        blocks.append((X.copy(), ends.copy(), band))
        return ends

    monkeypatch.setattr(forest_module, "_route", recording)
    wide = np.hstack([X, rng.normal(size=(60, 2))])
    for rows in (4, 1):
        _small_blocks(monkeypatch, rows=rows, band=4)
        for batch in (X[:15], X[15:24], X[:0], X[59:], wide[7:49]):
            blocks.clear()
            paths = np.zeros(len(batch))
            visits = np.zeros(len(forest.h), dtype=np.int64)
            forest_module._route_pass(forest, batch, paths, visits)
            # A pass of fewer rows than a run widens its band to every tree.
            bands = ((0, 7),) if len(batch) < rows else ((0, 4), (4, 7))
            assert sorted((len(x), b.start, b.stop) for x, _, b in blocks) == sorted(
                (len(batch[i : i + rows]), *band)
                for i in range(0, len(batch), rows)
                for band in bands
            )
            expected_paths = np.array([math.fsum(row) for row in path_lengths(trees, batch, True)])
            expected_visits = np.zeros_like(visits)
            for t, tree in enumerate(trees):
                for x in batch:
                    expected_visits[_final_slot(t, route(tree, x)[0], forest.levels)] += 1
            for x_block, ends, band in blocks:
                first = band.start << forest.levels
                for t in band:
                    for i, x in enumerate(x_block):
                        slot = _final_slot(t, route(trees[t], x)[0], forest.levels)
                        assert ends[t - band.start, i] == slot - first
            assert np.array_equal(visits, expected_visits)
            assert np.array_equal(paths, expected_paths)


def test_narrow_matrix_is_refused_with_the_column_it_lacks(small_model):
    # Routing gathers clip their indices, so a matrix narrower than the
    # columns the model splits on must be refused before any row is routed.
    data, model = small_model
    width = model.forest.width
    assert width > 1
    narrow = Dataset(
        features=data.features[:, : width - 1], feature_names=data.feature_names[: width - 1]
    )
    message = f"column index {width - 1}, the data has {width - 1} columns"
    with pytest.raises(ValueError, match=message):
        score_samples(model, narrow)
    with pytest.raises(ValueError, match=message):
        build_model_graph(model, narrow, model.is_outlier)


# ---------------------------------------------------------------------------
# fit


def test_fit_deterministic(small_data):
    params = ForestParams(n_trees=20, seed=5)
    a = fit(small_data, params)
    b = fit(small_data, params)
    assert trees_of(a) == trees_of(b)
    assert np.array_equal(a.scores, b.scores)
    assert np.array_equal(a.is_outlier, b.is_outlier)


def test_fit_seed_changes_forest(small_data):
    a = fit(small_data, ForestParams(n_trees=20, seed=5))
    b = fit(small_data, ForestParams(n_trees=20, seed=6))
    assert trees_of(a) != trees_of(b)


def _assert_grows_reference_trees(X, params):
    model = fit(Dataset(features=X, feature_names=[f"F{i}" for i in range(X.shape[1])]), params)
    reference = grow_forest(X, params)
    assert trees_of(model) == reference
    # The grower's slots, dtypes included, are those the loader fills from
    # the reference trees.
    levels = max_tree_depth(min(params.max_subsample, len(X)))
    table = flat(reference, params.leaf_adjustment, levels)
    assert (model.forest.n_trees, model.forest.levels) == (params.n_trees, levels)
    for name in ("feature", "threshold", "size", "h"):
        grown, loaded = getattr(model.forest, name), getattr(table, name)
        assert grown.dtype == loaded.dtype and np.array_equal(grown, loaded), name
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
    trees = trees_of(model)
    n_nodes = [len(tree.feature) for tree in trees]
    deepest = max(depth for tree in trees for _, depth in walk(tree))
    if variant == "few distinct rows":
        assert min(n_nodes) == 1
        assert deepest == max_tree_depth(subsample)
    elif variant.startswith("subsample"):
        assert set(n_nodes) == {2 * subsample - 1}
        assert deepest == subsample - 1


def test_slot_table_follows_the_walk():
    # A hand-built forest: a 5-node tree, a single leaf, a tree that splits
    # twice on one feature, and a chain down the right spine. A node at
    # depth k is at slot T*(2**k - 1) + t*2**k + p, where p reads the turns
    # from the root as binary digits, right = 1: a split holds its feature
    # and value there, and a leaf +inf, its size and h at final slot
    # p * 2**(levels - k) of tree t. No other slot holds a split or a size.
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
    n_trees, levels = len(trees), 3
    assert (forest.n_trees, forest.levels) == (n_trees, levels)
    splits, sizes = set(), set()
    lengths = leaf_lengths(trees, leaf_adjustment=True)
    for t, tree in enumerate(trees):
        order = list(walk(tree))
        assert [node for node, _ in order] == list(range(len(tree.feature)))
        turns = {}
        last_at_depth = {}
        for node, depth in order:
            parent = last_at_depth.get(depth - 1)
            turns[node] = 0 if depth == 0 else 2 * turns[parent] + (node != parent + 1)
            last_at_depth[depth] = node
            p = (t << depth) + turns[node]
            slot = n_trees * ((1 << depth) - 1) + p
            if tree.feature[node] >= 0:
                assert forest.feature[slot] == tree.feature[node], (t, node)
                assert forest.threshold[slot] == tree.split[node], (t, node)
                splits.add(slot)
                continue
            if depth < levels:
                assert forest.threshold[slot] == np.inf, (t, node)
            final = p << (levels - depth)
            assert forest.size[final] == tree.size[node], (t, node)
            assert forest.h[final] == lengths[t][node], (t, node)
            sizes.add(final)
    assert set(np.flatnonzero(np.isfinite(forest.threshold)).tolist()) == splits
    assert set(np.flatnonzero(forest.size).tolist()) == sizes
    assert not forest.feature[~np.isfinite(forest.threshold)].any()


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
    for tree in trees_of(model):
        leaf_sizes = 0
        for node, depth in walk(tree):
            assert depth <= cap
            if tree.feature[node] < 0:
                assert tree.size[node] >= 1
                leaf_sizes += tree.size[node]
        assert leaf_sizes == model.subsample_size


def test_scores_match_object_route(small_model):
    # The vectorized scorer must agree with the per-tree scalar walk, bit
    # for bit: the rounded path lengths sum exactly.
    data, model = small_model
    lengths = path_lengths(trees_of(model), data.features, model.params.leaf_adjustment)
    mean = np.array([math.fsum(row) for row in lengths]) / model.params.n_trees
    assert np.array_equal(model.scores, anomaly_score(mean, model.subsample_size))


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
    assert model.forest.levels == max_tree_depth(6)
    assert not np.isfinite(model.forest.threshold).any()
    assert len(set(model.scores.tolist())) == 1
    # Without leaf adjustment every path length is 0, which is left
    # unrounded, and every score is exactly 1.0.
    with pytest.warns(UserWarning):
        model = fit(data, ForestParams(n_trees=5, seed=0, leaf_adjustment=False))
    assert not model.forest.h.any()
    assert np.all(model.scores == 1.0)
    assert np.all(score_samples(model, data) == 1.0)


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


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_score_samples_refuses_non_finite_matrix(small_model, bad):
    # NaN compares as not greater than every threshold, so it would route
    # left everywhere and get a score; a raw matrix is refused as a
    # Dataset is, a list as well as an array.
    data, model = small_model
    X = data.features[:3].copy()
    X[1, 0] = bad
    for matrix in (X, X.tolist()):
        with pytest.raises(ValueError, match="non-finite"):
            score_samples(model, matrix)


# ---------------------------------------------------------------------------
# labeling


def test_threshold_labeling_example():
    scores = np.array([0.7, 0.4, 0.45])
    assert label_scores(scores, ScoreThreshold(0.5)).tolist() == [True, False, False]


def test_threshold_boundary_is_outlier():
    assert label_scores(np.array([0.5, 0.49999]), ScoreThreshold(0.5)).tolist() == [True, False]


def test_contamination_tie_breaks_to_lower_index():
    scores = np.array([0.6, 0.6, 0.3])
    assert label_scores(scores, Contamination(1 / 3)).tolist() == [True, False, False]


def test_contamination_count_is_ceiling():
    scores = np.linspace(0.1, 0.9, 10)
    assert label_scores(scores, Contamination(0.25)).sum() == 3  # ceil(2.5)


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
    is_outlier = label_scores(np.linspace(0.1, 0.9, n), Contamination(fraction))
    assert is_outlier.dtype == bool and is_outlier.sum() == count


def test_contamination_zero_outliers_raises():
    with pytest.raises(SingleClassError, match="no outliers detected"):
        label_scores(np.array([0.5, 0.6]), Contamination(0.0))


def test_cutoff_follows_label_rule(small_data):
    # A threshold rule keeps its threshold; contamination keeps the lowest
    # training-outlier score, which relabels the training set as fit did.
    rule = ScoreThreshold(0.6)
    assert fit(small_data, ForestParams(n_trees=10, seed=1, label_rule=rule)).cutoff == 0.6
    model = fit(small_data, ForestParams(n_trees=10, seed=1, label_rule=Contamination(0.1)))
    assert model.cutoff == model.scores[model.is_outlier].min()
    relabelled = label_scores(model.scores, ScoreThreshold(model.cutoff))
    assert np.array_equal(relabelled, model.is_outlier)


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
    assert min(s for t in trees_of(model) for f, s in zip(t.feature, t.size) if f < 0) >= 1
    reloaded = model_from_dict(json.loads(json.dumps(model_to_dict(model))))
    assert np.array_equal(score_samples(reloaded, X).view(np.int64), model.scores.view(np.int64))
    # Saving gathers each tree's splits and leaf sizes from the slots again.
    assert model_to_dict(reloaded) == model_to_dict(model)


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
