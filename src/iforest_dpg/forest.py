"""Isolation forest training, scoring, and inlier/outlier labeling.

Trees are grown on uniform random subsamples with uniformly random
feature/value splits, each straight into preorder arrays; a fitted forest is
one node table of all trees (`FlatForest`), the only tree form, which every
routing pass reads. Anomaly scores follow the classic path-length
normalization: s = 2^(-E[h(x)] / c(n)) where c(n) is the expected
unsuccessful-search path length in a binary search tree of n points. New
rows are labeled by the model's score cutoff, fixed at fit time.
"""

from __future__ import annotations

import hashlib
import math
import warnings
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

INLIER = "Inlier"
OUTLIER = "Outlier"

# Harmonic-number approximation constant, H(i) ~ ln(i) + EULER. Kept at four
# decimals so c(2) = 2*0.5772 - 1 = 0.1544 exactly.
EULER = 0.5772

# Path normalizer for a single-point leaf: nothing left to isolate.
C1 = 0.0


class SingleClassError(ValueError):
    """Labeling produced only one class, so class weighting is undefined."""


def max_tree_depth(subsample_size: int) -> int:
    """Depth cap for trees grown on a subsample: ceil(log2(min(256, size)))."""
    if subsample_size < 2:
        raise ValueError(f"subsample_size must be >= 2, got {subsample_size}")
    return math.ceil(math.log2(min(256, subsample_size)))


def average_path_normalizer(n: int) -> float:
    """Expected unsuccessful-search path length c(n) for n >= 2.

    c(n) = 2(ln(n-1) + EULER) - 2(n-1)/n, strictly increasing in n.
    For the single-point case use the C1 constant instead.
    """
    if n < 2:
        raise ValueError(f"average_path_normalizer requires n >= 2, got {n}; use C1 for n = 1")
    return 2.0 * (math.log(n - 1) + EULER) - 2.0 * (n - 1) / n


def _leaf_adjustment_table(max_size: int) -> np.ndarray:
    """c(size) lookup for leaf sizes 0..max_size (0 and 1 map to C1)."""
    table = np.zeros(max_size + 1)
    for size in range(2, max_size + 1):
        table[size] = average_path_normalizer(size)
    return table


@dataclass(frozen=True)
class ScoreThreshold:
    """Label rule: Outlier iff anomaly score >= threshold."""

    threshold: float = 0.5


@dataclass(frozen=True)
class Contamination:
    """Label rule: the ceil(fraction * n) highest-scoring samples are Outliers."""

    fraction: float


def _rule_to_dict(rule: ScoreThreshold | Contamination) -> dict:
    """JSON form of a label rule, as model.json and graph.json store it."""
    if isinstance(rule, Contamination):
        return {"kind": "contamination", "fraction": rule.fraction}
    return {"kind": "score_threshold", "threshold": rule.threshold}


@dataclass
class Dataset:
    """Numeric sample matrix with feature names and optional ground-truth labels.

    `labels` carries evaluation-only ground truth (INLIER/OUTLIER strings);
    fitting never reads it.
    """

    features: np.ndarray
    feature_names: list[str]
    labels: np.ndarray | None = None

    def __post_init__(self) -> None:
        self.features = np.asarray(self.features, dtype=np.float64)
        if self.features.ndim != 2:
            raise ValueError(f"features must be 2-dimensional, got shape {self.features.shape}")
        n, d = self.features.shape
        if d < 1:
            raise ValueError("need at least 1 feature")
        if not np.all(np.isfinite(self.features)):
            raise ValueError("features contain non-finite values")
        if len(self.feature_names) != d:
            raise ValueError(
                f"feature_names length {len(self.feature_names)} != n_features {d}"
            )
        if self.labels is not None:
            self.labels = np.asarray(self.labels, dtype="<U7")
            if self.labels.shape != (n,):
                raise ValueError("labels length must match n_samples")
            bad = set(self.labels.tolist()) - {INLIER, OUTLIER}
            if bad:
                raise ValueError(f"unknown label values: {sorted(bad)}")

    @property
    def n_samples(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]


@dataclass(frozen=True)
class ForestParams:
    n_trees: int = 200
    max_subsample: int = 256
    seed: int = 0
    leaf_adjustment: bool = True
    label_rule: ScoreThreshold | Contamination = ScoreThreshold()

    def __post_init__(self) -> None:
        if self.n_trees < 1:
            raise ValueError(f"n_trees must be >= 1, got {self.n_trees}")
        if self.max_subsample < 2:
            raise ValueError(f"max_subsample must be >= 2, got {self.max_subsample}")
        if isinstance(self.label_rule, Contamination):
            if not 0.0 < self.label_rule.fraction < 0.5:
                raise ValueError(
                    f"contamination fraction must be in (0, 0.5), got {self.label_rule.fraction}"
                )
        elif not isinstance(self.label_rule, ScoreThreshold):
            raise ValueError("label_rule must be ScoreThreshold or Contamination")
        elif not math.isfinite(self.label_rule.threshold):
            # model.json stores the threshold and the cutoff as plain numbers.
            raise ValueError(f"score threshold must be finite, got {self.label_rule.threshold}")


class FlatForest:
    """Every tree of a forest in one node table, routed all at once.

    It is built from per-tree preorder arrays, the form `fit` grows and
    model.json stores, one array per tree in each argument: `feature`, -1 at
    a leaf; `split`, the split value, unused at a leaf; `right`, the
    tree-local index of the right child, -1 at a leaf; and `size`, the
    subsample rows at a leaf, 0 at an internal node. The left child of
    internal node i is node i + 1, and every child comes after its parent.

    In the table tree t's nodes start at `roots[t]` and child indices are
    global. An internal node sends value <= threshold to `child[2*i]` and
    larger values to `child[2*i + 1]`. A leaf is its own child on both sides,
    reads column 0 and has threshold +inf, so a row that reached it goes left
    and stays: routing runs `max_depth` steps with no test for leaves.

    Per node: `depth`, `size`, `h` = depth + c(size) (the path length a leaf
    contributes to a score; c only when `leaf_adjustment`) and `code` =
    2*feature + went_right of the edge into the node, -1 at a root, whose
    route starts at SOURCE.
    """

    __slots__ = (
        "roots", "feature", "threshold", "child", "leaf", "size", "depth",
        "h", "code", "max_depth", "width",
    )

    def __init__(
        self,
        feature: Sequence[np.ndarray],
        split: Sequence[np.ndarray],
        right: Sequence[np.ndarray],
        size: Sequence[np.ndarray],
        leaf_adjustment: bool,
    ) -> None:
        lengths = [len(f) for f in feature]
        self.roots = np.cumsum([0, *lengths[:-1]], dtype=np.intp)
        node = np.arange(sum(lengths))
        feat = np.concatenate(feature)
        self.leaf = feat < 0
        # Routing indexes with `child`, so it is intp; the rest fit int32.
        child = np.empty((len(node), 2), dtype=np.intp)
        child[:, 0] = np.where(self.leaf, node, node + 1)
        child[:, 1] = np.where(
            self.leaf, node, np.concatenate(right) + np.repeat(self.roots, lengths)
        )
        self.child = child.ravel()
        self.feature = np.where(self.leaf, 0, feat).astype(np.int32)
        self.threshold = np.where(self.leaf, np.inf, np.concatenate(split))
        self.size = np.concatenate(size).astype(np.int32)
        inner = np.flatnonzero(~self.leaf)
        self.code = np.full(len(node), -1, dtype=np.int32)
        self.code[child[inner]] = 2 * self.feature[inner, None] + np.array([0, 1])
        # Depth one level at a time, from the roots down.
        self.depth = np.zeros(len(node), dtype=np.int32)
        level, depth = self.roots, 0
        while level.size:
            self.depth[level] = depth
            level = child[level[~self.leaf[level]]].ravel()
            depth += 1
        self.h = self.depth.astype(np.float64)
        if leaf_adjustment:
            self.h += _leaf_adjustment_table(int(self.size.max(initial=0)))[self.size]
        self.max_depth = int(self.depth.max(initial=0))
        # Columns a routed row must have: leaves read column 0.
        self.width = int(self.feature.max(initial=0)) + 1

    @property
    def n_trees(self) -> int:
        return len(self.roots)

    @property
    def n_nodes(self) -> int:
        return len(self.feature)


@dataclass
class ForestModel:
    """Fitted forest plus training-time scores, labels and score cutoff.

    Immutable by convention. `cutoff` labels the scores of new rows, Outlier
    iff score >= cutoff, so a saved model labels a row the same in any batch:
    it is the rule's threshold for ScoreThreshold and the lowest score of a
    training outlier for Contamination. A new row that ties the cutoff is an
    Outlier, even where a training row with that score lost the tie.
    """

    forest: FlatForest
    params: ForestParams
    n_train: int
    scores: np.ndarray
    labels: np.ndarray
    cutoff: float
    # (key of the training matrix, its all-row transition counts) from fit.
    _train_counts: tuple[tuple, np.ndarray] | None = field(
        default=None, repr=False, compare=False
    )

    @property
    def subsample_size(self) -> int:
        return min(self.params.max_subsample, self.n_train)

    @property
    def max_depth(self) -> int:
        return max_tree_depth(self.subsample_size)

    def outlier_count(self) -> int:
        return int(np.count_nonzero(self.labels == OUTLIER))

    def inlier_count(self) -> int:
        return int(np.count_nonzero(self.labels == INLIER))


def _draw_split(rows: np.ndarray, rng: np.random.Generator) -> tuple[int, float] | None:
    """A random (feature, value) split of `rows`; None if all rows are identical.

    A constant drawn feature is redrawn among the features that can still be
    split.
    """
    f = int(rng.integers(rows.shape[1]))
    lo, hi = rows[:, f].min(), rows[:, f].max()
    if lo == hi:
        mins = rows.min(axis=0)
        maxs = rows.max(axis=0)
        valid = np.flatnonzero(mins < maxs)
        if len(valid) == 0:
            return None
        f = int(valid[rng.integers(len(valid))])
        lo, hi = mins[f], maxs[f]
    return f, float(rng.uniform(lo, hi))


def _grow_tree(
    sub: np.ndarray, depth_cap: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Grow one tree on its subsample `sub` into (feature, split, right, size).

    The arrays are `FlatForest`'s per-tree preorder form. Nodes are made in
    preorder from an explicit stack, left subtree first, so each internal
    node draws its split from `rng` in the order a recursive grower would.
    """
    feature: list[int] = []
    split: list[float] = []
    right: list[int] = []
    size: list[int] = []
    # (the node's rows, its depth, index of the node it is the right child of)
    stack = [(sub, 0, -1)]
    while stack:
        rows, depth, parent = stack.pop()
        i = len(feature)
        if parent >= 0:
            right[parent] = i
        drawn = _draw_split(rows, rng) if len(rows) > 1 and depth < depth_cap else None
        right.append(-1)
        if drawn is None:
            feature.append(-1)
            split.append(0.0)
            size.append(len(rows))
            continue
        f, v = drawn
        feature.append(f)
        split.append(v)
        size.append(0)
        mask = rows[:, f] <= v
        stack.append((rows[~mask], depth + 1, i))
        stack.append((rows[mask], depth + 1, -1))
    return (
        np.array(feature, dtype=np.int32),
        np.array(split, dtype=np.float64),
        np.array(right, dtype=np.intp),
        np.array(size, dtype=np.int32),
    )


def fit(data: Dataset, params: ForestParams) -> ForestModel:
    """Train an isolation forest and label every training sample.

    Each tree draws its own subsample without replacement using the stream
    seeded with `params.seed + tree_index`, so fits are reproducible and
    tree construction could run concurrently without changing the result.
    """
    X = data.features
    n = data.n_samples
    if n < 2:
        raise ValueError(f"need at least 2 samples, got {n}")
    if np.all(X == X[0]):
        warnings.warn(
            "all samples are identical; every tree is a single leaf", stacklevel=2
        )
    sub_n = min(params.max_subsample, n)
    depth_cap = max_tree_depth(sub_n)

    trees = []
    for i in range(params.n_trees):
        rng = np.random.default_rng(params.seed + i)
        idx = rng.choice(n, size=sub_n, replace=False)
        trees.append(_grow_tree(X[idx], depth_cap, rng))
    forest = FlatForest(*zip(*trees), leaf_adjustment=params.leaf_adjustment)

    # The one routing pass over the training set: it yields the scores and the
    # leaf occupancy the graph builder's transition counts are read from.
    visits = np.zeros(forest.n_nodes, dtype=np.int64)
    scores = anomaly_score(_mean_paths(forest, X, visits), sub_n)
    labels = label_scores(scores, params.label_rule)
    rule = params.label_rule
    cutoff = (
        rule.threshold
        if isinstance(rule, ScoreThreshold)
        else float(scores[labels == OUTLIER].min())
    )
    return ForestModel(
        forest=forest,
        params=params,
        n_train=n,
        scores=scores,
        labels=labels,
        cutoff=cutoff,
        _train_counts=(_matrix_key(X), _transition_counts(forest, visits, data.n_features)),
    )


# Transition-count layout. With d features a route steps through M = 2d + 2
# node codes: 2*feature + went_right for each split predicate, SOURCE = 2d
# before the root and END = 2d + 1 after the leaf. counts[prev*M + code] is
# the number of routes that stepped from `prev` to `code`, so a route through
# a tree that is a single leaf adds one SOURCE -> END. Every route ends at a
# leaf, so the counts follow from how many rows reach each leaf: a node is
# passed by the rows at the leaves below it, each passing row steps into the
# node from its parent's code, and each row at a leaf steps on to END.

# (tree, row) pairs routed per block, so each of a block's node, index and
# value arrays is 128 KB whatever the number of rows. Larger blocks were no
# faster at 50 000 x 20 and raised the peak memory of 200 x 6 fits.
_BLOCK_PAIRS = 1 << 14


def _n_codes(n_features: int) -> int:
    """M, the number of node codes in the transition-count layout."""
    return 2 * n_features + 2


def _check_width(forest: FlatForest, n_features: int) -> None:
    if n_features < forest.width:
        raise ValueError(
            "model splits on features beyond the dataset width: it reads "
            f"column index {forest.width - 1}, the data has {n_features} columns"
        )


def _route(forest: FlatForest, X: np.ndarray) -> np.ndarray:
    """The leaf each row of X reaches in every tree: (n_trees, n_rows) node indices.

    All (tree, row) pairs step together for exactly `forest.max_depth` steps;
    a pair at a leaf stays there. X is read row-major, so it must be at least
    `forest.width` columns wide, and its rows are bounded per call: both are
    `_leaf_blocks`'s job.
    """
    n, d = X.shape
    values = np.ascontiguousarray(X).ravel()
    node = np.repeat(forest.roots, n)
    row_offset = np.tile(np.arange(0, n * d, d), forest.n_trees)
    feature, threshold, child = forest.feature, forest.threshold, forest.child
    for _ in range(forest.max_depth):
        right = values.take(row_offset + feature.take(node)) > threshold.take(node)
        node = child.take(2 * node + right)
    return node.reshape(forest.n_trees, n)


def _leaf_blocks(forest: FlatForest, X: np.ndarray):
    """Yield (first row, `_route` leaves) for consecutive blocks of X's rows."""
    _check_width(forest, X.shape[1])
    step = max(1, _BLOCK_PAIRS // forest.n_trees)
    for start in range(0, len(X), step):
        yield start, _route(forest, X[start : start + step])


def _leaf_visits(forest: FlatForest, X: np.ndarray) -> np.ndarray:
    """Number of X's rows that reach each node, nonzero only at leaves."""
    visits = np.zeros(forest.n_nodes, dtype=np.int64)
    for _, leaves in _leaf_blocks(forest, X):
        visits += np.bincount(leaves.ravel(), minlength=forest.n_nodes)
    return visits


def _transition_counts(
    forest: FlatForest, visits: np.ndarray, n_features: int
) -> np.ndarray:
    """Transition counts (int64, length M*M) of the routes that end as `visits` says.

    `visits[j]` is the number of routes that end at leaf j. Counting is in
    integers, so the result does not depend on the order of trees or rows.
    """
    m = _n_codes(n_features)
    source, end = m - 2, m - 1
    kids_of = forest.child.reshape(-1, 2)
    # Routes through each node, filled in from the deepest level up, one
    # level at a time so the temporaries stay small.
    through = np.array(visits, dtype=np.int64)
    counts = np.zeros(m * m, dtype=np.int64)
    for level in range(forest.max_depth, -1, -1):
        at = np.flatnonzero(forest.depth == level)
        into = forest.code[at].astype(np.intp)
        into[into < 0] = source
        leaf = forest.leaf[at]
        # A route at a leaf steps on to END; a route through an internal
        # node steps on to the code of the child it went to.
        np.add.at(counts, into[leaf] * m + end, through[at[leaf]])
        inner = at[~leaf]
        kids = kids_of[inner]
        through[inner] = through[kids].sum(axis=1)
        steps = 2 * forest.feature[inner, None] + np.array([0, 1])
        np.add.at(counts, into[~leaf, None] * m + steps, through[kids])
    return counts


def _matrix_key(X: np.ndarray) -> tuple:
    """Shape and content digest: names the matrix a count cache was built from."""
    return X.shape, hashlib.sha256(np.ascontiguousarray(X)).digest()


def _training_counts(model: ForestModel, X: np.ndarray) -> np.ndarray:
    """All-row transition counts of X over every tree, summed.

    Served from fit's routing pass when X is the matrix fit routed;
    otherwise X is routed through the same kernel.
    """
    if model._train_counts is not None and model._train_counts[0] == _matrix_key(X):
        return model._train_counts[1]
    forest = model.forest
    return _transition_counts(forest, _leaf_visits(forest, X), X.shape[1])


def _mean_paths(
    forest: FlatForest, X: np.ndarray, visits: np.ndarray | None = None
) -> np.ndarray:
    """Mean path length of every row of X; adds each row's leaves into `visits`.

    A row's path lengths are summed tree by tree in tree order, so scores do
    not depend on the block size.
    """
    total = np.empty(len(X))
    for start, leaves in _leaf_blocks(forest, X):
        # A running sum down the trees fixes the order of the additions;
        # `sum` may add pairwise, e.g. when the block is a single row.
        paths = np.cumsum(forest.h.take(leaves), axis=0)
        total[start : start + leaves.shape[1]] = paths[-1]
        if visits is not None:
            visits += np.bincount(leaves.ravel(), minlength=forest.n_nodes)
    return total / forest.n_trees


def anomaly_score(
    mean_path: float | np.ndarray, subsample_size: int
) -> float | np.ndarray:
    """s = 2^(-mean_path / c(subsample_size)); in (0, 1], decreasing in mean_path."""
    c = average_path_normalizer(subsample_size)
    if isinstance(mean_path, np.ndarray):
        return 2.0 ** (-mean_path.astype(np.float64) / c)
    return 2.0 ** (-float(mean_path) / c)


def score_samples(model: ForestModel, data: Dataset | np.ndarray) -> np.ndarray:
    """Anomaly scores for arbitrary samples under a fitted model.

    Any number of rows is scored; a matrix narrower than the model's highest
    split feature is a ValueError.
    """
    X = data.features if isinstance(data, Dataset) else np.asarray(data, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError("expected a 2-dimensional sample matrix")
    return anomaly_score(
        _mean_paths(model.forest, X), model.subsample_size
    )


def label_scores(
    scores: np.ndarray, rule: ScoreThreshold | Contamination
) -> np.ndarray:
    n = len(scores)
    labels = np.full(n, INLIER, dtype="<U7")
    if isinstance(rule, ScoreThreshold):
        labels[scores >= rule.threshold] = OUTLIER
        return labels
    k = math.ceil(rule.fraction * n)
    if k == 0:
        raise SingleClassError("no outliers detected; DPG weighting undefined")
    # Stable sort on -scores: score ties resolve to the lower sample index.
    order = np.argsort(-scores, kind="stable")
    labels[order[:k]] = OUTLIER
    return labels
