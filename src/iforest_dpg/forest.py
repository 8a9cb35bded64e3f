"""Isolation forest training, scoring, and inlier/outlier labeling.

Trees are grown on uniform random subsamples with uniformly random
feature/value splits. Anomaly scores follow the classic path-length
normalization: s = 2^(-E[h(x)] / c(n)) where c(n) is the expected
unsuccessful-search path length in a binary search tree of n points.
"""

from __future__ import annotations

import hashlib
import math
import warnings
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
        if n < 2:
            raise ValueError(f"need at least 2 samples, got {n}")
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
class Leaf:
    size: int
    depth: int


@dataclass(frozen=True)
class Internal:
    feature_index: int
    split_value: float
    left: "TreeNode"
    right: "TreeNode"


TreeNode = Internal | Leaf


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


class FlatTree:
    """Array form of one tree for vectorized traversal.

    Node 0 is the root. `feature[i] == -1` marks a leaf; internal nodes route
    value <= threshold to `left`, otherwise to `right`.
    """

    __slots__ = ("feature", "threshold", "left", "right", "size", "depth")

    def __init__(self, root: TreeNode) -> None:
        nodes: list[TreeNode] = []
        stack = [root]
        while stack:
            node = stack.pop()
            nodes.append(node)
            if isinstance(node, Internal):
                stack.append(node.right)
                stack.append(node.left)
        count = len(nodes)
        self.feature = np.full(count, -1, dtype=np.int32)
        self.threshold = np.zeros(count, dtype=np.float64)
        self.left = np.full(count, -1, dtype=np.int32)
        self.right = np.full(count, -1, dtype=np.int32)
        self.size = np.zeros(count, dtype=np.int32)
        self.depth = np.zeros(count, dtype=np.int32)

        # Rebuild indices in preorder so layout is deterministic.
        index: dict[int, int] = {id(node): i for i, node in enumerate(nodes)}
        for i, node in enumerate(nodes):
            if isinstance(node, Leaf):
                self.size[i] = node.size
                self.depth[i] = node.depth
            else:
                self.feature[i] = node.feature_index
                self.threshold[i] = node.split_value
                self.left[i] = index[id(node.left)]
                self.right[i] = index[id(node.right)]

    @property
    def n_nodes(self) -> int:
        return len(self.feature)


@dataclass
class ForestModel:
    """Fitted ensemble plus training-time scores and labels. Immutable by convention."""

    trees: list[TreeNode]
    params: ForestParams
    n_train: int
    scores: np.ndarray
    labels: np.ndarray
    _flat: list[FlatTree] | None = field(default=None, repr=False, compare=False)
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

    def flat_trees(self) -> list[FlatTree]:
        if self._flat is None:
            self._flat = [FlatTree(root) for root in self.trees]
        return self._flat

    def outlier_count(self) -> int:
        return int(np.count_nonzero(self.labels == OUTLIER))

    def inlier_count(self) -> int:
        return int(np.count_nonzero(self.labels == INLIER))


def _grow(subset: np.ndarray, depth: int, depth_cap: int, rng: np.random.Generator) -> TreeNode:
    """Recursively grow one tree on `subset` (rows of the tree's subsample)."""
    k = len(subset)
    if k == 1 or depth == depth_cap:
        return Leaf(size=k, depth=depth)

    d = subset.shape[1]
    f = int(rng.integers(d))
    col = subset[:, f]
    lo = col.min()
    hi = col.max()
    if lo == hi:
        # Redraw among features that can still be split; none left means the
        # remaining rows are identical on every feature.
        mins = subset.min(axis=0)
        maxs = subset.max(axis=0)
        valid = np.flatnonzero(mins < maxs)
        if len(valid) == 0:
            return Leaf(size=k, depth=depth)
        f = int(valid[rng.integers(len(valid))])
        col = subset[:, f]
        lo = mins[f]
        hi = maxs[f]

    v = float(rng.uniform(lo, hi))
    mask = col <= v
    return Internal(
        feature_index=f,
        split_value=v,
        left=_grow(subset[mask], depth + 1, depth_cap, rng),
        right=_grow(subset[~mask], depth + 1, depth_cap, rng),
    )


def fit(data: Dataset, params: ForestParams) -> ForestModel:
    """Train an isolation forest and label every training sample.

    Each tree draws its own subsample without replacement using the stream
    seeded with `params.seed + tree_index`, so fits are reproducible and
    tree construction could run concurrently without changing the result.
    """
    X = data.features
    n = data.n_samples
    if np.all(X == X[0]):
        warnings.warn(
            "all samples are identical; every tree is a single leaf", stacklevel=2
        )
    sub_n = min(params.max_subsample, n)
    depth_cap = max_tree_depth(sub_n)

    trees: list[TreeNode] = []
    for i in range(params.n_trees):
        rng = np.random.default_rng(params.seed + i)
        idx = rng.choice(n, size=sub_n, replace=False)
        trees.append(_grow(X[idx], 0, depth_cap, rng))

    model = ForestModel(
        trees=trees,
        params=params,
        n_train=n,
        scores=np.empty(0),
        labels=np.empty(0, dtype="<U7"),
    )
    # The one routing pass over the training set: it yields the scores and the
    # transition counts the graph builder reuses.
    counts = np.zeros(_n_codes(data.n_features) ** 2, dtype=np.int64)
    mean_paths = _mean_path_lengths(model, np.ascontiguousarray(X.T), counts)
    model._train_counts = (_matrix_key(X), counts)
    model.scores = anomaly_score(mean_paths, sub_n)
    model.labels = label_scores(model.scores, params.label_rule)
    return model


# Transition-count layout. With d features a route steps through M = 2d + 2
# node codes: 2*feature + went_right for each split predicate, SOURCE = 2d
# before the root and END = 2d + 1 after the leaf. counts[prev*M + code] is
# the number of routes that stepped from `prev` to `code`, so a route through
# a tree that is a single leaf adds one SOURCE -> END.


def _n_codes(n_features: int) -> int:
    """M, the number of node codes in the transition-count layout."""
    return 2 * n_features + 2


def _route(
    flat: FlatTree, XT: np.ndarray, counts: np.ndarray | None = None
) -> np.ndarray:
    """Leaf node index reached by every row of the feature-major matrix XT.

    XT is X.T as a contiguous (n_features, n_rows) array. Only rows still at
    internal nodes are followed; a row drops out at its leaf. When `counts`
    (int64, length M*M) is given, every transition of every route is added
    into it.
    """
    d, n = XT.shape
    m = _n_codes(d)
    values = XT.ravel()
    feature = flat.feature.astype(np.intp)
    child = np.stack([flat.left, flat.right], axis=1).ravel().astype(np.intp)
    leaf = np.empty(n, dtype=np.intp)
    rows = np.arange(n)
    node = np.zeros(n, dtype=np.intp)
    # from_row[i] = M * (code of row i's last node); every route starts at SOURCE.
    from_row = np.full(n, (m - 2) * m)
    while rows.size:
        f = feature.take(node)
        at_leaf = f < 0
        if at_leaf.any():
            leaf[rows[at_leaf]] = node[at_leaf]
            inner = ~at_leaf
            if counts is not None:
                counts += np.bincount(from_row[at_leaf] + (m - 1), minlength=m * m)
                from_row = from_row[inner]
            rows, node, f = rows[inner], node[inner], f[inner]
        right = values.take(f * n + rows) > flat.threshold.take(node)
        code = 2 * f + right
        if counts is not None:
            counts += np.bincount(from_row + code, minlength=m * m)
            from_row = code * m
        node = child.take(2 * node + right)
    return leaf


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
    counts = np.zeros(_n_codes(X.shape[1]) ** 2, dtype=np.int64)
    XT = np.ascontiguousarray(X.T)
    for flat in model.flat_trees():
        _route(flat, XT, counts)
    return counts


def _mean_path_lengths(
    model: ForestModel, XT: np.ndarray, counts: np.ndarray | None = None
) -> np.ndarray:
    adjust = model.params.leaf_adjustment
    c_table = _leaf_adjustment_table(model.subsample_size) if adjust else None
    total = np.zeros(XT.shape[1])
    for flat in model.flat_trees():
        leaves = _route(flat, XT, counts)
        h = flat.depth[leaves].astype(np.float64)
        if c_table is not None:
            h += c_table[flat.size[leaves]]
        total += h
    return total / model.params.n_trees


def path_length(tree: TreeNode, sample: np.ndarray, leaf_adjustment: bool) -> float:
    """Edges from root to the leaf reached by `sample`, optionally adding c(leaf size)."""
    sample = np.asarray(sample, dtype=np.float64)
    node = tree
    edges = 0
    while isinstance(node, Internal):
        if sample[node.feature_index] <= node.split_value:
            node = node.left
        else:
            node = node.right
        edges += 1
    if leaf_adjustment and node.size > 1:
        return edges + average_path_normalizer(node.size)
    return float(edges)


def anomaly_score(
    mean_path: float | np.ndarray, subsample_size: int
) -> float | np.ndarray:
    """s = 2^(-mean_path / c(subsample_size)); in (0, 1], decreasing in mean_path."""
    c = average_path_normalizer(subsample_size)
    if isinstance(mean_path, np.ndarray):
        return 2.0 ** (-mean_path.astype(np.float64) / c)
    return 2.0 ** (-float(mean_path) / c)


def score_samples(model: ForestModel, data: Dataset | np.ndarray) -> np.ndarray:
    """Anomaly scores for arbitrary samples under a fitted model."""
    X = data.features if isinstance(data, Dataset) else np.asarray(data, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError("expected a 2-dimensional sample matrix")
    XT = np.ascontiguousarray(X.T)
    return anomaly_score(_mean_path_lengths(model, XT), model.subsample_size)


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


def label_samples(model: ForestModel) -> np.ndarray:
    """Re-derive per-sample labels from the model's scores and label rule."""
    return label_scores(model.scores, model.params.label_rule)
