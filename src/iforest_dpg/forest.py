"""Isolation forest training, scoring, and inlier/outlier labeling.

Trees are grown on uniform random subsamples with uniformly random
feature/value splits. Trees grow in lockstep, one node of each per numpy
step, straight into preorder arrays; each tree's draws come from its own
seeded Generator stream, replayed from raw bit-generator words in the order a
recursive grower would draw them. A fitted forest is one node table of all
trees (`FlatForest`), the only tree form, which every routing pass reads.
Anomaly scores follow the classic path-length normalization:
s = 2^(-E[h(x)] / c(n)) where c(n) is the expected unsuccessful-search path
length in a binary search tree of n points. New rows are labeled by the
model's score cutoff, fixed at fit time.
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
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
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


# Tree growth replays each tree's Generator stream from its bit generator's
# raw 64-bit words. Generator's `integers(k)` draws a 32-bit value through the
# bit generator's buffered `next_uint32`: the low half of a fresh word, keeping
# the high half for the next 32-bit draw. `uniform` takes a whole word.
_LOW32 = np.uint64(0xFFFFFFFF)
# `uniform` scales a word's top 53 bits by 2**-53 to a double in [0, 1).
_UNIT = 2.0**-53


class _Streams:
    """The Generator streams of many trees, drawn for a set of trees at once.

    Stream t continues `generators[t]` where its caller left it. For each tree
    listed, `integers` and `uniform` return what that Generator's
    `integers(k)` and `uniform(lo, hi)` would return next, so trees may draw
    in lockstep as long as each tree's own draws keep their order. A half word
    left pending in a generator's state is used first; further words come
    from `random_raw`, which leaves that buffer alone, and are fetched only
    when a tree has read all it was given.
    """

    def __init__(self, generators: Sequence[np.random.Generator]) -> None:
        self._bits = [g.bit_generator for g in generators]
        states = [b.state for b in self._bits]
        self._has_half = np.array([s["has_uint32"] for s in states], dtype=bool)
        self._half = np.array([s["uinteger"] for s in states], dtype=np.uint64)
        self._words = np.empty((len(generators), 0), dtype=np.uint64)
        self._next = np.zeros(len(generators), dtype=np.intp)

    def _take(self, trees: np.ndarray) -> np.ndarray:
        """The next word of each listed tree; a tree is listed at most once."""
        at = self._next[trees]
        have = self._words.shape[1]
        if at.size and at.max() >= have:
            more = max(have // 2, 32)
            fetched = np.stack([b.random_raw(more) for b in self._bits])
            self._words = np.hstack([self._words, fetched])
        self._next[trees] = at + 1
        return self._words[trees, at]

    def _uint32(self, trees: np.ndarray) -> np.ndarray:
        value = self._half[trees]
        fresh = ~self._has_half[trees]
        word = self._take(trees[fresh])
        value[fresh] = word & _LOW32
        self._half[trees[fresh]] = word >> np.uint64(32)
        self._has_half[trees] = fresh
        return value

    def integers(self, trees: np.ndarray, k: int) -> np.ndarray:
        """`integers(k)`, 1 <= k <= 2**32: Lemire's multiply-and-reject."""
        if k == 1:
            return np.zeros(len(trees), dtype=np.intp)
        scale = np.uint64(k)
        reject_below = np.uint64((2**32 - k) % k)
        m = self._uint32(trees) * scale
        redo = np.flatnonzero((m & _LOW32) < reject_below)
        while redo.size:
            m[redo] = self._uint32(trees[redo]) * scale
            redo = redo[(m[redo] & _LOW32) < reject_below]
        return (m >> np.uint64(32)).astype(np.intp)

    def uniform(self, trees: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """`uniform(lo, hi)`: lo + (hi - lo) * u, u from the top 53 bits of a word."""
        return lo + (hi - lo) * ((self._take(trees) >> np.uint64(11)) * _UNIT)


def _segments(starts: np.ndarray, lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Positions of the segments [start, start + length), laid end to end,
    and where each segment begins among them."""
    offsets = np.cumsum(lengths) - lengths
    at = np.arange(int(lengths.sum()))
    at += np.repeat(starts - offsets, lengths)
    return at, offsets


# Subsample rows grown in one lockstep group. Each step gathers up to this
# many rows into about ten temporary arrays, so it bounds the memory growth
# takes whatever the number of trees; a forest of 200 trees of up to 256 rows
# is one group.
_GROUP_ROWS = 1 << 16


def _grow_forest(
    X: np.ndarray, sub_n: int, depth_cap: int, n_trees: int, seed: int
) -> tuple[list[np.ndarray], ...]:
    """Grow every tree into (feature, split, right, size), one array per tree.

    The arrays are `FlatForest`'s per-tree preorder form. Tree t draws its
    subsample with `default_rng(seed + t).choice` and its splits from the rest
    of that stream, in the order a recursive grower would. Consecutive trees
    grow in lockstep groups of at most `_GROUP_ROWS` subsample rows.
    """
    per_group = max(1, _GROUP_ROWS // sub_n)
    grown: tuple[list[np.ndarray], ...] = ([], [], [], [])
    for first in range(seed, seed + n_trees, per_group):
        seeds = range(first, min(first + per_group, seed + n_trees))
        for column, group in zip(grown, _grow_lockstep(X, sub_n, depth_cap, seeds)):
            column.extend(group)
    return grown


def _grow_lockstep(
    X: np.ndarray, sub_n: int, depth_cap: int, seeds: Sequence[int]
) -> tuple[list[np.ndarray], ...]:
    """Grow one tree per seed in lockstep, as `_grow_forest` describes.

    Each step pops the next node of every tree whose stack is not empty, so
    node i of each tree is made at step i. A stack entry is (start, end,
    depth, parent): the node's rows are `order[t, start:end]`, and parent is
    the node it is the right child of, -1 for a left child. A split
    partitions its rows in place, left rows first, and pushes the right child
    under the left one.
    """
    n, d = X.shape
    n_trees = len(seeds)
    generators = [np.random.default_rng(seed) for seed in seeds]
    order = np.stack([g.choice(n, size=sub_n, replace=False) for g in generators])
    streams = _Streams(generators)
    rows_of = order.ravel()
    base = np.arange(n_trees) * sub_n
    stack = np.zeros((n_trees, depth_cap + 2, 4), dtype=np.intp)
    stack[:, 0] = (0, sub_n, 0, -1)
    height = np.ones(n_trees, dtype=np.intp)
    # Node i of tree t is column i; columns are added as the trees grow.
    feature = np.empty((n_trees, 0), dtype=np.int32)
    split = np.empty((n_trees, 0))
    right = np.empty((n_trees, 0), dtype=np.int32)
    size = np.empty((n_trees, 0), dtype=np.int32)
    n_nodes = np.zeros(n_trees, dtype=np.intp)
    live = np.arange(n_trees)
    step = 0
    while live.size:
        if step == feature.shape[1]:
            more = max(step // 2, 32)
            feature, split, right, size = (
                np.hstack([a, np.full((n_trees, more), fill, dtype=a.dtype)])
                for a, fill in ((feature, -1), (split, 0.0), (right, -1), (size, 0))
            )
        n_nodes[live] = step + 1
        height[live] -= 1
        start, end, depth, parent = stack[live, height[live]].T
        is_right = parent >= 0
        right[live[is_right], parent[is_right]] = step
        count = end - start
        size[live, step] = count
        can = np.flatnonzero((count > 1) & (depth < depth_cap))
        trees, lengths = live[can], count[can]
        f = streams.integers(trees, d)
        at, offsets = _segments(base[trees] + start[can], lengths)
        rows = rows_of[at]
        column = X[rows, np.repeat(f, lengths)]
        lo = np.minimum.reduceat(column, offsets)
        hi = np.maximum.reduceat(column, offsets)
        constant = np.flatnonzero(lo == hi)
        if constant.size:
            # Redraw among the features that can still be split; a node of
            # identical rows stays a leaf.
            for j in constant:
                sub = X[rows[offsets[j] : offsets[j] + lengths[j]]]
                mins, maxs = sub.min(axis=0), sub.max(axis=0)
                valid = np.flatnonzero(mins < maxs)
                if valid.size:
                    f[j] = valid[streams.integers(trees[j : j + 1], len(valid))[0]]
                    lo[j], hi[j] = mins[f[j]], maxs[f[j]]
            kept = lo < hi
            can, trees, lengths, f, lo, hi = (
                a[kept] for a in (can, trees, lengths, f, lo, hi)
            )
            at, offsets = _segments(base[trees] + start[can], lengths)
            rows = rows_of[at]
            column = X[rows, np.repeat(f, lengths)]
        with np.errstate(over="ignore"):
            if np.isinf(hi - lo).any():
                raise ValueError("a feature's range is too wide to split: max - min overflows")
        v = streams.uniform(trees, lo, hi)
        goes_right = column > np.repeat(v, lengths)
        key = np.repeat(np.arange(0, 2 * len(can), 2), lengths) + goes_right
        rows_of[at] = rows[np.argsort(key, kind="stable")]
        s, e = start[can], end[can]
        mid = e - np.add.reduceat(goes_right, offsets, dtype=np.intp)
        # Push the right child, then the left one on top of it.
        top = height[trees]
        kids = depth[can] + 1
        stack[trees, top] = np.column_stack((mid, e, kids, np.full(len(can), step)))
        stack[trees, top + 1] = np.column_stack((s, mid, kids, np.full(len(can), -1)))
        height[trees] += 2
        feature[trees, step] = f
        split[trees, step] = v
        size[trees, step] = 0
        live = live[height[live] > 0]
        step += 1
    return tuple(
        [a[t, :k].copy() for t, k in enumerate(n_nodes.tolist())]
        for a in (feature, split, right, size)
    )


def fit(data: Dataset, params: ForestParams) -> ForestModel:
    """Train an isolation forest and label every training sample.

    Tree t draws its subsample without replacement, then its splits, from the
    stream seeded with `params.seed + t`, so fits are reproducible. The trees
    grow together (`_grow_forest`), each drawing exactly what a grower of
    that one tree would, so the forest does not depend on how growth is
    batched.
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

    forest = FlatForest(
        *_grow_forest(X, sub_n, depth_cap, params.n_trees, params.seed),
        leaf_adjustment=params.leaf_adjustment,
    )

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
