"""Isolation forest training, scoring, and inlier/outlier labeling.

Trees are grown on uniform random subsamples with uniformly random
feature/value splits. Trees grow in lockstep, one split of each per numpy
step, popping from flat per-tree stacks that hold only nodes that may split;
a step records its nodes, and their preorder positions follow from subtree
sizes once the last tree is done. Each tree's draws come from its own seeded
Generator stream, replayed from raw bit-generator words in the order a
recursive grower would draw them. A fitted forest is one node table of all
trees (`FlatForest`), the only tree form, in which each node's subtree is a
range of the table. Each routing pass lays it out as perfect trees, level by
level (`_LevelTable`), so a step down a level is arithmetic on a slot index,
and a large pass routes half its row blocks on a second thread; neither
changes a score or a count. Transition counts are read off the subtree
ranges.
Anomaly scores follow the classic path-length normalization:
s = 2^(-E[h(x)] / c(n)) where c(n) is the expected unsuccessful-search path
length in a binary search tree of n points. New rows are labeled by the
model's score cutoff, fixed at fit time.
"""

from __future__ import annotations

import hashlib
import math
import os
import threading
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
    """Label rule: the ceil(fraction * n) highest-scoring samples are Outliers.

    A product within float error of an integer counts as that integer, so
    0.07 of 100 samples is 7, not 8, and 1/300 of 300 is 1.
    """

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
            # Checked before the cast, which would cut "Outliers" to "Outlier".
            labels = np.asarray(self.labels)
            if labels.shape != (n,):
                raise ValueError("labels length must match n_samples")
            bad = set(labels.tolist()) - {INLIER, OUTLIER}
            if bad:
                raise ValueError(f"unknown label values: {sorted(bad, key=repr)}")
            self.labels = labels.astype("<U7")

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

    It is built from the trees' preorder arrays laid end to end, the form
    `fit` grows and model.json stores, with `n_nodes` counting each tree's
    nodes: `feature`, -1 at a leaf; `split`, the split value, unused at a
    leaf; `right`, the tree-local index of the right child, -1 at a leaf;
    and `size`, the subsample rows at a leaf, 0 at an internal node. The
    left child of internal node i is node i + 1, and its right child comes
    after the left child's subtree.

    In the table tree t's nodes start at `roots[t]`, and node i's subtree is
    the nodes [i, end[i]), so the right child of internal node i is
    end[i + 1]. An internal node sends value <= threshold left and larger
    values right; a leaf reads column 0 and has threshold +inf. `slot` is
    each node's place in `_LevelTable`: tree t's root is at t, and the
    children of the node at slot s are at 2*s + T and 2*s + T + 1 for T
    trees.

    Per node: `depth`, `size`, `h` = depth + c(size) (the path length a leaf
    contributes to a score; c only when `leaf_adjustment`) and `code` =
    2*feature + went_right of the edge into the node, -1 at a root, whose
    route starts at SOURCE.
    """

    __slots__ = (
        "roots", "feature", "threshold", "leaf", "size", "depth", "end", "slot",
        "h", "code", "max_depth", "width",
    )

    def __init__(
        self,
        feature: np.ndarray,
        split: np.ndarray,
        right: np.ndarray,
        size: np.ndarray,
        n_nodes: Sequence[int] | np.ndarray,
        leaf_adjustment: bool,
    ) -> None:
        n_nodes = np.asarray(n_nodes, dtype=np.intp)
        n_trees = len(n_nodes)
        self.roots = n_nodes.cumsum() - n_nodes
        self.leaf = np.asarray(feature) < 0
        self.feature = np.where(self.leaf, 0, feature).astype(np.int32)
        self.threshold = np.where(self.leaf, np.inf, split)
        self.size = np.asarray(size).astype(np.int32)
        inner = np.flatnonzero(~self.leaf)
        # The global index of each node's right child, meaningless at a leaf.
        right_of = np.repeat(self.roots, n_nodes)
        right_of += right
        self.code = np.full(len(self.leaf), -1, dtype=np.int32)
        self.code[inner + 1] = 2 * self.feature[inner]
        self.code[right_of[inner]] = self.code[inner + 1] + 1
        # Depth, subtree end and slot one level at a time, from the roots down.
        self.depth = np.zeros(len(self.leaf), dtype=np.int32)
        self.end = np.empty(len(self.leaf), dtype=np.int32)
        self.end[self.roots] = self.roots + n_nodes
        self.slot = np.empty(len(self.leaf), dtype=np.int32)
        self.slot[self.roots] = np.arange(n_trees)
        level, depth = self.roots, 0
        while level.size:
            self.depth[level] = depth
            at = level[~self.leaf[level]]
            left, right_child = at + 1, right_of[at]
            self.end[left] = right_child
            self.end[right_child] = self.end[at]
            self.slot[left] = 2 * self.slot[at] + n_trees
            self.slot[right_child] = self.slot[left] + 1
            level = np.concatenate([left, right_child])
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
    from `random_raw`, which leaves that buffer alone. Words sit in one flat
    buffer: `prefetch` words of every tree are fetched at once, and more only
    when a tree has read all it was given.
    """

    def __init__(self, generators: Sequence[np.random.Generator], prefetch: int) -> None:
        self._bits = [g.bit_generator for g in generators]
        states = [b.state for b in self._bits]
        self._has_half = np.array([s["has_uint32"] for s in states], dtype=bool)
        self._half = np.array([s["uinteger"] for s in states], dtype=np.uint64)
        # Word j of tree t is at j * n_trees + t; `_read[t]` words are used.
        self._words = np.empty(0, dtype=np.uint64)
        self._read = np.zeros(len(generators), dtype=np.intp)
        self._fetch(prefetch)

    def _fetch(self, more: int) -> None:
        """Append `more` fresh words of every tree to the buffer."""
        have = len(self._words)
        words = np.empty(have + more * len(self._bits), dtype=np.uint64)
        words[:have] = self._words
        fresh = words[have:].reshape(more, len(self._bits))
        for t, bits in enumerate(self._bits):
            fresh[:, t] = bits.random_raw(more)
        self._words = words

    def _take(self, trees: np.ndarray) -> np.ndarray:
        """The next word of each listed tree; a tree is listed at most once."""
        read = self._read.take(trees)
        n_trees = len(self._bits)
        have = len(self._words) // n_trees
        if read.size and read.max() >= have:
            self._fetch(max(have // 2, 32))
        self._read[trees] = read + 1
        return self._words.take(read * n_trees + trees)

    def _uint32(self, trees: np.ndarray) -> np.ndarray:
        value = self._half.take(trees)
        fresh = ~self._has_half.take(trees)
        renew = trees[fresh]
        word = self._take(renew)
        value[fresh] = word & _LOW32
        self._half[renew] = word >> np.uint64(32)
        self._has_half[trees] = fresh
        return value

    def integers(self, trees: np.ndarray, k: int) -> np.ndarray:
        """`integers(k)`, 1 <= k <= 2**32: Lemire's multiply-and-reject."""
        if k == 1:
            return np.zeros(len(trees), dtype=np.intp)
        scale = np.uint64(k)
        reject_below = np.uint64((2**32 - k) % k)
        m = self._uint32(trees) * scale
        redo = ((m & _LOW32) < reject_below).nonzero()[0]
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
    offsets = lengths.cumsum() - lengths
    at = np.arange(int(lengths.sum()))
    at += (starts - offsets).repeat(lengths)
    return at, offsets


# Subsample rows grown in one lockstep group. Each step gathers up to this
# many rows into about ten temporary arrays, so it bounds the memory growth
# takes whatever the number of trees; a forest of 200 trees of up to 256 rows
# is one group.
_GROUP_ROWS = 1 << 16


def _grow_forest(
    X: np.ndarray, sub_n: int, depth_cap: int, n_trees: int, seed: int
) -> tuple[np.ndarray, ...]:
    """Grow every tree into (feature, split, right, size, n_nodes).

    The first four are `FlatForest`'s flat preorder form, all trees end to
    end: int32 feature, float64 split, int32 right and int32 size; `n_nodes`
    counts each tree's nodes. Tree t draws its subsample with
    `default_rng(seed + t).choice` and its splits from the rest of that
    stream, in the order a recursive grower would. Consecutive trees grow in
    lockstep groups of at most `_GROUP_ROWS` subsample rows.
    """
    per_group = max(1, _GROUP_ROWS // sub_n)
    groups = [
        _grow_lockstep(X, sub_n, depth_cap, range(first, min(first + per_group, seed + n_trees)))
        for first in range(seed, seed + n_trees, per_group)
    ]
    return tuple(np.concatenate(column) for column in zip(*groups))


def _grow_lockstep(
    X: np.ndarray, sub_n: int, depth_cap: int, seeds: Sequence[int]
) -> tuple[np.ndarray, ...]:
    """Grow one tree per seed in lockstep, as `_grow_forest` describes.

    Only split candidates, nodes of more than one row above the depth cap,
    go on the stacks. Each step pops one candidate of every tree whose stack
    is not empty, so step i pops each tree's candidate i in preorder, and a
    fit takes as many steps as the largest tree has internal nodes. A popped
    node whose rows are all identical draws its redraw and stays a leaf. A
    split records both children, pushes the right one if it is a candidate,
    then the left one on top; a child that is not a candidate is a leaf there
    and then and draws nothing, as in the recursive grower.

    The stacks are flat: tree t's entry at height h is at t * (depth_cap + 1)
    + h of four arrays, (start, end, depth, node): the node's rows are
    `rows_of[start:end]`, where tree t's subsample takes positions t * sub_n
    onwards, and node is its record. A split partitions its rows in place,
    left rows first. Records are numbered as they are made: tree t's root is
    t, and split k makes records n_trees + 2k (left) and n_trees + 2k + 1
    (right). Once the last tree is done, each record's subtree size is
    summed from the deepest splits up, and its preorder position follows
    from the roots down: the left child of the node at v is at v + 1, the
    right child at v + 1 + the left child's subtree size.
    """
    n, d = X.shape
    n_trees = len(seeds)
    values = np.ascontiguousarray(X).ravel()
    generators = [np.random.default_rng(seed) for seed in seeds]
    # Each subsample row as the flat offset of its first value.
    rows_of = np.concatenate([g.choice(n, size=sub_n, replace=False) for g in generators]) * d
    # About the words a tree reads: 8 * n_trees * sub_n bytes, at most
    # 8 * max(_GROUP_ROWS, sub_n).
    streams = _Streams(generators, prefetch=sub_n)
    # The entries under a popped one have distinct depths from 1 up to its
    # own, so an entry popped at height h is at a depth k >= h, and its split
    # writes at most at height h + 1 <= k + 1 <= depth_cap.
    width = depth_cap + 1
    bottom = np.arange(n_trees) * width
    start, end, depth, node = (np.zeros(n_trees * width, dtype=np.int32) for _ in range(4))
    start[bottom] = np.arange(n_trees) * sub_n
    end[bottom] = start[bottom] + sub_n
    node[bottom] = np.arange(n_trees)
    # One past each tree's top entry.
    top = bottom + 1
    # The smallest unsigned key; a group has at most _GROUP_ROWS / 2 trees,
    # so it is 8 or 16 bits, which numpy's stable sort radix-sorts.
    key_type = np.min_scalar_type(2 * n_trees - 1)
    # Per step, for each split: its tree, record, depth, feature and value,
    # and the row counts of its two children.
    split_trees: list[np.ndarray] = []
    split_nodes: list[np.ndarray] = []
    split_depths: list[np.ndarray] = []
    split_features: list[np.ndarray] = []
    split_values: list[np.ndarray] = []
    left_counts: list[np.ndarray] = []
    right_counts: list[np.ndarray] = []
    made = n_trees
    live = np.arange(n_trees)
    with np.errstate(over="ignore"):
        while live.size:
            at_top = top.take(live) - 1
            top[live] = at_top
            trees = live
            s, e, popped = start.take(at_top), end.take(at_top), node.take(at_top)
            lengths = e - s
            f = streams.integers(trees, d)
            at, offsets = _segments(s, lengths)
            rows = rows_of.take(at)
            column = values.take(rows + f.repeat(lengths))
            lo = np.minimum.reduceat(column, offsets)
            hi = np.maximum.reduceat(column, offsets)
            constant = (lo == hi).nonzero()[0]
            if constant.size:
                # Redraw among the features that can still be split; a node
                # of identical rows stays a leaf.
                for j in constant:
                    sub = X[rows[offsets[j] : offsets[j] + lengths[j]] // d]
                    mins, maxs = sub.min(axis=0), sub.max(axis=0)
                    valid = np.flatnonzero(mins < maxs)
                    if valid.size:
                        f[j] = valid[streams.integers(trees[j : j + 1], len(valid))[0]]
                        lo[j], hi[j] = mins[f[j]], maxs[f[j]]
                kept = lo < hi
                trees, lengths, s, e, popped, at_top, f, lo, hi = (
                    a[kept] for a in (trees, lengths, s, e, popped, at_top, f, lo, hi)
                )
                at, offsets = _segments(s, lengths)
                rows = rows_of.take(at)
                column = values.take(rows + f.repeat(lengths))
            if np.isinf(hi - lo).any():
                raise ValueError("a feature's range is too wide to split: max - min overflows")
            v = streams.uniform(trees, lo, hi)
            goes_right = column > v.repeat(lengths)
            key = np.arange(0, 2 * len(trees), 2, dtype=key_type).repeat(lengths)
            key += goes_right
            rows_of[at] = rows.take(key.argsort(kind="stable"))
            mid = e - np.add.reduceat(goes_right, offsets, dtype=np.int32)
            kids = depth.take(at_top) + 1
            left = np.arange(made, made + 2 * len(trees), 2, dtype=np.int32)
            made += 2 * len(trees)
            left_n, right_n = mid - s, e - mid
            # The right child takes the popped entry, which already holds its
            # end, and the left one goes above it; either is kept only if it
            # is a candidate, else the next write or the top leaves it out.
            above = kids < depth_cap
            push_right = above & (right_n > 1)
            push_left = above & (left_n > 1)
            start[at_top] = mid
            depth[at_top] = kids
            node[at_top] = left + 1
            at_top += push_right
            start[at_top] = s
            end[at_top] = mid
            depth[at_top] = kids
            node[at_top] = left
            top[trees] = at_top + push_left
            split_trees.append(trees)
            split_nodes.append(popped)
            split_depths.append(kids)
            split_features.append(f)
            split_values.append(v)
            left_counts.append(left_n)
            right_counts.append(right_n)
            live = live[top.take(live) > bottom.take(live)]
    # Each record's subtree size, from the deepest splits up, then its
    # preorder position, from the roots down; tree t's root is record t.
    tree = np.concatenate(split_trees)
    inner = np.concatenate(split_nodes)
    level = np.concatenate(split_depths)
    left = np.arange(n_trees, made, 2, dtype=np.int32)
    by_level = [np.flatnonzero(level == k) for k in range(1, depth_cap + 1)]
    subtree = np.ones(made, dtype=np.int32)
    for k in reversed(by_level):
        subtree[inner[k]] = subtree[left[k]] + subtree[left[k] + 1] + 1
    n_nodes = subtree[:n_trees]
    position = np.empty(made, dtype=np.int32)
    position[:n_trees] = n_nodes.cumsum() - n_nodes
    for k in by_level:
        kid = left[k]
        position[kid] = position[inner[k]] + 1
        position[kid + 1] = position[kid] + subtree[kid]
    size = np.empty(made, dtype=np.int32)
    size[position[:n_trees]] = sub_n
    size[position[n_trees::2]] = np.concatenate(left_counts)
    size[position[n_trees + 1 :: 2]] = np.concatenate(right_counts)
    at = position.take(inner)
    size[at] = 0
    feature = np.full(made, -1, dtype=np.int32)
    feature[at] = np.concatenate(split_features)
    split = np.zeros(made)
    split[at] = np.concatenate(split_values)
    # Right children as tree-local indices.
    right = np.full(made, -1, dtype=np.int32)
    right[at] = position.take(left + 1) - position.take(tree)
    return feature, split, right, size, n_nodes


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


class _LevelTable:
    """A forest as perfect trees of `max_depth` levels, stored level by level.

    Slot (level L, tree t, position p) is T*(2**L - 1) + t*2**L + p for T
    trees, so the children of a slot at any level are 2*slot + T (left) and
    2*slot + T + 1 (right), and a routing step needs no child table. Levels
    0..max_depth-1 hold `feature` and `threshold`; a leaf above the last
    level fills its subtree with feature 0 and threshold +inf, so a row that
    reached it keeps going left. Level max_depth holds `leaf`, the
    `FlatForest` node index each slot ends at, indexed from the level's first
    slot. Built for one routing pass and dropped after it.
    """

    __slots__ = ("n_trees", "levels", "feature", "threshold", "leaf")

    def __init__(self, forest: FlatForest) -> None:
        n_trees, levels = forest.n_trees, forest.max_depth
        self.n_trees, self.levels = n_trees, levels
        self.feature = np.zeros(n_trees * ((1 << levels) - 1), dtype=np.int32)
        self.threshold = np.full(len(self.feature), np.inf)
        inner = np.flatnonzero(~forest.leaf)
        here = forest.slot[inner]
        self.feature[here] = forest.feature[inner]
        self.threshold[here] = forest.threshold[inner]
        # A leaf ends where k left steps, slot -> 2*slot + T, lead from it:
        # at 2**k * slot + T*(2**k - 1), k levels below the leaf.
        leaf = np.flatnonzero(forest.leaf)
        below = (levels - forest.depth[leaf]).astype(np.intp)
        end = (forest.slot[leaf].astype(np.intp) << below) + n_trees * ((1 << below) - 1)
        self.leaf = np.zeros(n_trees << levels, dtype=np.int32)
        self.leaf[end - n_trees * ((1 << levels) - 1)] = leaf


def _route(table: _LevelTable, X: np.ndarray) -> np.ndarray:
    """The leaf each row of X reaches in every tree: (n_trees, n_rows) node indices.

    All (tree, row) pairs step down the level table together, one level per
    step. X is read row-major, so it must be at least `forest.width` columns
    wide, and its rows are bounded per call: both are `_route_pass`'s job.
    It only reads the table and X, so the caller and `_route_pass`'s helper
    thread run it on their own blocks at the same time.
    """
    n, d = X.shape
    n_trees = table.n_trees
    values = np.ascontiguousarray(X).ravel()
    slot = np.repeat(np.arange(n_trees), n)
    row_offset = np.tile(np.arange(0, n * d, d), n_trees)
    feature, threshold = table.feature, table.threshold
    for _ in range(table.levels):
        right = values.take(row_offset + feature.take(slot)) > threshold.take(slot)
        slot *= 2
        slot += n_trees
        slot += right
    slot -= n_trees * ((1 << table.levels) - 1)
    return table.leaf.take(slot).reshape(n_trees, n)


# Pairs a routing pass must route before half its blocks go to a helper
# thread. The thread's own malloc arena adds about 0.9 MB to peak memory,
# more than the time saved is worth on a fixture-sized pass (40 000 pairs);
# a pass of 50 000 rows through 200 trees (10**7 pairs) routes about a
# third faster on two cores.
_THREAD_PAIRS = 1 << 20

# Threads that route one pass: the caller, and a helper on a second core.
_THREADS = min(2, os.cpu_count() or 1)


def _route_pass(
    forest: FlatForest,
    X: np.ndarray,
    paths: np.ndarray | None,
    visits: np.ndarray | None,
) -> None:
    """Route every (tree, row) pair of X, `_BLOCK_PAIRS` pairs per block.

    Writes each row's path lengths, summed tree by tree in tree order, into
    `paths` and adds the number of rows that reach each node into `visits`;
    either may be None. A large pass routes the second half of its blocks on
    a helper thread, which counts into its own `visits`, added in at the end;
    integer sums and per-row sums do not depend on the split, so neither
    does the output. An exception in the helper is raised in the caller.
    """
    _check_width(forest, X.shape[1])
    table = _LevelTable(forest)
    step = max(1, _BLOCK_PAIRS // forest.n_trees)
    starts = range(0, len(X), step)

    def route(blocks: range, counts: np.ndarray | None) -> None:
        for start in blocks:
            leaves = _route(table, X[start : start + step])
            if paths is not None:
                # A running sum down the trees fixes the order of the
                # additions; `sum` may add pairwise, e.g. for a one-row block.
                paths[start : start + step] = np.cumsum(forest.h.take(leaves), axis=0)[-1]
            if counts is not None:
                counts += np.bincount(leaves.ravel(), minlength=forest.n_nodes)

    if _THREADS < 2 or len(starts) < 2 or forest.n_trees * len(X) < _THREAD_PAIRS:
        route(starts, visits)
        return
    half = len(starts) // 2
    helper_visits = None if visits is None else np.zeros_like(visits)
    failed: list[BaseException] = []

    def helper() -> None:
        try:
            route(starts[half:], helper_visits)
        except BaseException as exc:  # re-raised in the caller below
            failed.append(exc)

    thread = threading.Thread(target=helper, name="iforest-dpg-route")
    thread.start()
    try:
        route(starts[:half], visits)
    finally:
        thread.join()
    if failed:
        raise failed[0]
    if visits is not None:
        visits += helper_visits


def _leaf_visits(forest: FlatForest, X: np.ndarray) -> np.ndarray:
    """Number of X's rows that reach each node, nonzero only at leaves."""
    visits = np.zeros(forest.n_nodes, dtype=np.int64)
    _route_pass(forest, X, None, visits)
    return visits


def _transition_counts(
    forest: FlatForest, visits: np.ndarray, n_features: int
) -> np.ndarray:
    """Transition counts (int64, length M*M) of the routes that end as `visits` says.

    `visits[j]` is the number of routes that end at leaf j. The routes
    through a node are those that end in its subtree [i, end[i]), a
    difference of two prefix sums. Counting is in integers, so the result
    does not depend on the order of trees or rows.
    """
    m = _n_codes(n_features)
    source, end = m - 2, m - 1
    ended = np.zeros(forest.n_nodes + 1, dtype=np.int64)
    np.cumsum(visits, out=ended[1:])
    through = ended.take(forest.end) - ended[:-1]
    into = forest.code.astype(np.intp)
    into[into < 0] = source
    counts = np.zeros(m * m, dtype=np.int64)
    # A route at a leaf steps on to END; a route through an internal node
    # steps on to the code of the child it went to, i + 1 or end[i + 1].
    leaf = forest.leaf
    np.add.at(counts, into[leaf] * m + end, through[leaf])
    inner = np.flatnonzero(~leaf)
    kids = np.concatenate([inner + 1, forest.end.take(inner + 1)])
    np.add.at(counts, np.tile(into.take(inner) * m, 2) + into.take(kids), through.take(kids))
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
    not depend on the block size or on which thread routed the row.
    """
    total = np.empty(len(X))
    _route_pass(forest, X, total, visits)
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


def _outlier_count(fraction: float, n: int) -> int:
    """ceil(fraction * n), with a product within float error of an integer
    taken as that integer.

    0.07 * 100 is 7.000000000000001 in floats, but 0.07 of 100 is 7; the
    tolerance also keeps (1/300) * 300 at 1, where the decimal 1/300 prints
    as rounds up.
    """
    x = float(fraction) * n
    r = round(x)
    if abs(x - r) <= 1e-9 * max(1.0, abs(x)):
        return r
    return math.ceil(x)


def label_scores(
    scores: np.ndarray, rule: ScoreThreshold | Contamination
) -> np.ndarray:
    n = len(scores)
    labels = np.full(n, INLIER, dtype="<U7")
    if isinstance(rule, ScoreThreshold):
        labels[scores >= rule.threshold] = OUTLIER
        return labels
    k = _outlier_count(rule.fraction, n)
    if k == 0:
        raise SingleClassError("no outliers detected; DPG weighting undefined")
    # Stable sort on -scores: score ties resolve to the lower sample index.
    order = np.argsort(-scores, kind="stable")
    labels[order[:k]] = OUTLIER
    return labels
