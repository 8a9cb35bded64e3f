"""Isolation forest training, scoring, and inlier/outlier labeling.

Trees are grown on uniform random subsamples with uniformly random
feature/value splits. Trees grow in lockstep, one split of each per numpy
step, popping from flat per-tree stacks that hold only nodes that may split.
Each tree's draws come from its own seeded Generator stream, replayed from raw
bit-generator words in the order a recursive grower would draw them. A fitted
forest is one table (`FlatForest`), its only form: every tree laid out as a
perfect tree as deep as the depth cap, level by level, so a split writes its
own slot and a step down a level is arithmetic on a slot index. A route ends
at one of the last level's slots. A routing pass steps blocks of (tree, row)
pairs down the levels together, a band of consecutive trees over a run of
rows at a time, so a block counts its routes' final slots in its band's
share of the table only. Each thread routes in arrays the pass's caller
allocates and it reuses from block to block, and a large pass shares its
runs with a second thread. Path lengths sit on a grid on which any sum of
one per tree is exact, so no score depends on how a pass is split. Transition
counts follow from how many routes end at each final slot, summed pairwise
up the levels.
Anomaly scores follow the classic path-length normalization:
s = 2^(-E[h(x)] / c(n)) where c(n) is the expected unsuccessful-search path
length in a binary search tree of n points. New rows are labeled by the
model's score cutoff, fixed at fit time.
"""

from __future__ import annotations

import math
import os
import threading
import warnings
from collections.abc import Iterable, Iterator, Sequence
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
    """Every tree of a forest as a perfect tree of `levels` levels, stored
    level by level: the one form `fit` grows, routing steps through and
    model.json is saved from and loaded into.

    Slot (level k, tree t, position p) is T*(2**k - 1) + t*2**k + p for T
    trees, so tree t's root is slot t and the children of slot s are
    2*s + T (left) and 2*s + T + 1 (right); counted from its level's first
    slot, slot q's children are 2q and 2q + 1 of the level below. Levels
    0..levels-1 hold `feature` (int32) and `threshold` (float64): a split
    sends values <= threshold left and larger values right. A leaf, and
    every slot below it, has feature 0 and threshold +inf, so a row that
    reaches it keeps going left. The T*2**levels final slots, indexed from
    the last level's first, hold `size` (int32), the subsample rows of the
    leaf whose left-going route ends there, 0 where no route ends, and `h`,
    the path length a route that ends there adds to a score: the leaf's
    depth, plus c(size) when `leaf_adjustment`, rounded (ties to even) to
    the grid g = 2**(ceil(log2(T * max h)) - 52), at most 2**-40 at 200
    trees since max h < 20.48, unless every `h` is 0. A sum of at most one
    `h` per tree is then exact in float64, in any order.

    A slot is a node iff it is a root or its parent's threshold is finite; a
    node is a leaf iff its threshold is +inf or it is a final slot.
    """

    __slots__ = ("n_trees", "levels", "feature", "threshold", "size", "h", "width")

    def __init__(
        self,
        n_trees: int,
        levels: int,
        feature: np.ndarray,
        threshold: np.ndarray,
        size: np.ndarray,
        leaf_adjustment: bool,
    ) -> None:
        self.n_trees, self.levels = n_trees, levels
        self.feature, self.threshold, self.size = feature, threshold, size
        # The depth of the leaf above each final slot, from the roots down: a
        # slot below a split is one level deeper, one below a leaf is not.
        depth = np.zeros(n_trees)
        for k in range(levels):
            depth = np.where(np.isfinite(threshold[self.level(k)]), k + 1.0, depth).repeat(2)
        self.h = depth
        if leaf_adjustment:
            self.h += _leaf_adjustment_table(int(size.max(initial=0)))[size]
        top = n_trees * float(self.h.max(initial=0.0))
        if top:
            # 2**52 g is the least power of two >= top, so T values of at
            # most max h + g/2 sum to at most 2**52 g + T g/2 < 2**53 g.
            mantissa, exponent = math.frexp(top)
            grid = math.ldexp(1.0, exponent - (mantissa == 0.5) - 52)
            self.h /= grid
            np.rint(self.h, out=self.h)
            self.h *= grid
        # Columns a routed row must have: leaves read column 0.
        self.width = int(feature.max(initial=0)) + 1

    def level(self, k: int, trees: range | None = None) -> slice:
        """The slots of level k < `levels` in `feature` and `threshold`; only
        those of the consecutive trees `trees`, when given."""
        first = self.n_trees * ((1 << k) - 1)
        if trees is None:
            trees = range(self.n_trees)
        return slice(first + (trees.start << k), first + (trees.stop << k))


@dataclass
class ForestModel:
    """Fitted forest plus training-time scores, outlier mask, score cutoff
    and feature names.

    Immutable by convention. `is_outlier` is True for the training rows the
    label rule makes Outliers, a function of `scores` and the rule. `cutoff`
    labels the scores of new rows, Outlier iff score >= cutoff, so a saved
    model labels a row the same in any batch: it is the rule's threshold for
    ScoreThreshold and the lowest score of a training outlier for
    Contamination. A new row that ties the cutoff is an Outlier, even where a
    training row with that score lost the tie. `feature_names` are the
    training columns, in order.
    """

    forest: FlatForest
    params: ForestParams
    n_train: int
    scores: np.ndarray
    is_outlier: np.ndarray
    cutoff: float
    feature_names: list[str]
    # How many training rows end at each final slot, from fit's routing
    # pass; None on a loaded model, and never saved.
    train_visits: np.ndarray | None = field(default=None, repr=False, compare=False)

    @property
    def subsample_size(self) -> int:
        return min(self.params.max_subsample, self.n_train)

    @property
    def max_depth(self) -> int:
        return max_tree_depth(self.subsample_size)


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
        # Word j of tree t is at j * n_trees + t; tree t's next is `_next[t]`.
        self._words = np.empty(0, dtype=np.uint64)
        self._next = np.arange(len(generators))
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
        at = self._next.take(trees)
        if at.size and at.max() >= len(self._words):
            self._fetch(max(len(self._words) // len(self._bits) // 2, 32))
        self._next[trees] = at + len(self._bits)
        return self._words.take(at)

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
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Grow every tree into `FlatForest`'s slots, `depth_cap` levels deep:
    (feature, threshold, size).

    Tree t draws its subsample with `default_rng(seed + t).choice` and its
    splits from the rest of that stream, in the order a recursive grower
    would. Consecutive trees grow in lockstep groups of at most `_GROUP_ROWS`
    subsample rows.
    """
    feature = np.zeros(n_trees * ((1 << depth_cap) - 1), dtype=np.int32)
    threshold = np.full(len(feature), np.inf)
    size = np.zeros(n_trees << depth_cap, dtype=np.int32)
    per_group = max(1, _GROUP_ROWS // sub_n)
    for first in range(0, n_trees, per_group):
        roots = np.arange(first, min(first + per_group, n_trees))
        _grow_lockstep(X, sub_n, depth_cap, roots, seed, (feature, threshold, size))
    return feature, threshold, size


def _grow_lockstep(
    X: np.ndarray,
    sub_n: int,
    depth_cap: int,
    roots: np.ndarray,
    seed: int,
    table: tuple[np.ndarray, np.ndarray, np.ndarray],
) -> None:
    """Grow the trees at `roots` in lockstep into `table`, as `_grow_forest`
    describes; tree t's stream is seeded `seed + t`.

    Only split candidates, nodes of more than one row above the depth cap,
    go on the stacks. Each step pops one candidate of every tree whose stack
    is not empty, so step i pops each tree's candidate i in preorder, and a
    fit takes as many steps as the largest tree has internal nodes. A split
    writes each child's size at the child's leftmost final slot; a left
    child shares that slot with its parent, so the last size written there
    is the leaf's. A popped node whose feature is constant on its rows
    redraws; one of identical rows draws its first feature and no redraw, as
    in the recursive grower, and is a leaf in the step: feature 0, threshold
    +inf, no uniform, every row left, so its size is written as a left
    child's, and no child pushed. Every root starts on its tree's stack, so
    every leaf's size is written. A split writes its feature and threshold
    at its slot, pushes the right child if it is a candidate, then the left
    one on top; a child that is not a candidate is a leaf there and then and
    draws nothing.

    The stacks are flat: tree t's entry at height h is at t * (depth_cap + 1)
    + h of four arrays, (start, end, depth, slot): the node's rows are
    `rows_of[start:end]`, where tree t's subsample takes positions t * sub_n
    onwards. A split partitions its rows in place, left rows first.
    """
    n, d = X.shape
    feature, threshold, size = table
    # The forest's trees, which the slot arithmetic counts.
    forest_trees = len(size) >> depth_cap
    n_trees = len(roots)
    values = np.ascontiguousarray(X).ravel()
    generators = [np.random.default_rng(seed + t) for t in roots.tolist()]
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
    start, end, depth = (np.zeros(n_trees * width, dtype=np.int32) for _ in range(3))
    slot = np.zeros(n_trees * width, dtype=np.intp)
    start[bottom] = np.arange(n_trees) * sub_n
    end[bottom] = start[bottom] + sub_n
    slot[bottom] = roots
    # One past each tree's top entry.
    top = bottom + 1
    # The smallest unsigned key; a group has at most _GROUP_ROWS / 2 trees,
    # so it is 8 or 16 bits, which numpy's stable sort radix-sorts.
    key_type = np.min_scalar_type(2 * n_trees - 1)

    live = np.arange(n_trees)
    with np.errstate(over="ignore"):
        while live.size:
            at_top = top.take(live) - 1
            top[live] = at_top
            trees = live
            s, e, popped = start.take(at_top), end.take(at_top), slot.take(at_top)
            lengths = e - s
            f = streams.integers(trees, d)
            at, offsets = _segments(s, lengths)
            rows = rows_of.take(at)
            column = values.take(rows + f.repeat(lengths))
            lo = np.minimum.reduceat(column, offsets)
            hi = np.maximum.reduceat(column, offsets)
            for j in (lo == hi).nonzero()[0]:
                # Redraw among the features that can still be split.
                segment = slice(offsets[j], offsets[j] + lengths[j])
                sub = X[rows[segment] // d]
                mins, maxs = sub.min(axis=0), sub.max(axis=0)
                valid = np.flatnonzero(mins < maxs)
                if valid.size:
                    f[j] = valid[streams.integers(trees[j : j + 1], len(valid))[0]]
                    lo[j], hi[j] = mins[f[j]], maxs[f[j]]
                    column[segment] = sub[:, f[j]]
                else:
                    f[j] = 0
            if np.isinf(hi - lo).any():
                raise ValueError("a feature's range is too wide to split: max - min overflows")
            # Nodes of identical rows keep threshold +inf. A draw that rounds
            # up to hi, a few ulps above lo, would send every row left; it
            # becomes lo, as in scikit-learn's RandomSplitter.
            drawn = lo < hi
            v = np.full(len(trees), np.inf)
            v[drawn] = streams.uniform(trees[drawn], lo[drawn], hi[drawn])
            v = np.where(drawn & (v >= hi), lo, v)
            goes_right = column > v.repeat(lengths)
            key = np.arange(0, 2 * len(trees), 2, dtype=key_type).repeat(lengths)
            key += goes_right
            rows_of[at] = rows.take(key.argsort(kind="stable"))
            mid = e - np.add.reduceat(goes_right, offsets, dtype=np.int32)
            levels = depth.take(at_top)
            kids = levels + 1
            feature[popped] = f
            threshold[popped] = v
            left = 2 * popped + forest_trees
            left_n, right_n = mid - s, e - mid
            # From slot q of level k, counted from the level's first, k'
            # left steps lead to slot q * 2**k' of level k + k'.
            first = (popped - forest_trees * ((1 << levels) - 1)) << (depth_cap - levels)
            size[first] = left_n
            size[first + (1 << (depth_cap - kids))] = right_n
            # The right child takes the popped entry, which already holds its
            # end, and the left one goes above it; either is kept only if it
            # is a candidate, and the next write or the top leaves it out.
            above = drawn & (kids < depth_cap)
            push_right = above & (right_n > 1)
            push_left = above & (left_n > 1)
            start[at_top] = mid
            depth[at_top] = kids
            slot[at_top] = left + 1
            at_top += push_right
            start[at_top] = s
            end[at_top] = mid
            depth[at_top] = kids
            slot[at_top] = left
            top[trees] = at_top + push_left
            live = live[top.take(live) > bottom.take(live)]


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
        params.n_trees,
        depth_cap,
        *_grow_forest(X, sub_n, depth_cap, params.n_trees, params.seed),
        leaf_adjustment=params.leaf_adjustment,
    )

    # The one routing pass over the training set: it yields the scores and the
    # leaf visits a graph of the training set can be built from.
    visits = np.zeros(len(forest.h), dtype=np.int64)
    scores = anomaly_score(_mean_paths(forest, X, visits), sub_n)
    is_outlier = label_scores(scores, params.label_rule)
    return ForestModel(
        forest=forest,
        params=params,
        n_train=n,
        scores=scores,
        is_outlier=is_outlier,
        cutoff=_score_cutoff(scores, is_outlier, params.label_rule),
        feature_names=list(data.feature_names),
        train_visits=visits,
    )


# Transition counts are kept in the node order of `dpg.DpGraph`: with d
# features, M = 2d + 3 nodes, SOURCE = 0 before the root, 1 + 2*feature +
# went_right for each split predicate, then the class terminals INLIER = 2d + 1
# and OUTLIER = 2d + 2 after the leaf. counts[prev*M + node] is the number of
# routes that stepped from `prev` to `node`, so a route through a tree that is
# a single leaf adds one SOURCE -> terminal. Every route ends at a final slot,
# so the counts follow from how many rows end at each: a node is passed by the
# rows that end below it, each passing row steps into the node from its
# parent's, and each row at a leaf steps on to its class terminal.

# (tree, row) pairs routed per block, so each of a thread's slot, index and
# value arrays is about 256 KB whatever the shape of the pass. Through 200
# trees at 50 000 x 20 on two cores, routing took 0.32 s in blocks of 2**14
# pairs, 0.21 s in blocks of 2**15 and 0.18 s in blocks of 2**16, whose
# larger arrays raised the peak memory of `score` by another 1.9 MB.
_BLOCK_PAIRS = 1 << 15

# Rows of a block. A block is a band of consecutive trees over a run of
# rows: at this many rows a band is up to 32 trees, whose final slots a
# block counts in at most 32 * 2**8 int64, 64 KB, however many trees the
# forest has. A pass of fewer rows widens its band, and a forest of fewer
# trees lengthens its run, so that a block still holds up to `_BLOCK_PAIRS`
# pairs. Bands are evened out because every block costs the same Python
# overhead: through 200 trees at 50 000 x 20, bands of 32, 32, ..., 8 trees
# over runs of 1024 rows made 343 blocks and a two-thread pass 8% slower
# than forest-wide blocks of 163 rows (307 blocks), where 7 bands of 29
# trees over runs of 1129 rows make 315.
_BLOCK_ROWS = 1 << 10


def _check_width(forest: FlatForest, n_features: int) -> None:
    if n_features < forest.width:
        raise ValueError(
            "model splits on features beyond the dataset width: it reads "
            f"column index {forest.width - 1}, the data has {n_features} columns"
        )


class _RouteWork:
    """The arrays one thread routes a pass's blocks in, allocated once and
    reused by every block: each pair's level-local slot, the flat index of
    the value it compares, that value and the comparison, for bands of up to
    `band` trees over runs of up to len(`offset`) rows. The forest's
    feature table as intp, and `offset`, the flat offset of each row of a
    run in X, are the pass's, shared by its threads."""

    __slots__ = ("feature", "offset", "slot", "index", "value", "right")

    def __init__(self, feature: np.ndarray, offset: np.ndarray, band: int) -> None:
        self.feature, self.offset = feature, offset
        pairs = band * len(offset)
        self.slot = np.empty(pairs, dtype=np.intp)
        self.index = np.empty(pairs, dtype=np.intp)
        self.value = np.empty(pairs)
        self.right = np.empty(pairs, dtype=bool)


def _route(
    forest: FlatForest,
    X: np.ndarray,
    work: _RouteWork | None = None,
    trees: range | None = None,
) -> np.ndarray:
    """The final slot each row of X ends at in each tree of the band
    `trees`, all trees when None: (len(trees), n_rows) indices into the
    band's final slots, which start at `trees.start * 2**levels` of
    `forest.h` and `forest.size`. They are held in `work`'s slot array until
    its next block; without `work`, in arrays of their own.

    All (tree, row) pairs step down the levels together, one level per step.
    A pair of the band's i-th tree at position p of level k is at
    level-local slot q = i * 2**k + p, and a step is q = 2q + right, so
    after the last level q is the band-local final slot. At the roots each
    tree compares one column, read at the row offsets plus its feature,
    with no slot gather and no transposed copy of X. X is read row-major,
    from a copy when it is not C-ordered, so it must be at least
    `forest.width` columns wide, and its rows and band must fit `work`:
    both are `_route_pass`'s job. The gathers clip, because numpy buffers
    `out` in a gather that raises, so they cannot catch a narrow X. It only
    reads the forest and X, so the caller and `_route_pass`'s helper thread
    run it on their own blocks, in their own `work`, at the same time.
    """
    n, d = X.shape
    if trees is None:
        trees = range(forest.n_trees)
    band = len(trees)
    pairs = band * n
    if work is None:
        work = _RouteWork(forest.feature.astype(np.intp), np.arange(0, n * d, d), band)
    slot, index, value, right = (
        a[:pairs].reshape(band, n) for a in (work.slot, work.index, work.value, work.right)
    )
    # The index array is spent once the values are read, so it takes the
    # thresholds they are compared with.
    bound = index.view(np.float64)
    slot[...] = np.arange(band)[:, None]
    if not forest.levels:
        return slot
    roots = slice(trees.start, trees.stop)
    values = X.ravel()
    offset = work.offset[:n]
    np.add(work.feature[roots, None], offset, out=index)
    np.take(values, index, out=value, mode="clip")
    np.greater(value, forest.threshold[roots, None], out=right)
    slot <<= 1
    slot |= right
    for k in range(1, forest.levels):
        at = forest.level(k, trees)
        np.take(work.feature[at], slot, out=index, mode="clip")
        index += offset
        np.take(values, index, out=value, mode="clip")
        np.take(forest.threshold[at], slot, out=bound, mode="clip")
        np.greater(value, bound, out=right)
        slot <<= 1
        slot |= right
    return slot


# Pairs a routing pass must route before a helper thread shares its runs.
# The helper's work arrays add about 0.8 MB to peak memory, more than the
# time saved is worth on a fixture-sized pass (40 000 pairs) or a graph
# build's outlier rows (10**5 at 50 000 x 20); a pass of 50 000 rows through
# 200 trees (10**7 pairs) took 0.22 s on two cores and 0.32 s on one. At 2**19,
# each of `score`'s 4096-row blocks still routes on two threads through 128
# trees or more.
_THREAD_PAIRS = 1 << 19

# Threads that route one pass: the caller, and a helper on a second core.
_THREADS = min(2, os.cpu_count() or 1)


def _route_pass(
    forest: FlatForest,
    X: np.ndarray,
    paths: np.ndarray | None,
    visits: np.ndarray | None,
) -> None:
    """Route every (tree, row) pair of X, a block at a time: a band of
    consecutive trees over a run of rows, as `_BLOCK_ROWS` sizes them.

    Adds the sum of each row's path lengths into `paths` and the number of
    rows that end at each final slot into `visits`; either may be None. A
    thread takes a run of rows and routes it band after band: each band's
    path lengths are added to the run's sums, and the bincount of its
    band-local final slots to that band's slice of `visits`, under a lock.
    In a large pass the caller and a helper thread each take the next run
    not yet taken until none is left, so neither waits long for the other
    at the end. The caller allocates each thread's `_RouteWork` before the
    helper starts, so a later pass reuses what this one frees and nothing
    larger than a band's count is left in the helper thread's malloc arena.
    Counts are integers and path sums exact (see `FlatForest`), so neither
    depends on the blocks or threads. An exception in the helper is raised
    in the caller.
    """
    _check_width(forest, X.shape[1])
    n, d = X.shape
    n_trees, levels = forest.n_trees, forest.levels
    rows = max(1, min(n, max(_BLOCK_ROWS, _BLOCK_PAIRS // n_trees)))
    # The fewest bands that blocks of that many rows allow, evened out, and
    # runs as long as their width allows.
    band = -(-n_trees // -(-n_trees // max(1, _BLOCK_PAIRS // rows)))
    rows = max(1, min(n, _BLOCK_PAIRS // band))
    bands = [range(t, min(t + band, n_trees)) for t in range(0, n_trees, band)]
    runs = range(0, n, rows)
    threads = 2 if _THREADS > 1 and len(runs) > 1 and n_trees * n >= _THREAD_PAIRS else 1
    feature = forest.feature.astype(np.intp)
    offset = np.arange(0, rows * d, d)
    works = [_RouteWork(feature, offset, band) for _ in range(threads)]
    # Both threads count into `visits`, one band's count at a time.
    tally = threading.Lock()

    def route(starts: Iterable[int], work: _RouteWork) -> None:
        for start in starts:
            # A view, unless X is not C-ordered: then the thread that takes
            # the run copies it.
            run = np.ascontiguousarray(X[start : start + rows])
            for trees in bands:
                ends = _route(forest, run, work, trees)
                finals = slice(trees.start << levels, trees.stop << levels)
                if paths is not None:
                    # The compared values are spent, so their array takes
                    # the band's path lengths.
                    h = work.value[: ends.size].reshape(ends.shape)
                    np.take(forest.h[finals], ends, out=h, mode="clip")
                    paths[start : start + rows] += h.sum(axis=0)
                if visits is not None:
                    count = np.bincount(ends.ravel(), minlength=len(trees) << levels)
                    with tally:
                        visits[finals] += count
                    del count  # before the next band's: one count a thread

    if threads < 2:
        route(runs, works[0])
        return
    pending = iter(runs)
    claim = threading.Lock()

    def unclaimed() -> Iterator[int]:
        """The starts of the runs neither thread has taken, one at a time;
        the lock keeps a run from going to both."""
        while True:
            with claim:
                start = next(pending, None)
            if start is None:
                return
            yield start

    failed: list[BaseException] = []

    def helper() -> None:
        try:
            route(unclaimed(), works[1])
        except BaseException as exc:  # re-raised in the caller below
            failed.append(exc)

    thread = threading.Thread(target=helper, name="iforest-dpg-route")
    thread.start()
    try:
        route(unclaimed(), works[0])
    finally:
        thread.join()
    if failed:
        raise failed[0]


def _leaf_visits(forest: FlatForest, X: np.ndarray) -> np.ndarray:
    """Number of X's rows that end at each final slot."""
    visits = np.zeros(len(forest.h), dtype=np.int64)
    _route_pass(forest, X, None, visits)
    return visits


def _transition_counts(
    forest: FlatForest, visits: np.ndarray, n_features: int, terminal: int
) -> np.ndarray:
    """Transition counts (int64, M x M) of the routes that end as `visits`
    says, each stepping on to node `terminal` from its leaf.

    `visits[j]` is the number of routes that end at final slot j. The routes
    through a slot are those through its two children, summed pairwise from
    the last level up. Counting is in integers, so the result does not
    depend on the order of trees or rows.
    """
    m = 2 * n_features + 3
    through = [visits]
    for _ in range(forest.levels):
        below = through[-1]
        through.append(below[0::2] + below[1::2])
    counts = np.zeros(m * m, dtype=np.int64)
    # The node of the edge into each slot of a level: SOURCE at the roots,
    # the split predicate's below a split, and the parent's below a leaf.
    into = np.zeros(forest.n_trees, dtype=np.intp)
    for k in range(forest.levels):
        at = forest.level(k)
        split = np.flatnonzero(np.isfinite(forest.threshold[at]))
        left = 1 + 2 * forest.feature[at][split]
        # A route through a split steps on to the node of the child it went to.
        kids = through[-2 - k]
        np.add.at(counts, into[split] * m + left, kids[2 * split])
        np.add.at(counts, into[split] * m + left + 1, kids[2 * split + 1])
        into = into.repeat(2)
        into[2 * split] = left
        into[2 * split + 1] = left + 1
    ended = np.flatnonzero(visits)
    np.add.at(counts, into[ended] * m + terminal, visits[ended])
    return counts.reshape(m, m)


def _mean_paths(
    forest: FlatForest, X: np.ndarray, visits: np.ndarray | None = None
) -> np.ndarray:
    """Mean path length of every row of X; adds each row's final slots into `visits`."""
    total = np.zeros(len(X))
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
    split feature, or with a value that is not finite, is a ValueError.
    """
    X = data.features if isinstance(data, Dataset) else np.asarray(data, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError("expected a 2-dimensional sample matrix")
    if not isinstance(data, Dataset) and not np.isfinite(X).all():
        raise ValueError("features contain non-finite values")
    return anomaly_score(_mean_paths(model.forest, X), model.subsample_size)


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
    """The outlier mask of `scores` under `rule`: True where a score is
    labeled Outlier."""
    if isinstance(rule, ScoreThreshold):
        return scores >= rule.threshold
    k = _outlier_count(rule.fraction, len(scores))
    if k == 0:
        raise SingleClassError("no outliers detected; DPG weighting undefined")
    # Stable sort on -scores: score ties resolve to the lower sample index.
    is_outlier = np.zeros(len(scores), dtype=bool)
    is_outlier[np.argsort(-scores, kind="stable")[:k]] = True
    return is_outlier


def _score_cutoff(
    scores: np.ndarray, is_outlier: np.ndarray, rule: ScoreThreshold | Contamination
) -> float:
    """The score cutoff of training `scores` labelled `is_outlier` by `rule`:
    the rule's threshold for ScoreThreshold, and the lowest score of a
    training outlier for Contamination."""
    if isinstance(rule, ScoreThreshold):
        return rule.threshold
    return float(scores[is_outlier].min())
