"""Reference trees for the tests: a recursive grower and a recursive walk.

Both work on per-tree preorder arrays: `feature` (-1 at a leaf), `split`,
`right` (the index of the right child, -1 at a leaf) and `size` (rows at a
leaf, 0 at an internal node); the left child of internal node i is node
i + 1. Two recursive converters map them to and from the trees model.json
stores, splits by heap index and leaf sizes left to right, through which
`flat` builds a `FlatForest` and `trees_of` reads a model. `leaf_lengths`
rounds path lengths to the grid `FlatForest` documents, from its own walk.
None of it shares code with forest.py's iterative grower, slot table,
rounding or routing kernel.
"""

from typing import NamedTuple

import numpy as np

from iforest_dpg.dpg import GT, LE
from iforest_dpg.forest import FlatForest, average_path_normalizer, max_tree_depth
from iforest_dpg.io import _slots_from_trees, model_to_dict


class Tree(NamedTuple):
    feature: list
    split: list
    right: list
    size: list


def to_model_json(tree) -> dict:
    """The preorder tree as model.json stores it."""
    splits, sizes = [], []

    def node(i, heap):
        if tree.feature[i] < 0:
            sizes.append(tree.size[i])
            return
        splits.append((heap, tree.feature[i], tree.split[i]))
        node(i + 1, 2 * heap + 1)
        node(tree.right[i], 2 * heap + 2)

    node(0, 0)
    heaps, features, values = map(list, zip(*sorted(splits))) if splits else ([], [], [])
    return {"node": heaps, "feature": features, "split": values, "size": sizes}


def from_model_json(doc) -> Tree:
    """The preorder tree of a tree as model.json stores it."""
    splits = dict(zip(doc["node"], zip(doc["feature"], doc["split"])))
    sizes = iter(doc["size"])
    tree = Tree([], [], [], [])

    def node(heap):
        i = len(tree.feature)
        if heap not in splits:
            for column, value in zip(tree, (-1, 0.0, -1, next(sizes))):
                column.append(value)
            return
        for column, value in zip(tree, (*splits[heap], -1, 0)):
            column.append(value)
        node(2 * heap + 1)
        tree.right[i] = len(tree.feature)
        node(2 * heap + 2)

    node(0)
    return tree


def flat(trees, leaf_adjustment=True, levels=None) -> FlatForest:
    """The forest of hand-built or reference trees, placed as model.json's
    loader places them; `levels` defaults to the deepest tree's depth."""
    if levels is None:
        levels = max(depth for tree in trees for _, depth in walk(tree))
    slots = _slots_from_trees([to_model_json(tree) for tree in trees], levels)
    return FlatForest(len(trees), levels, *slots, leaf_adjustment)


def trees_of(model) -> list[Tree]:
    """The model's trees as preorder arrays, read from their model.json form."""
    return [from_model_json(t) for t in model_to_dict(model)["trees"]]


def grow(sub, depth_cap, rng) -> Tree:
    """Grow one tree recursively on its subsample, drawing from `rng` in preorder."""
    tree = Tree([], [], [], [])

    def node(subset, depth):
        i = len(tree.feature)
        for column, value in zip(tree, (-1, 0.0, -1, len(subset))):
            column.append(value)
        if len(subset) == 1 or depth == depth_cap:
            return
        d = subset.shape[1]
        f = int(rng.integers(d))
        col = subset[:, f]
        lo, hi = col.min(), col.max()
        if lo == hi:
            mins = subset.min(axis=0)
            maxs = subset.max(axis=0)
            valid = np.flatnonzero(mins < maxs)
            if len(valid) == 0:
                return
            f = int(valid[rng.integers(len(valid))])
            col = subset[:, f]
            lo, hi = mins[f], maxs[f]
        v = float(rng.uniform(lo, hi))
        if v >= hi:
            # The draw rounded up to the maximum, which would send every row
            # left; it becomes the minimum, as in scikit-learn's
            # RandomSplitter.
            v = float(lo)
        mask = col <= v
        tree.feature[i], tree.split[i], tree.size[i] = f, v, 0
        node(subset[mask], depth + 1)
        tree.right[i] = len(tree.feature)
        node(subset[~mask], depth + 1)

    node(sub, 0)
    return tree


def grow_forest(X, params) -> list[Tree]:
    """The trees `fit(X, params)` grows: per tree a seeded subsample, then `grow`."""
    n = len(X)
    sub_n = min(params.max_subsample, n)
    trees = []
    for t in range(params.n_trees):
        rng = np.random.default_rng(params.seed + t)
        idx = rng.choice(n, size=sub_n, replace=False)
        trees.append(grow(X[idx], max_tree_depth(sub_n), rng))
    return trees


def walk(tree, i=0, depth=0):
    """Yield (node, depth) for every node of the tree, in preorder."""
    yield i, depth
    if tree.feature[i] >= 0:
        yield from walk(tree, i + 1, depth + 1)
        yield from walk(tree, tree.right[i], depth + 1)


def route(tree, x, i=0):
    """(steps, leaf): the (feature, sign, split value) of every split from the
    root to x's leaf."""
    f, v = tree.feature[i], tree.split[i]
    if f < 0:
        return [], i
    if x[f] <= v:
        rest, leaf = route(tree, x, i + 1)
        return [(f, LE, v), *rest], leaf
    rest, leaf = route(tree, x, tree.right[i])
    return [(f, GT, v), *rest], leaf


def leaf_lengths(trees, leaf_adjustment) -> list[dict]:
    """Per tree, the path length of each leaf node as a forest of `trees`
    scores it: the leaf's depth, plus c(size) when adjusting and size > 1,
    rounded to the nearest multiple of g (ties to even, as `round` does).
    2**52 g is the smallest power of two at least T times the largest
    unrounded length; no length is rounded when that is 0."""
    lengths = []
    for tree in trees:
        leaves = {}
        for node, depth in walk(tree):
            size = tree.size[node]
            if tree.feature[node] < 0:
                adjust = leaf_adjustment and size > 1
                leaves[node] = depth + (average_path_normalizer(size) if adjust else 0.0)
        lengths.append(leaves)
    top = len(trees) * max(h for leaves in lengths for h in leaves.values())
    if top == 0:
        return lengths
    power = 1.0
    while power < top:
        power *= 2.0
    while power / 2.0 >= top:
        power /= 2.0
    g = power * 2.0**-52
    return [{node: round(h / g) * g for node, h in leaves.items()} for leaves in lengths]


def path_lengths(trees, X, leaf_adjustment) -> list[list[float]]:
    """Per row of X, its path length in each tree, from `leaf_lengths`."""
    lengths = leaf_lengths(trees, leaf_adjustment)
    return [[by_leaf[route(tree, x)[1]] for tree, by_leaf in zip(trees, lengths)] for x in X]
