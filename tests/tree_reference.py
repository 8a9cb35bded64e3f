"""Reference trees for the tests: a recursive grower and a recursive walk.

Both work on the per-tree preorder arrays that model.json stores and, laid
end to end, `FlatForest` is built from: `feature` (-1 at a leaf), `split`,
`right` (the index of the right child, -1 at a leaf) and `size` (rows at a
leaf, 0 at an internal node); the left child of internal node i is node
i + 1. Neither shares code with forest.py's iterative grower, node table or
routing kernel.
"""

from typing import NamedTuple

import numpy as np

from iforest_dpg.dpg import GT, LE
from iforest_dpg.forest import FlatForest, average_path_normalizer, max_tree_depth
from iforest_dpg.io import model_to_dict


class Tree(NamedTuple):
    feature: list
    split: list
    right: list
    size: list


def flat(trees, leaf_adjustment=True) -> FlatForest:
    """The node table of hand-built or reference trees."""
    return FlatForest(
        *(np.concatenate(field) for field in zip(*trees)),
        n_nodes=[len(tree.feature) for tree in trees],
        leaf_adjustment=leaf_adjustment,
    )


def trees_of(model) -> list[Tree]:
    """The model's trees as preorder arrays, in their model.json form."""
    return [Tree(**t) for t in model_to_dict(model)["trees"]]


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


def path_length(tree, x, leaf_adjustment) -> float:
    """Edges from the root to x's leaf, plus c(leaf size) when adjusting."""
    steps, leaf = route(tree, x)
    size = tree.size[leaf]
    if leaf_adjustment and size > 1:
        return len(steps) + average_path_normalizer(size)
    return float(len(steps))
