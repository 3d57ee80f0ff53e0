"""Reference Extra-Trees builder: one tree, one node at a time.

This is the per-tree, per-node random-split loop that
``DecisionTreeRegressor(splitter="random")`` ran before trees were grown
in lockstep (DESIGN §9.2). It is kept here as the oracle the differential
tests compare the lockstep builder with: same node arrays (thresholds and
values bit for bit) and same end state of every tree's random stream.
"""

from __future__ import annotations

from itertools import compress
from math import isfinite
from operator import itemgetter, not_

import numpy as np

from repro.errors import ValidationError
from repro.surrogate.base import check_fit_inputs
from repro.surrogate.tree import _EPS, _LEAF, _TINY, DecisionTreeRegressor, _exact_sse


def reference_fit(tree: DecisionTreeRegressor, X, y) -> DecisionTreeRegressor:
    """Grow ``tree`` (a ``splitter="random"`` tree) depth-first from Python lists."""
    X, y = check_fit_inputs(X, y)
    n_features = X.shape[1]
    tree.n_features_ = n_features
    k = tree._n_candidate_features()
    columns = X.T.tolist()
    y_list = y.tolist()
    rng = tree._rng
    all_features = range(n_features)
    min_split = max(tree.min_samples_split, 2 * tree.min_samples_leaf)
    min_leaf = tree.min_samples_leaf
    max_depth = tree.max_depth
    tree.children_left_ = left_of = []
    tree.children_right_ = right_of = []
    tree.feature_ = feature_of = []
    tree.threshold_ = threshold_of = []
    tree.value_ = value_of = []
    tree.n_node_samples_ = count_of = []

    def new_node(idx: list[int]) -> int:
        left_of.append(_LEAF)
        right_of.append(_LEAF)
        feature_of.append(_LEAF)
        threshold_of.append(np.nan)
        if len(idx) == 1 and y_list[idx[0]]:
            value_of.append(y_list[idx[0]])
        else:
            value_of.append(float(np.add.reduce(y[idx])) / len(idx))
        count_of.append(len(idx))
        return len(value_of) - 1

    # Depth-first with an explicit stack; the right child pops first.
    root = list(range(len(y_list)))
    stack = [(root, 0, new_node(root))]
    while stack:
        idx, depth, node = stack.pop()
        if len(idx) < min_split or (max_depth is not None and depth >= max_depth):
            continue
        gather = itemgetter(*idx)
        y_node = gather(y_list)
        if min(y_node) == max(y_node):
            continue
        features = (
            all_features
            if k >= n_features
            else rng.choice(n_features, size=k, replace=False).tolist()
        )
        candidates = []  # (feature, values at the node, lo, hi)
        for feature in features:
            values = gather(columns[feature])
            lo, hi = min(values), max(values)
            if lo != hi:
                candidates.append((feature, values, lo, hi))
        if not candidates:
            continue
        split = random_split(rng, min_leaf, candidates, y_node)
        if split is None:
            continue
        feature, threshold, goes_left = split
        left = list(compress(idx, goes_left))
        right = list(compress(idx, map(not_, goes_left)))
        if len(left) < min_leaf or len(right) < min_leaf:
            continue
        feature_of[node] = feature
        threshold_of[node] = threshold
        left_id = new_node(left)
        right_id = new_node(right)
        left_of[node] = left_id
        right_of[node] = right_id
        stack.append((left, depth + 1, left_id))
        stack.append((right, depth + 1, right_id))
    tree._finalize()
    return tree


def random_split(
    rng: np.random.Generator,
    min_leaf: int,
    candidates: list[tuple[int, tuple[float, ...], float, float]],
    y_node: tuple[float, ...],
) -> tuple[int, float, list[bool]] | None:
    """Extra-Trees rule: one uniform threshold per candidate feature, keep
    the first candidate of least SSE (screened in Python, near ties
    re-scored with the exact numpy expression)."""
    n = len(y_node)
    for feature, _, lo, hi in candidates:
        if not isfinite(hi - lo):
            raise ValidationError(f"the range of feature {feature} overflows a double")
    draws = rng.random(len(candidates)).tolist()
    valid = []  # (feature, threshold, goes_left, n_left)
    for (feature, values, lo, hi), u in zip(candidates, draws):
        threshold = lo + (hi - lo) * u
        goes_left = [v <= threshold for v in values]
        n_left = goes_left.count(True)
        if min_leaf <= n_left <= n - min_leaf:
            valid.append((feature, threshold, goes_left, n_left))
    if not valid:
        return None

    distinct = []  # (candidate, its partition mirrored)
    for candidate in valid:
        goes_left = candidate[2]
        for seen, flip in distinct:
            if goes_left == seen[2] or goes_left == flip:
                break
        else:
            distinct.append((candidate, list(map(not_, goes_left))))
    if len(distinct) == 1:
        return valid[0][:3]

    mean = sum(y_node) / n
    dev = [v - mean for v in y_node]
    dev2 = [v * v for v in dev]
    scores = []
    for (_, _, goes_left, n_left), goes_right in distinct:
        scores.append(
            sum(compress(dev2, goes_left))
            - sum(compress(dev, goes_left)) ** 2 / n_left
            + sum(compress(dev2, goes_right))
            - sum(compress(dev, goes_right)) ** 2 / (n - n_left)
        )
    y_max = max(max(y_node), -min(y_node))
    limit = (
        min(scores)
        + 1e-9 * sum(dev2)
        + 16.0 * n * n * _EPS * y_max * y_max
        + 64.0 * n * _TINY
    )
    if isfinite(limit):
        near = [c for (c, _), s in zip(distinct, scores) if s <= limit]
    else:  # the scores overflowed: compare every partition exactly
        near = [c for c, _ in distinct]
    if len(near) > 1:
        y_arr = np.asarray(y_node)
        exact = [_exact_sse(y_arr, np.asarray(c[2])) for c in near]
        return near[exact.index(min(exact))][:3]
    return near[0][:3]
