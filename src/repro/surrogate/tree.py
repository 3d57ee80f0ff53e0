"""CART regression tree with exhaustive or randomized split selection.

One implementation serves three estimators:

- ``splitter="best"`` → classic CART (scan every threshold) — used by
  :class:`~repro.surrogate.forest.RandomForestRegressor` and standalone.
- ``splitter="random"`` → one uniform-random threshold per candidate
  feature — the *extremely randomized* split rule of Extra-Trees
  (Geurts et al. 2006), the paper's surrogate of choice.

The tree is stored in parallel arrays (children, feature, threshold, value),
which keeps prediction a tight loop and makes ``apply()`` (leaf indices,
needed by gradient boosting's leaf re-estimation) trivial.
"""

from __future__ import annotations

from itertools import compress
from math import isfinite
from numbers import Integral
from operator import itemgetter, not_
from typing import Any, Literal

import numpy as np

from repro.errors import ValidationError
from repro.surrogate.base import SurrogateModel, check_fit_inputs

__all__ = ["DecisionTreeRegressor"]

_LEAF = -1
_EPS = float(np.finfo(float).eps)
_TINY = 5e-324  # the least subnormal: the absolute rounding unit below 2**-1022


def check_max_features(max_features: Any) -> None:
    """Reject a ``max_features`` that is not ``None``, ``"sqrt"`` or an int >= 1."""
    if max_features is None or max_features == "sqrt":
        return
    if isinstance(max_features, bool) or not isinstance(max_features, Integral):
        raise ValidationError(
            f"max_features must be None, 'sqrt' or an int >= 1, got {max_features!r}"
        )
    if max_features < 1:
        raise ValidationError(f"max_features must be >= 1, got {max_features}")


def _exact_sse(y: np.ndarray, goes_left: np.ndarray) -> float:
    """Total within-child SSE of one partition, as the numpy reference computes it."""
    left = y[goes_left]
    right = y[~goes_left]
    return float(((left - left.mean()) ** 2).sum() + ((right - right.mean()) ** 2).sum())


class DecisionTreeRegressor(SurrogateModel):
    """Variance-reduction regression tree.

    Parameters mirror the scikit-learn names where they exist:

    - ``max_depth`` — maximum tree depth (``None`` = unbounded).
    - ``min_samples_split`` — minimum samples to attempt a split.
    - ``min_samples_leaf`` — minimum samples in each child.
    - ``max_features`` — number of features considered per split
      (``None`` = all, ``"sqrt"``, or an int from 1 to the number of
      features; a larger int is rejected at fit time).
    - ``splitter`` — ``"best"`` (CART) or ``"random"`` (Extra-Trees rule).
    """

    name = "tree"

    def __init__(
        self,
        *,
        max_depth: int | None = None,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features: int | Literal["sqrt"] | None = None,
        splitter: Literal["best", "random"] = "best",
        random_state: int | np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        if max_depth is not None and max_depth < 1:
            raise ValidationError("max_depth must be >= 1 or None")
        if min_samples_split < 2:
            raise ValidationError("min_samples_split must be >= 2")
        if min_samples_leaf < 1:
            raise ValidationError("min_samples_leaf must be >= 1")
        if splitter not in ("best", "random"):
            raise ValidationError(f"unknown splitter {splitter!r}")
        check_max_features(max_features)
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.splitter = splitter
        self._rng = (
            random_state
            if isinstance(random_state, np.random.Generator)
            else np.random.default_rng(random_state)
        )
        # tree arrays (filled by fit)
        self.children_left_: list[int] = []
        self.children_right_: list[int] = []
        self.feature_: list[int] = []
        self.threshold_: list[float] = []
        self.value_: list[float] = []
        self.n_node_samples_: list[int] = []

    # -- construction -------------------------------------------------------------

    def fit(self, X: Any, y: Any) -> "DecisionTreeRegressor":
        """Grow the tree depth-first from per-fit Python lists.

        Nodes carry their sample indices as lists, and each candidate
        feature's values are gathered once per node, so the per-node work
        is a handful of list passes instead of dozens of numpy calls on
        tiny arrays. The construction is exact: a node's value is
        ``np.add.reduce(y[idx]) / n``, which is how ``ndarray.mean``
        computes it, and the split rules choose exactly the splits of the
        plain numpy formulation (DESIGN §9.1 has the argument).
        """
        X, y = check_fit_inputs(X, y)
        n_features = X.shape[1]
        self.n_features_ = n_features
        k = self._n_candidate_features()
        columns = X.T.tolist()
        y_list = y.tolist()
        split_node = self._random_split if self.splitter == "random" else self._best_split
        rng = self._rng
        all_features = range(n_features)
        min_split = max(self.min_samples_split, 2 * self.min_samples_leaf)
        min_leaf = self.min_samples_leaf
        max_depth = self.max_depth
        self.children_left_ = left_of = []
        self.children_right_ = right_of = []
        self.feature_ = feature_of = []
        self.threshold_ = threshold_of = []
        self.value_ = value_of = []
        self.n_node_samples_ = count_of = []

        def new_node(idx: list[int]) -> int:
            left_of.append(_LEAF)
            right_of.append(_LEAF)
            feature_of.append(_LEAF)
            threshold_of.append(np.nan)
            if len(idx) == 1 and y_list[idx[0]]:
                # A lone non-zero value is its own mean under any summation order.
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
            split = split_node(candidates, y_node)
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
        self._finalize()
        return self

    def _n_candidate_features(self) -> int:
        assert self.n_features_ is not None
        if self.max_features is None:
            return self.n_features_
        if self.max_features == "sqrt":
            return max(1, int(np.sqrt(self.n_features_)))
        if self.max_features > self.n_features_:
            raise ValidationError(
                f"max_features={self.max_features} exceeds the "
                f"{self.n_features_} features of the training data"
            )
        return int(self.max_features)

    def _random_split(
        self,
        candidates: list[tuple[int, tuple[float, ...], float, float]],
        y_node: tuple[float, ...],
    ) -> tuple[int, float, list[bool]] | None:
        """Extra-Trees rule: one uniform threshold per candidate feature,
        keep the first candidate of least SSE.

        ``rng.random(m)`` gives the same doubles (and leaves the stream in
        the same state) as ``m`` scalar ``rng.uniform(lo, hi)`` draws, which
        compute ``lo + (hi - lo) * u``. Candidates are scored in plain
        Python on ``y`` centred at the node; only candidates whose score
        lies within a forward-error bound of the best are re-scored with
        the exact numpy expression, so the choice is the one that
        expression makes.
        """
        n = len(y_node)
        min_leaf = self.min_samples_leaf
        for feature, _, lo, hi in candidates:
            if not isfinite(hi - lo):
                raise ValidationError(f"the range of feature {feature} overflows a double")
        draws = self._rng.random(len(candidates)).tolist()
        valid = []  # (feature, threshold, goes_left, n_left)
        for (feature, values, lo, hi), u in zip(candidates, draws):
            threshold = lo + (hi - lo) * u
            goes_left = [v <= threshold for v in values]
            n_left = goes_left.count(True)
            if min_leaf <= n_left <= n - min_leaf:
                valid.append((feature, threshold, goes_left, n_left))
        if not valid:
            return None

        # Equal and mirrored partitions score bit-equal in numpy (float
        # ``+`` commutes), so only the first candidate of each can win.
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

    def _best_split(
        self,
        candidates: list[tuple[int, tuple[float, ...], float, float]],
        y_node: tuple[float, ...],
    ) -> tuple[int, float, list[bool]] | None:
        """CART rule: the least-SSE threshold of every candidate feature."""
        y_arr = np.asarray(y_node)
        best: tuple[float, int, float, tuple[float, ...]] | None = None
        for feature, values, _, _ in candidates:
            result = self._best_threshold(np.asarray(values), y_arr)
            if result is not None:
                sse, threshold = result
                if best is None or sse < best[0]:
                    best = (sse, feature, threshold, values)
        if best is None:
            return None
        _, feature, threshold, values = best
        return feature, threshold, [v <= threshold for v in values]

    def _best_threshold(self, x: np.ndarray, y: np.ndarray) -> tuple[float, float] | None:
        """Exhaustive CART scan: minimal total SSE over all thresholds."""
        order = np.argsort(x, kind="stable")
        xs = x[order]
        ys = y[order]
        n = len(xs)
        csum = np.cumsum(ys)
        csum2 = np.cumsum(ys * ys)
        total_sum = csum[-1]
        total_sq = csum2[-1]

        # Valid split positions: after index i (1-based count i+1 on left),
        # honouring min_samples_leaf and distinct x values.
        counts = np.arange(1, n)
        left_sum = csum[:-1]
        left_sq = csum2[:-1]
        right_sum = total_sum - left_sum
        right_sq = total_sq - left_sq
        right_counts = n - counts
        sse = (
            left_sq
            - left_sum**2 / counts
            + right_sq
            - right_sum**2 / right_counts
        )
        valid = (xs[1:] != xs[:-1]) & (counts >= self.min_samples_leaf) & (
            right_counts >= self.min_samples_leaf
        )
        if not valid.any():
            return None
        sse = np.where(valid, sse, np.inf)
        pos = int(np.argmin(sse))
        threshold = float(0.5 * (xs[pos] + xs[pos + 1]))
        return float(sse[pos]), threshold

    def _finalize(self) -> None:
        self._cl = np.asarray(self.children_left_, dtype=np.int64)
        self._cr = np.asarray(self.children_right_, dtype=np.int64)
        self._feat = np.asarray(self.feature_, dtype=np.int64)
        self._thr = np.asarray(self.threshold_, dtype=np.float64)
        self._val = np.asarray(self.value_, dtype=np.float64)
        self._nsamp = np.asarray(self.n_node_samples_, dtype=np.float64)

    # -- incremental updates -------------------------------------------------------

    supports_partial_fit = True

    def partial_fit(self, X: Any, y: Any) -> "DecisionTreeRegressor":
        """Online insertion: route fresh samples to leaves, update leaf means.

        The tree *structure* is frozen — each new sample only shifts the
        running mean of the leaf it lands in, which is the cheap half of a
        Mondrian-style online tree. Structural growth is deferred to the next
        full refit (the optimizer forces one once the dataset has doubled).

        Publish-safety: the updated value array is built on a copy and then
        swapped in with a single attribute assignment, so a concurrent
        ``predict`` sees either the old or the new leaf values, never a torn
        mix of both.
        """
        X, y = check_fit_inputs(X, y)
        if not self.value_:
            raise ValidationError("DecisionTreeRegressor is not fitted yet")
        X = self._check_predict_input(X)
        leaves = self.apply(X)
        new_val = self._val.copy()
        counts = self._nsamp
        for leaf, value in zip(leaves, y):
            n = counts[leaf]
            new_val[leaf] += (value - new_val[leaf]) / (n + 1.0)
            counts[leaf] = n + 1.0
        self._val = new_val  # atomic publish
        for leaf in np.unique(leaves):
            self.value_[int(leaf)] = float(new_val[leaf])
            self.n_node_samples_[int(leaf)] = int(counts[leaf])
        return self

    # -- inference ---------------------------------------------------------------

    def apply(self, X: Any) -> np.ndarray:
        """Leaf node index for each row of ``X``."""
        X = self._check_predict_input(X)
        node = np.zeros(len(X), dtype=np.int64)
        active = self._cl[node] != _LEAF
        while active.any():
            rows = np.nonzero(active)[0]
            nodes = node[rows]
            go_left = X[rows, self._feat[nodes]] <= self._thr[nodes]
            node[rows] = np.where(go_left, self._cl[nodes], self._cr[nodes])
            active = self._cl[node] != _LEAF
        return node

    def predict(
        self, X: Any, return_std: bool = False
    ) -> np.ndarray | tuple[np.ndarray, np.ndarray]:
        leaves = self.apply(X)
        mean = self._val[leaves]
        if return_std:
            # A single tree has no ensemble spread; report zeros.
            return mean, np.zeros_like(mean)
        return mean

    @property
    def node_count(self) -> int:
        return len(self.value_)

    @property
    def depth(self) -> int:
        """Actual depth of the fitted tree."""
        depths = np.zeros(self.node_count, dtype=int)
        for node in range(self.node_count):
            left = self.children_left_[node]
            right = self.children_right_[node]
            for child in (left, right):
                if child != _LEAF:
                    depths[child] = depths[node] + 1
        return int(depths.max()) if self.node_count else 0

    def set_leaf_values(self, leaf_values: dict[int, float]) -> None:
        """Overwrite leaf predictions (gradient boosting leaf re-estimation)."""
        for leaf, value in leaf_values.items():
            if self.children_left_[leaf] != _LEAF:
                raise ValidationError(f"node {leaf} is not a leaf")
            self.value_[leaf] = float(value)
        self._finalize()
