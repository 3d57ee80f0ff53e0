"""CART regression tree with exhaustive or randomized split selection.

One tree type serves three estimators:

- ``splitter="best"`` → classic CART (scan every threshold) — used by
  :class:`~repro.surrogate.forest.RandomForestRegressor`, gradient
  boosting and standalone. It grows one node at a time from Python lists.
- ``splitter="random"`` → one uniform-random threshold per candidate
  feature — the *extremely randomized* split rule of Extra-Trees
  (Geurts et al. 2006), the paper's surrogate of choice. These trees are
  grown by :func:`grow_random_trees`, all trees of a forest in lockstep,
  with the splits of one step chosen by a few numpy operations; each
  tree is bit-identical to growing it alone (DESIGN §9.2).

The tree is stored in parallel arrays (children, feature, threshold, value),
which keeps prediction a tight loop and makes ``apply()`` (leaf indices,
needed by gradient boosting's leaf re-estimation) trivial.
"""

from __future__ import annotations

from itertools import compress
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
        """Grow the tree depth-first; the right child is expanded first.

        The ``"random"`` splitter is :func:`grow_random_trees` with this
        tree's stream alone. The ``"best"`` splitter grows from per-fit
        Python lists: nodes carry their sample indices as lists, and each
        candidate feature's values are gathered once per node, so the
        per-node work is a handful of list passes instead of dozens of
        numpy calls on tiny arrays. A node's value is
        ``np.add.reduce(y[idx]) / n``, which is how ``ndarray.mean``
        computes it (DESIGN §9.1).
        """
        X, y = check_fit_inputs(X, y)
        if self.splitter == "random":
            grow_random_trees([self], X, y)
            return self
        n_features = X.shape[1]
        self.n_features_ = n_features
        k = self._n_candidate_features()
        columns = X.T.tolist()
        y_list = y.tolist()
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
            split = self._best_split(candidates, y_node)
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
        self._pack(
            self.children_left_,
            self.children_right_,
            self.feature_,
            self.threshold_,
            self.value_,
            self.n_node_samples_,
        )

    def _pack(
        self,
        left: Any,
        right: Any,
        feature: Any,
        threshold: Any,
        value: Any,
        n_node_samples: Any,
    ) -> None:
        """Set the packed node arrays prediction walks; arrays of these dtypes are not copied."""
        self._cl = np.asarray(left, dtype=np.int64)
        self._cr = np.asarray(right, dtype=np.int64)
        self._feat = np.asarray(feature, dtype=np.int64)
        self._thr = np.asarray(threshold, dtype=np.float64)
        self._val = np.asarray(value, dtype=np.float64)
        self._nsamp = np.asarray(n_node_samples, dtype=np.float64)

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


# -- Extra-Trees: every tree of a fit grown in lockstep -------------------------------


def grow_random_trees(trees: list[DecisionTreeRegressor], X: np.ndarray, y: np.ndarray) -> None:
    """Grow ``splitter="random"`` trees on the same checked data in lockstep.

    All ``trees`` share their parameters; each draws from its own ``_rng``.
    Every step pops the next node of every tree that still has one, in
    that tree's own depth-first order (right child first), and chooses
    all of their splits with one set of numpy operations on the nodes'
    sample blocks, padded to the largest. A tree's draws, split choices
    and node values are those of growing it alone, one node at a time
    (DESIGN §9.2 has the argument):

    - each tree's samples live in one permutation of ``0..n-1`` in which
      every node owns a segment, ascending when the node is popped; a
      split partitions the segment stably, left samples first;
    - only nodes that will draw are pushed: enough samples, below
      ``max_depth`` and a non-constant ``y``;
    - without feature subsampling a tree's draws are one ``random(L)``
      block read in node order; the stream is then reset and advanced by
      exactly the number of doubles used, so it ends where per-node
      ``random(m)`` calls leave it. With subsampling each node calls
      ``choice`` and then ``random(m)`` on its tree's stream;
    - node values are summed at the end, over each node's samples in
      ascending order, with one row-wise ``np.add.reduce`` per node size.
    """
    n, n_features = X.shape
    for tree in trees:
        tree.n_features_ = n_features
    first = trees[0]
    k = first._n_candidate_features()
    min_leaf = first.min_samples_leaf
    min_split = max(first.min_samples_split, 2 * min_leaf)
    max_depth = n if first.max_depth is None else first.max_depth
    rngs = [tree._rng for tree in trees]
    n_trees = len(trees)
    subsample = k < n_features

    max_nodes = 2 * n - 1
    perm = np.tile(np.arange(n), (n_trees, 1))
    left = np.full((n_trees, max_nodes), _LEAF)
    right = np.full((n_trees, max_nodes), _LEAF)
    feature = np.full((n_trees, max_nodes), _LEAF)
    threshold = np.full((n_trees, max_nodes), np.nan)
    start = np.zeros((n_trees, max_nodes), dtype=np.intp)
    count = np.zeros((n_trees, max_nodes), dtype=np.intp)
    depth = np.zeros((n_trees, max_nodes), dtype=np.intp)
    count[:, 0] = n
    n_nodes = np.ones(n_trees, dtype=np.intp)
    # Per-tree stacks of node ids; only nodes that will draw are pushed.
    stack = np.zeros((n_trees, n + 1), dtype=np.intp)
    size = np.zeros(n_trees, dtype=np.intp)
    if n >= min_split and y.min() != y.max():
        size[:] = 1

    # Feature f of sample i sits at f * n + i.
    x_flat = np.ascontiguousarray(X.T).ravel()
    column = (np.arange(n_features) * n)[:, None]
    order = None  # the candidate features of each node, when subsampled
    earlier = np.triu(np.ones((k, k), dtype=bool), 1)  # [i, j]: i before j
    states = [] if subsample else [rng.bit_generator.state for rng in rngs]
    used = np.zeros(n_trees, dtype=np.intp)
    try:
        if not subsample:
            # A node draws at most one double per feature.
            draws = np.stack([rng.random(max_nodes * n_features) for rng in rngs])
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            while True:
                active = size.nonzero()[0]
                if not active.size:
                    break
                size[active] -= 1
                node = stack[active, size[active]]
                seg_start = start[active, node]
                seg_count = count[active, node]
                offsets = np.arange(seg_count.max())
                inside = offsets < seg_count[:, None]
                # Padding repeats a segment's last sample: its ranges stay as they are.
                last = seg_start + seg_count - 1
                slots = np.minimum(seg_start[:, None] + offsets, last[:, None])
                samples = perm[active[:, None], slots]
                if subsample:
                    order = np.array(
                        [rngs[t].choice(n_features, size=k, replace=False) for t in active]
                    )
                    xs = x_flat[(order * n)[:, :, None] + samples[:, None, :]]
                else:
                    xs = x_flat[column + samples[:, None, :]]
                lo = xs.min(-1)
                hi = xs.max(-1)
                span = hi - lo
                overflow = ~np.isfinite(span)
                if overflow.any():
                    p, j = np.argwhere(overflow)[0]
                    bad = j if order is None else order[p, j]
                    raise ValidationError(f"the range of feature {bad} overflows a double")
                candidate = span > 0
                n_cand = candidate.sum(1)
                if subsample:
                    u = np.zeros(candidate.shape)
                    for p in n_cand.nonzero()[0]:
                        u[p, candidate[p]] = rngs[active[p]].random(n_cand[p])
                else:
                    # A non-candidate reads a neighbouring draw that nothing uses.
                    u = draws[active[:, None], used[active, None] + candidate.cumsum(1) - 1]
                    used[active] += n_cand
                thr = lo + span * u
                goes_left = (xs <= thr[:, :, None]) & inside[:, None, :]
                n_left = goes_left.sum(-1)
                valid = (
                    candidate
                    & (n_left >= min_leaf)
                    & (seg_count[:, None] - n_left >= min_leaf)
                )
                split = valid.any(1).nonzero()[0]
                if not split.size:
                    continue
                y_block = y[samples[split]]
                ins = inside[split]
                n_seg = seg_count[split]
                choice = _choose_splits(
                    y_block, ins, n_seg, goes_left[split], n_left[split], valid[split], earlier
                )

                t = active[split]
                parent = node[split]
                goes = goes_left[split, choice]
                n_l = n_left[split, choice]
                feature[t, parent] = choice if order is None else order[split, choice]
                threshold[t, parent] = thr[split, choice]
                # Stable partition of each segment: left samples, right samples, padding.
                part = np.argsort(~goes, axis=1, kind="stable")
                moved = samples[split[:, None], part]
                perm[t.repeat(n_seg), slots[split][ins]] = moved[ins]
                child = n_nodes[t]
                n_nodes[t] += 2
                left[t, parent] = child
                right[t, parent] = child + 1
                child_depth = depth[t, parent] + 1
                start[t, child] = seg_start[split]
                start[t, child + 1] = seg_start[split] + n_l
                count[t, child] = n_l
                count[t, child + 1] = n_seg - n_l
                depth[t, child] = child_depth
                depth[t, child + 1] = child_depth
                # Push the children that will draw, left first so the right pops first.
                sides = np.array([goes, ins & ~goes])
                varies = np.where(sides, y_block, np.inf).min(-1) != np.where(
                    sides, y_block, -np.inf
                ).max(-1)
                push = varies & (np.array([n_l, n_seg - n_l]) >= min_split)
                push &= child_depth < max_depth
                for side in (0, 1):
                    tree_ids = t[push[side]]
                    stack[tree_ids, size[tree_ids]] = child[push[side]] + side
                    size[tree_ids] += 1
    finally:
        # Leave each stream where per-node random(m) calls would have.
        for rng, state, n_used in zip(rngs, states, used):
            rng.bit_generator.state = state
            rng.random(n_used)

    value = _node_values(perm, start, count, n_nodes, y)
    end = 0
    for t, tree in enumerate(trees):
        m = int(n_nodes[t])
        n_samples = count[t, :m]
        tree._pack(
            left[t, :m],
            right[t, :m],
            feature[t, :m],
            threshold[t, :m],
            value[end : end + m],
            n_samples,
        )
        tree.children_left_ = tree._cl.tolist()
        tree.children_right_ = tree._cr.tolist()
        tree.feature_ = tree._feat.tolist()
        tree.threshold_ = tree._thr.tolist()
        tree.value_ = tree._val.tolist()
        tree.n_node_samples_ = n_samples.tolist()  # ints; the packed copy is float
        end += m


def _choose_splits(
    y_block: np.ndarray,
    inside: np.ndarray,
    n: np.ndarray,
    goes_left: np.ndarray,
    n_left: np.ndarray,
    valid: np.ndarray,
    earlier: np.ndarray,
) -> np.ndarray:
    """Index of the chosen candidate of each node: the first of least numpy SSE.

    Rows are nodes with at least one valid candidate: ``y_block`` holds
    each node's ``n`` targets in ascending sample order, padded past
    ``inside`` by repeating the last. Equal and mirrored partitions score bit-equal in numpy, so
    only the first of each can win, and a node whose valid candidates all
    share one partition takes the first. Otherwise every partition is
    screened with a centred score, and only those within its forward-error
    bound of the least are re-scored with the exact numpy expression
    (DESIGN §9.1).
    """
    choice = valid.argmax(1)
    # Flip each partition so that the node's first sample goes left; equal
    # and mirrored partitions then pack to the same bytes.
    canon = np.packbits(goes_left ^ (inside[:, None, :] & ~goes_left[:, :, :1]), axis=-1)
    twin = (canon[:, :, None, :] == canon[:, None, :, :]).all(-1)
    distinct = valid & ~(twin & valid[:, :, None] & earlier).any(1)
    several = (distinct.sum(1) > 1).nonzero()[0]
    if not several.size:
        return choice
    y_block = y_block[several]
    inside = inside[several]
    n = n[several]
    goes_left = goes_left[several]
    n_left = n_left[several]
    distinct = distinct[several]
    mean = np.where(inside, y_block, 0.0).sum(1) / n
    dev = np.where(inside, y_block - mean[:, None], 0.0)[:, None, :]
    total = (dev * dev).sum(-1)
    s_l = np.where(goes_left, dev, 0.0).sum(-1)
    s_r = np.where(goes_left, 0.0, dev).sum(-1)
    # Within-child SSE = Σd² - (Σ_left d)²/n_left - (Σ_right d)²/n_right.
    score = total - s_l**2 / n_left - s_r**2 / (n[:, None] - n_left)
    y_max = np.abs(y_block).max(1)
    limit = (
        np.where(distinct, score, np.inf).min(1)
        + 1e-9 * total[:, 0]
        + 16.0 * n * n * _EPS * y_max * y_max
        + 64.0 * n * _TINY
    )
    # Where the scores overflowed, every partition is compared exactly.
    near = distinct & ((score <= limit[:, None]) | ~np.isfinite(limit)[:, None])
    choice[several] = near.argmax(1)
    for row in (near.sum(1) > 1).nonzero()[0]:
        m = n[row]
        y_node = y_block[row, :m]
        candidates = near[row].nonzero()[0]
        exact = [_exact_sse(y_node, goes_left[row, j, :m]) for j in candidates]
        choice[several[row]] = candidates[exact.index(min(exact))]
    return choice


def _node_values(
    perm: np.ndarray, start: np.ndarray, count: np.ndarray, n_nodes: np.ndarray, y: np.ndarray
) -> np.ndarray:
    """Every node's mean, tree by tree, as ``np.add.reduce(y[idx]) / n``.

    A node's samples are its segment of its tree's permutation, sorted
    back to ascending order (children reorder their parent's segment).
    Nodes of one size are summed together: a row-wise ``np.add.reduce``
    of an ``(m, c)`` block sums each row exactly as the 1-D reduce does.
    """
    used = np.arange(start.shape[1]) < n_nodes[:, None]
    tree_of = np.broadcast_to(np.arange(len(n_nodes))[:, None], used.shape)[used]
    starts = start[used]
    counts = count[used]
    value = np.empty(counts.size)
    by_size = np.argsort(counts, kind="stable")
    cuts = np.flatnonzero(np.diff(counts[by_size])) + 1
    for group in np.split(by_size, cuts):
        c = counts[group[0]]
        block = perm[tree_of[group, None], starts[group, None] + np.arange(c)]
        block.sort(axis=1)
        value[group] = np.add.reduce(y[block], axis=1) / c
    return value
