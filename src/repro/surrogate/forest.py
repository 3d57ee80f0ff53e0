"""Tree ensembles: Random Forest and Extra-Trees (the paper's surrogate).

Both provide the uncertainty estimate Bayesian optimization needs: the
standard deviation of per-tree predictions (plus a small jitter floor so
acquisition functions never divide by zero on duplicated points).

Extra-Trees grow all their trees in one lockstep pass
(:func:`~repro.surrogate.tree.grow_random_trees`); Random Forest fits
each tree on its bootstrap rows. Both then build, once per fit,
threshold-rank tables that find the leaf of every (tree, row) pair with
one ``searchsorted`` and a fixed number of gathers per feature, whatever
the tree size (DESIGN §9.2).
"""

from __future__ import annotations

from typing import Any, Literal

import numpy as np

from repro.errors import ValidationError
from repro.surrogate.base import SurrogateModel, check_fit_inputs
from repro.surrogate.tree import (
    _LEAF,
    DecisionTreeRegressor,
    check_max_features,
    grow_random_trees,
)

__all__ = ["RandomForestRegressor", "ExtraTreesRegressor"]

_WORD = 64
#: (row, tree) pairs per block of a leaf lookup: 64 KiB per int64 temporary.
_BLOCK_PAIRS = 8192
_ONE = np.uint64(1)
_ALL_ONES = np.uint64(2**64 - 1)
#: ``_LOW_BITS[i]``: the ``i`` lowest bits set, for ``i`` in 0..64.
_LOW_BITS = np.array([2**i - 1 for i in range(65)], dtype=np.uint64)


def _all_but(start: np.ndarray, length: np.ndarray, n_words: int) -> np.ndarray:
    """Masks of ``n_words`` words, all bits set but ``start .. start+length-1``."""
    base = np.arange(n_words) * _WORD
    lo = np.clip(start[:, None] - base, 0, _WORD)
    hi = np.clip((start + length)[:, None] - base, 0, _WORD)
    return ~(_LOW_BITS[hi] & ~_LOW_BITS[lo])


def _and_take(table: np.ndarray, at: list[np.ndarray]) -> np.ndarray:
    """AND of ``table.take(a)`` over the index arrays ``a`` in ``at``."""
    out = table.take(at[0])
    for a in at[1:]:
        out &= table.take(a)
    return out


def _lowest_set_bit(words: list[np.ndarray]) -> np.ndarray:
    """Index of the lowest set bit of each multi-word value (word 0 lowest)."""
    index = None
    for w in range(len(words) - 1, -1, -1):
        bits = words[w]
        at = np.intp(w * _WORD) + np.bitwise_count((bits & np.negative(bits)) - _ONE)
        index = at if index is None else np.where(bits != 0, at, index)
    return index


class _BaseForest(SurrogateModel):
    """Shared machinery for bagged tree ensembles."""

    _splitter: Literal["best", "random"] = "best"
    _bootstrap: bool = True

    def __init__(
        self,
        n_estimators: int = 50,
        *,
        max_depth: int | None = None,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features: int | Literal["sqrt"] | None = None,
        random_state: int | None = None,
        std_floor: float = 1e-9,
    ) -> None:
        super().__init__()
        if n_estimators < 1:
            raise ValidationError("n_estimators must be >= 1")
        check_max_features(max_features)
        self.n_estimators = int(n_estimators)
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.random_state = random_state
        self.std_floor = float(std_floor)
        self.estimators_: list[DecisionTreeRegressor] = []

    def fit(self, X: Any, y: Any) -> "_BaseForest":
        X, y = check_fit_inputs(X, y)
        self.n_features_ = X.shape[1]
        rng = np.random.default_rng(self.random_state)
        n = len(y)
        # Per-tree randomness (seed stream, bootstrap rows) is drawn
        # sequentially from the forest rng *before* any tree is fitted; this
        # order fixes the seed stream every fitted ensemble is pinned to.
        specs: list[tuple[np.random.Generator, np.ndarray | None]] = []
        for _ in range(self.n_estimators):
            tree_rng = np.random.default_rng(rng.integers(0, 2**63))
            idx = rng.integers(0, n, size=n) if self._bootstrap else None
            specs.append((tree_rng, idx))

        estimators = [
            DecisionTreeRegressor(
                max_depth=self.max_depth,
                min_samples_split=self.min_samples_split,
                min_samples_leaf=self.min_samples_leaf,
                max_features=self.max_features,
                splitter=self._splitter,
                random_state=tree_rng,
            )
            for tree_rng, _ in specs
        ]
        if self._splitter == "random":
            # Extra-Trees: every tree on the whole training set, grown in lockstep.
            grow_random_trees(estimators, X, y)
        else:
            for tree, (_, idx) in zip(estimators, specs):
                tree.fit(X[idx], y[idx])
        self.estimators_ = estimators
        self._pack()
        return self

    def _pack(self) -> None:
        """Concatenate the trees' leaf statistics and build the leaf-lookup tables.

        QuickScorer-style (Lucchese et al. 2015): number each tree's leaves
        left to right; an internal node whose test ``x <= threshold`` fails
        rules out the leaves of its left subtree, a contiguous bit range,
        and the leftmost leaf no failed test rules out is the one the walk
        reaches. The failed tests on feature ``f`` are exactly the nodes
        whose threshold is below ``x_f``, a prefix of that feature's sorted
        thresholds. So the tables hold, per feature, the sorted thresholds
        of all trees and, per tree and rank, the row of its prefix; a row
        holds the AND of the prefix's bitmasks.

        The rule is applied twice, so a lookup reads one leaf word however
        large the trees are. A *bottom* is a maximal subtree of at most 64
        leaves; the nodes above the bottoms form a tree whose leaves are the
        bottoms. Leaf bits are numbered left to right with bottoms packed so
        that none straddles two words. A row's first words mask bottoms
        (ruled out by those top nodes), the rest mask leaves (ruled out by
        every internal node). The first rule finds the bottom the walk
        reaches; every leaf before the reached one is ruled out, so the
        lowest set bit of that bottom's word is the reached leaf
        (DESIGN §9.2).
        """
        trees = self.estimators_
        n_trees = len(trees)
        n_features = self.n_features_
        sizes = np.array([t.node_count for t in trees])
        offsets = np.cumsum(sizes) - sizes
        tree_of = np.repeat(np.arange(n_trees), sizes)
        left = np.concatenate([t._cl for t in trees])
        right = np.concatenate([t._cr for t in trees])
        feature = np.concatenate([t._feat for t in trees])
        threshold = np.concatenate([t._thr for t in trees])
        self._val_all = np.concatenate([t._val for t in trees])
        self._count_all = np.concatenate([t._nsamp for t in trees])

        # Leaves and bottoms per subtree (bottom-up), then each subtree's
        # first leaf and first bottom, left to right (top-down), one level
        # of all trees at a time.
        internal = left != _LEAF
        left = np.where(internal, left + offsets[tree_of], _LEAF)
        right = np.where(internal, right + offsets[tree_of], _LEAF)
        levels = [offsets]
        while levels[-1].size:
            inner = levels[-1][internal[levels[-1]]]
            levels.append(np.concatenate([left[inner], right[inner]]))
        inners = [level[internal[level]] for level in levels]
        n_leaves = np.ones(len(left), dtype=np.intp)
        n_bottoms = np.ones(len(left), dtype=np.intp)
        for inner in reversed(inners):
            n_leaves[inner] = n_leaves[left[inner]] + n_leaves[right[inner]]
            top = inner[n_leaves[inner] > _WORD]
            n_bottoms[top] = n_bottoms[left[top]] + n_bottoms[right[top]]
        first = np.zeros(len(left), dtype=np.intp)
        first_bottom = np.zeros(len(left), dtype=np.intp)
        for inner in inners:
            first[left[inner]] = first[inner]
            first[right[inner]] = first[inner] + n_leaves[left[inner]]
            first_bottom[left[inner]] = first_bottom[inner]
            first_bottom[right[inner]] = first_bottom[inner] + np.where(
                n_leaves[inner] > _WORD, n_bottoms[left[inner]], 0
            )
        # Bottoms, left to right, packed into leaf words so that none straddles
        # two: ``shift`` (per tree and bottom) moves its leaves to their bits.
        # The gaps are at word ends, after every leaf of their word.
        tops = np.flatnonzero(internal & (n_leaves > _WORD))
        roots = np.concatenate([offsets, left[tops], right[tops]])
        roots = roots[n_leaves[roots] <= _WORD]
        n_bottom_max = int(n_bottoms[offsets].max())
        size = np.zeros((n_trees, n_bottom_max), dtype=np.intp)
        size[tree_of[roots], first_bottom[roots]] = n_leaves[roots]
        start = np.zeros((n_trees, n_bottom_max), dtype=np.intp)
        end = np.zeros(n_trees, dtype=np.intp)
        for b in range(n_bottom_max):
            spills = end % _WORD + size[:, b] > _WORD
            start[:, b] = np.where(spills, -(-end // _WORD) * _WORD, end)
            end = start[:, b] + size[:, b]
        first_leaf = np.zeros((n_trees, n_bottom_max), dtype=np.intp)
        first_leaf[tree_of[roots], first_bottom[roots]] = first[roots]
        shift = (start - first_leaf).ravel()
        n_top_words = -(-n_bottom_max // _WORD)
        n_words = -(-int(end.max()) // _WORD)
        stride = n_top_words + n_words

        def position(tree: np.ndarray, leaf_rank: np.ndarray, bottom: np.ndarray) -> np.ndarray:
            """Bit position of the ``leaf_rank``-th leaf of ``tree``, in ``bottom``."""
            return leaf_rank + shift[tree * n_bottom_max + bottom]

        leaf = np.flatnonzero(~internal)
        self._leaf_base = np.arange(n_trees) * n_words * _WORD
        self._leaf_node = np.zeros(n_trees * n_words * _WORD, dtype=np.intp)
        at = position(tree_of[leaf], first[leaf], first_bottom[leaf])
        self._leaf_node[self._leaf_base[tree_of[leaf]] + at] = leaf
        # Each bottom's leaf word, as a position in the row.
        self._n_top_words = n_top_words
        self._bottom_base = np.arange(n_trees) * n_bottom_max
        self._bottom_word = n_top_words + start.ravel() // _WORD

        # A node's row: all bottoms but those of its left subtree if it is a
        # top node, then all leaves but those of its left subtree.
        nodes = np.flatnonzero(internal)
        masks = np.empty((nodes.size, stride), dtype=np.uint64)
        is_top = (n_leaves[nodes] > _WORD)[:, None]
        bottoms_out = _all_but(first_bottom[nodes], n_bottoms[left[nodes]], n_top_words)
        masks[:, :n_top_words] = np.where(is_top, bottoms_out, _ALL_ONES)
        trees_of_nodes = tree_of[nodes]
        lo = position(trees_of_nodes, first[nodes], first_bottom[nodes])
        last_bottom = first_bottom[left[nodes]] + n_bottoms[left[nodes]] - 1
        hi = 1 + position(
            trees_of_nodes, first[nodes] + n_leaves[left[nodes]] - 1, last_bottom
        )
        masks[:, n_top_words:] = _all_but(lo, hi - lo, n_words)

        # One segment per (tree, feature): an all-ones head, then the rows
        # of that tree's nodes on the feature in threshold order, AND-scanned.
        group = tree_of[nodes] * n_features + feature[nodes]
        order = np.lexsort((threshold[nodes], group))
        per_group = np.bincount(group, minlength=n_trees * n_features)
        head = np.cumsum(per_group + 1) - (per_group + 1)
        segment = np.repeat(np.arange(n_trees * n_features), per_group + 1)
        reach = np.full((len(segment), stride), _ALL_ONES)
        reach[np.arange(nodes.size) + group[order] + 1] = masks[order]
        step = 1
        while step <= per_group.max():
            same = (segment[step:] == segment[:-step])[:, None]
            reach[step:] = np.where(same, reach[step:] & reach[:-step], reach[step:])
            step *= 2
        self._reach = reach.ravel()

        # Per feature: all trees' thresholds in order and, for each tree and
        # count of them, the flat offset of the row of its prefix (int32: a
        # table of 2**31 words would take 16 GiB).
        self._sorted_thr = []
        self._rank_row = []
        for f in range(n_features):
            on_f = nodes[feature[nodes] == f]
            on_f = on_f[np.argsort(threshold[on_f], kind="stable")]
            hits = np.zeros((on_f.size + 1, n_trees), dtype=np.intp)
            hits[np.arange(1, on_f.size + 1), tree_of[on_f]] = 1
            row = np.cumsum(hits, axis=0) + head[np.arange(n_trees) * n_features + f]
            self._sorted_thr.append(threshold[on_f])
            self._rank_row.append((row * stride).astype(np.int32))

    def _packed_leaves(self, X: np.ndarray) -> np.ndarray:
        """Packed leaf index for every (tree, row) pair, flat ``n_trees*n_rows``.

        Per feature, one ``searchsorted`` ranks every row among the sorted
        thresholds: the count of thresholds strictly below ``x`` is the
        count of tests ``x <= threshold`` that fail, ties and ``±0.0``
        included, and a NaN ranks past them all as it fails every test.
        The rank selects each tree's prefix row; ANDing the rows over the
        features keeps the reachable bottoms and leaves. Rows go in blocks
        of about ``_BLOCK_PAIRS`` (row, tree) pairs, so that each
        temporary array stays in cache and below the size at which the
        allocator maps fresh pages for it.
        """
        ranks = [np.searchsorted(t, X[:, f]) for f, t in enumerate(self._sorted_thr)]
        n_trees = len(self.estimators_)
        out = np.empty((n_trees, len(X)), dtype=np.intp)
        step = max(1, _BLOCK_PAIRS // n_trees)
        for lo in range(0, len(X), step):
            out[:, lo : lo + step] = self._block_leaves([r[lo : lo + step] for r in ranks]).T
        return out.ravel()

    def _block_leaves(self, ranks: list[np.ndarray]) -> np.ndarray:
        """Packed leaf index of every (row, tree) pair, as ``(rows, trees)``."""
        # A rank selects one contiguous table row, so arrays are (row, tree).
        rows = [table.take(rank, axis=0) for table, rank in zip(self._rank_row, ranks)]
        reach = self._reach
        bottom = _lowest_set_bit(
            [_and_take(reach[w:], rows) for w in range(self._n_top_words)]
        )
        word = self._bottom_word.take(bottom + self._bottom_base)
        bits = _and_take(reach, [row + word for row in rows])
        leaf = (word - self._n_top_words) * _WORD + _lowest_set_bit([bits])
        return self._leaf_node.take(leaf + self._leaf_base)

    def predict(
        self, X: Any, return_std: bool = False
    ) -> np.ndarray | tuple[np.ndarray, np.ndarray]:
        X = self._check_predict_input(X)
        if not self.estimators_:
            raise ValidationError(f"{type(self).__name__} is not fitted yet")
        node = self._packed_leaves(X)
        preds = self._val_all[node].reshape(len(self.estimators_), len(X))
        mean = preds.mean(axis=0)
        if return_std:
            std = preds.std(axis=0)
            return mean, np.maximum(std, self.std_floor)
        return mean

    # -- incremental updates -------------------------------------------------------

    supports_partial_fit = True

    def partial_fit(self, X: Any, y: Any) -> "_BaseForest":
        """Online insertion into every tree's leaf statistics.

        Each fresh sample is routed to its leaf in every tree by one
        threshold-rank lookup and shifts the running mean of that leaf. Structure
        is frozen until the next full refit; bootstrapped forests fold every
        sample into every tree (the resampling distinction is restored at
        the refit). The packed value array — the only array ``predict``
        reads for outputs — is rebuilt on a copy and swapped in atomically,
        so concurrent predicts never observe a torn update.
        """
        X, y = check_fit_inputs(X, y)
        if not self.estimators_:
            raise ValidationError(f"{type(self).__name__} is not fitted yet")
        X = self._check_predict_input(X)
        node = self._packed_leaves(X)
        n_rows = len(X)
        new_val = self._val_all.copy()
        counts = self._count_all
        for flat, value in zip(node, y[np.tile(np.arange(n_rows), len(self.estimators_))]):
            n = counts[flat]
            new_val[flat] += (value - new_val[flat]) / (n + 1.0)
            counts[flat] = n + 1.0
        self._val_all = new_val  # atomic publish
        return self


class RandomForestRegressor(_BaseForest):
    """Breiman-style forest: bootstrap rows + best splits on feature subsets."""

    name = "RF"
    _splitter = "best"
    _bootstrap = True

    def __init__(self, n_estimators: int = 50, **kwargs: Any) -> None:
        kwargs.setdefault("max_features", "sqrt")
        super().__init__(n_estimators, **kwargs)


class ExtraTreesRegressor(_BaseForest):
    """Extremely randomized trees (Geurts 2006): random thresholds, no
    bootstrap — the ``base_estimator='ET'`` of the paper's Listing 1."""

    name = "ET"
    _splitter = "random"
    _bootstrap = False
