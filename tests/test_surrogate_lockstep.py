"""Differential tests of the lockstep Extra-Trees builder and the
threshold-rank leaf lookup, plus pins of the numpy primitives their byte
identity rests on.

- ``grow_random_trees`` against the one-tree, one-node reference loop in
  ``tests/reference_tree.py``: every node array (thresholds and values as
  ``float.hex``) and every tree's random-stream end state.
- ``_BaseForest._packed_leaves`` against a node-by-node walk of each tree
  (``DecisionTreeRegressor.apply``) for ET and RF forests, on rows equal to
  thresholds, ``±0.0``, NaN and trees of more than 64 leaves.
- numpy: a row-wise ``np.add.reduce`` sums each row as the 1-D reduce
  does, and one ``Generator.random(L)`` block followed by a state restore
  and ``random(used)`` reproduces per-node draws and the per-call end
  state. A numpy release that breaks either fails here by name.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.surrogate.forest import ExtraTreesRegressor, RandomForestRegressor
from repro.surrogate.tree import _LEAF, DecisionTreeRegressor, grow_random_trees
from tests.reference_tree import reference_fit


def tree_arrays(tree: DecisionTreeRegressor) -> tuple:
    return (
        list(tree.children_left_),
        list(tree.children_right_),
        list(tree.feature_),
        list(tree.n_node_samples_),
        [float(v).hex() for v in tree.threshold_],
        [float(v).hex() for v in tree.value_],
        tree._rng.bit_generator.state,
    )


@st.composite
def training_sets(draw):
    """Small sets with the ties and spreads an exact split choice is delicate on."""
    n = draw(st.integers(1, 40))
    d = draw(st.integers(1, 4))
    cells = draw(st.lists(st.integers(0, 4), min_size=n * d, max_size=n * d))
    X = np.asarray(cells, dtype=float).reshape(n, d) / 4.0
    if n > 1 and draw(st.booleans()):  # duplicated rows
        copies = draw(st.lists(st.integers(0, n - 1), min_size=n // 2, max_size=n // 2))
        X[: len(copies)] = X[copies]
    if draw(st.booleans()):  # a constant column
        X[:, draw(st.integers(0, d - 1))] = 0.5
    levels = np.asarray(draw(st.lists(st.integers(0, 5), min_size=n, max_size=n)), float)
    noise = np.asarray(
        draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n)), dtype=float
    )
    kind = draw(st.sampled_from(["levels", "liar", "tiny", "cancel", "subnormal"]))
    if kind == "levels":  # many exact ties
        y = levels
    elif kind == "liar":  # constant-liar duplicates of the incumbent
        y = levels + 0.1 * noise
        y[::3] = y.min()
    elif kind == "tiny":
        y = 2.4 + 1e-9 * noise
    elif kind == "cancel":  # spread of 1e-15 relative to the magnitude
        y = 1e6 + 1e-9 * noise
    else:  # squared deviations are subnormal
        y = 1e-161 * (levels + noise)
    return X, y


@settings(max_examples=200, deadline=None)
@given(
    data=training_sets(),
    n_trees=st.sampled_from([1, 3, 10]),
    min_samples_leaf=st.sampled_from([1, 2, 3]),
    max_depth=st.sampled_from([None, 3]),
    max_features=st.sampled_from([None, 2]),
    seed=st.integers(0, 2**16),
)
def test_lockstep_matches_one_tree_at_a_time(
    data, n_trees, min_samples_leaf, max_depth, max_features, seed
):
    X, y = data
    if max_features is not None and max_features > X.shape[1]:
        max_features = None

    def trees():
        return [
            DecisionTreeRegressor(
                splitter="random",
                min_samples_leaf=min_samples_leaf,
                max_depth=max_depth,
                max_features=max_features,
                random_state=seed + i,
            )
            for i in range(n_trees)
        ]

    grown = trees()
    grow_random_trees(grown, X, y)
    reference = [reference_fit(tree, X, y) for tree in trees()]
    assert [tree_arrays(t) for t in grown] == [tree_arrays(t) for t in reference]


def test_single_tree_fit_is_the_lockstep_builder():
    rng = np.random.default_rng(4)
    X = rng.random((60, 3))
    y = np.round(X[:, 0] * 10.0) + 1e-9 * rng.random(60)
    tree = DecisionTreeRegressor(splitter="random", min_samples_leaf=2, random_state=9)
    reference = reference_fit(
        DecisionTreeRegressor(splitter="random", min_samples_leaf=2, random_state=9), X, y
    )
    assert tree_arrays(tree.fit(X, y)) == tree_arrays(reference)


# -- threshold-rank leaf lookup ----------------------------------------------------


def walked_leaves(model, X: np.ndarray) -> np.ndarray:
    """Packed leaf of every (tree, row), by walking each tree node by node."""
    offset = 0
    out = []
    for tree in model.estimators_:
        out.append(tree.apply(X) + offset)
        offset += tree.node_count
    return np.concatenate(out)


def probe_rows(model, X: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Random rows, training rows, rows on thresholds, ``±0.0`` and NaN."""
    d = X.shape[1]
    rows = [rng.uniform(-1.5, 1.5, size=(20, d)), X]
    for tree in model.estimators_:
        for feature, threshold in zip(tree.feature_, tree.threshold_):
            if feature >= 0:
                row = rng.choice(X, axis=0).copy()
                row[feature] = threshold
                rows.append(row[None, :])
    signed = rng.choice(X, size=6, axis=0)
    signed[:3, :] = -0.0
    signed[3:, :] = 0.0
    rows.append(signed)
    gaps = rng.choice(X, size=4, axis=0)
    gaps[0, 0] = np.nan
    gaps[1, :] = np.nan
    gaps[2, :] = np.inf
    gaps[3, :] = -np.inf
    rows.append(gaps)
    return np.vstack(rows)


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(["ET", "RF"]),
    n=st.integers(1, 150),
    d=st.integers(1, 4),
    grid=st.booleans(),
    seed=st.integers(0, 2**16),
)
def test_rank_lookup_matches_node_walk(kind, n, d, grid, seed):
    rng = np.random.default_rng(seed)
    if grid:  # midpoints of -1, 0 and 1 give thresholds of exactly ±0.0 and ±0.5
        X = rng.integers(-1, 2, size=(n, d)).astype(float)
    else:
        X = rng.uniform(-1.0, 1.0, size=(n, d))
    y = np.sin(3.0 * X[:, 0]) + rng.random(n)
    cls = {"ET": ExtraTreesRegressor, "RF": RandomForestRegressor}[kind]
    model = cls(n_estimators=4, random_state=seed).fit(X, y)
    P = probe_rows(model, X, rng)
    assert np.array_equal(model._packed_leaves(P), walked_leaves(model, P))


@pytest.mark.parametrize("kind", ["ET", "RF"])
def test_rank_lookup_spans_several_words(kind):
    # Trees of 190-300 leaves: several subtrees of at most 64 leaves under
    # a top tree, and leaf masks of 3-5 64-bit words.
    rng = np.random.default_rng(11)
    X = rng.random((300, 4))
    y = X @ np.array([1.0, -2.0, 0.5, 3.0]) + rng.random(300)
    cls = {"ET": ExtraTreesRegressor, "RF": RandomForestRegressor}[kind]
    model = cls(n_estimators=3, random_state=2, max_features=None).fit(X, y)
    assert min(sum(f < 0 for f in t.feature_) for t in model.estimators_) > 2 * 64
    P = probe_rows(model, X, rng)
    assert np.array_equal(model._packed_leaves(P), walked_leaves(model, P))


def chain_tree(n_leaves: int, peel_left: bool) -> DecisionTreeRegressor:
    """A tree whose every split peels one leaf off its left (or right) end."""
    rows = [[_LEAF, _LEAF, _LEAF, np.nan, 0.0]]  # left, right, feature, threshold, value
    node = 0
    for k in range(n_leaves - 1):
        rows += [[_LEAF, _LEAF, _LEAF, np.nan, 0.0], [_LEAF, _LEAF, _LEAF, np.nan, 0.0]]
        leaf, rest = len(rows) - 2, len(rows) - 1
        if peel_left:  # x <= k + 0.5 ends in leaf k
            rows[node][:4] = [leaf, rest, 0, k + 0.5]
            rows[leaf][4] = float(k)
        else:  # x > n - k - 1.5 ends in leaf n - k - 1
            rows[node][:4] = [rest, leaf, 0, n_leaves - k - 1.5]
            rows[leaf][4] = float(n_leaves - k - 1)
        node = rest
    rows[node][4] = float(n_leaves - 1) if peel_left else 0.0
    tree = DecisionTreeRegressor()
    tree.n_features_ = 1
    columns = list(zip(*rows))
    tree.children_left_ = list(columns[0])
    tree.children_right_ = list(columns[1])
    tree.feature_ = list(columns[2])
    tree.threshold_ = list(columns[3])
    tree.value_ = list(columns[4])
    tree.n_node_samples_ = [1] * len(rows)
    tree._finalize()
    return tree


def test_rank_lookup_on_chain_trees():
    # Chains of 200 leaves: 136 subtrees of at most 64 leaves hang off the
    # top nodes, so the masks over those subtrees take several words too.
    model = ExtraTreesRegressor(n_estimators=2)
    model.n_features_ = 1
    model.estimators_ = [chain_tree(200, peel_left=True), chain_tree(200, peel_left=False)]
    model._pack()
    assert model._n_top_words == 3
    X = np.arange(200.0)[:, None]
    P = np.vstack([probe_rows(model, X, np.random.default_rng(5)) * 100.0, X - 0.5, X + 0.5])
    assert np.array_equal(model._packed_leaves(P), walked_leaves(model, P))
    assert np.array_equal(model.predict(X), X[:, 0])


# -- the numpy primitives the byte identity rests on --------------------------------


def test_row_wise_add_reduce_equals_one_dimensional_reduce():
    rng = np.random.default_rng(2024)
    for length in range(1, 301):
        # Mixed signs over many magnitudes: any change of summation order
        # shows in the last bits.
        block = rng.standard_normal((7, length)) * 10.0 ** rng.integers(-8, 9, (7, length))
        block[0, 0] = -0.0
        block[1] = -0.0
        rows = np.add.reduce(block, axis=1)
        # The builder reduces a gathered (fancy-indexed) block.
        gathered = np.add.reduce(block.ravel()[np.arange(block.size).reshape(block.shape)], 1)
        for i, row in enumerate(block):
            one = np.add.reduce(row)
            assert rows[i].tobytes() == one.tobytes(), (length, i)
            assert gathered[i].tobytes() == one.tobytes(), (length, i)


@pytest.mark.parametrize("bit_generator", [np.random.PCG64, np.random.MT19937])
def test_random_block_then_restore_matches_per_node_draws(bit_generator):
    sizes = [4, 0, 3, 1, 4, 2, 0, 4, 1]
    per_node = np.random.Generator(bit_generator(77))
    expected = [per_node.random(m) for m in sizes]

    rng = np.random.Generator(bit_generator(77))
    state = rng.bit_generator.state
    block = rng.random(4 * len(sizes))
    cuts = np.cumsum([0] + sizes)
    for (lo, hi), draws in zip(zip(cuts[:-1], cuts[1:]), expected):
        assert block[lo:hi].tobytes() == draws.tobytes()
    rng.bit_generator.state = state
    rng.random(int(cuts[-1]))
    assert same_state(rng.bit_generator.state, per_node.bit_generator.state)
    assert rng.random(1000).tobytes() == per_node.random(1000).tobytes()


def same_state(a, b) -> bool:
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(same_state(a[key], b[key]) for key in a)
    return np.array_equal(a, b)
