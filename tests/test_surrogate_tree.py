"""Tests for the CART tree and its Extra-Trees splitter."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ValidationError
from repro.surrogate import DecisionTreeRegressor
from repro.surrogate.base import check_fit_inputs
from repro.surrogate.forest import ExtraTreesRegressor, RandomForestRegressor


class TestFitInputs:
    def test_shape_checks(self):
        with pytest.raises(ValidationError):
            check_fit_inputs(np.zeros(3), np.zeros(3))  # 1-D X
        with pytest.raises(ValidationError):
            check_fit_inputs(np.zeros((3, 2)), np.zeros(4))
        with pytest.raises(ValidationError):
            check_fit_inputs(np.zeros((0, 2)), np.zeros(0))
        with pytest.raises(ValidationError):
            check_fit_inputs([[np.nan, 1.0]], [1.0])


class TestDecisionTree:
    def test_fits_training_data_exactly_when_unbounded(self, rng):
        X = rng.uniform(size=(50, 2))
        y = rng.normal(size=50)
        tree = DecisionTreeRegressor().fit(X, y)
        assert tree.predict(X) == pytest.approx(y, abs=1e-12)

    def test_max_depth_limits(self, rng):
        X = rng.uniform(size=(200, 2))
        y = rng.normal(size=200)
        tree = DecisionTreeRegressor(max_depth=3).fit(X, y)
        assert tree.depth <= 3

    def test_min_samples_leaf(self, rng):
        X = rng.uniform(size=(100, 1))
        y = rng.normal(size=100)
        tree = DecisionTreeRegressor(min_samples_leaf=10).fit(X, y)
        leaves = tree.apply(X)
        _, counts = np.unique(leaves, return_counts=True)
        assert counts.min() >= 10

    def test_constant_target_single_leaf(self):
        X = np.arange(20, dtype=float).reshape(-1, 1)
        tree = DecisionTreeRegressor().fit(X, np.ones(20))
        assert tree.node_count == 1
        assert tree.predict([[5.0]])[0] == 1.0

    def test_learns_step_function(self):
        X = np.linspace(0, 1, 100).reshape(-1, 1)
        y = (X[:, 0] > 0.5).astype(float)
        tree = DecisionTreeRegressor(max_depth=1).fit(X, y)
        assert tree.predict([[0.2]])[0] == 0.0
        assert tree.predict([[0.9]])[0] == 1.0
        # the split should land near 0.5
        assert abs(tree.threshold_[0] - 0.5) < 0.02

    def test_random_splitter_also_learns(self, rng):
        X = rng.uniform(size=(300, 2))
        y = 2.0 * X[:, 0] + X[:, 1]
        tree = DecisionTreeRegressor(splitter="random", random_state=0).fit(X, y)
        assert tree.score(X, y) > 0.9

    def test_predict_before_fit(self):
        with pytest.raises(ValidationError):
            DecisionTreeRegressor().predict([[1.0]])

    def test_feature_count_checked(self, rng):
        tree = DecisionTreeRegressor().fit(rng.uniform(size=(10, 2)), rng.normal(size=10))
        with pytest.raises(ValidationError):
            tree.predict([[1.0, 2.0, 3.0]])

    def test_set_leaf_values(self, rng):
        X = rng.uniform(size=(20, 1))
        y = rng.normal(size=20)
        tree = DecisionTreeRegressor(max_depth=1).fit(X, y)
        leaves = np.unique(tree.apply(X))
        tree.set_leaf_values({int(leaf): 42.0 for leaf in leaves})
        assert (tree.predict(X) == 42.0).all()

    def test_set_leaf_values_rejects_internal_node(self, rng):
        X = rng.uniform(size=(50, 1))
        y = X[:, 0]
        tree = DecisionTreeRegressor(max_depth=2).fit(X, y)
        if tree.node_count > 1:
            with pytest.raises(ValidationError):
                tree.set_leaf_values({0: 1.0})

    def test_param_validation(self):
        with pytest.raises(ValidationError):
            DecisionTreeRegressor(max_depth=0)
        with pytest.raises(ValidationError):
            DecisionTreeRegressor(min_samples_split=1)
        with pytest.raises(ValidationError):
            DecisionTreeRegressor(splitter="weird")

    def test_overflowing_feature_range_rejected(self):
        X = np.array([[-1e308], [1e308], [0.0]])
        with pytest.raises(ValidationError):
            DecisionTreeRegressor(splitter="random").fit(X, [0.0, 1.0, 2.0])

    def test_overflowing_range_never_drawn_fits(self):
        # A constant target never tries a split, so the range is not drawn.
        X = np.array([[-1e308], [1e308], [0.0]])
        tree = DecisionTreeRegressor(splitter="random").fit(X, [1.0, 1.0, 1.0])
        assert tree.node_count == 1

    @given(
        n=st.integers(5, 60),
        seed=st.integers(0, 100),
        splitter=st.sampled_from(["best", "random"]),
    )
    @settings(max_examples=25, deadline=None)
    def test_predictions_within_target_range(self, n, seed, splitter):
        """Tree predictions are convex combinations of training targets."""
        rng = np.random.default_rng(seed)
        X = rng.uniform(size=(n, 2))
        y = rng.normal(size=n)
        tree = DecisionTreeRegressor(splitter=splitter, random_state=seed).fit(X, y)
        preds = tree.predict(rng.uniform(size=(30, 2)))
        assert (preds >= y.min() - 1e-9).all()
        assert (preds <= y.max() + 1e-9).all()


class TestMaxFeatures:
    """``max_features`` is checked at the boundary, never clamped."""

    @pytest.mark.parametrize("bad", [0, -1, True, False, "log2", 0.5, 2.0])
    @pytest.mark.parametrize("cls", [DecisionTreeRegressor, ExtraTreesRegressor, RandomForestRegressor])
    def test_bad_value_rejected_at_construction(self, cls, bad):
        with pytest.raises(ValidationError):
            cls(max_features=bad)

    @pytest.mark.parametrize("good", [None, "sqrt", 1, 3, np.int64(2)])
    @pytest.mark.parametrize("cls", [DecisionTreeRegressor, ExtraTreesRegressor, RandomForestRegressor])
    def test_good_value_accepted(self, cls, good, rng):
        model = cls(max_features=good).fit(rng.uniform(size=(12, 3)), rng.normal(size=12))
        assert np.isfinite(model.predict(rng.uniform(size=(4, 3)))).all()

    @pytest.mark.parametrize("cls", [DecisionTreeRegressor, ExtraTreesRegressor, RandomForestRegressor])
    def test_more_features_than_data_rejected_at_fit(self, cls, rng):
        model = cls(max_features=4)
        with pytest.raises(ValidationError, match="max_features=4"):
            model.fit(rng.uniform(size=(12, 3)), rng.normal(size=12))
