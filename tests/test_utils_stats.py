"""Tests for repro.utils.stats."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.utils.stats import RunningStats, Summary, confidence_interval, mean_std

finite_floats = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


class TestRunningStats:
    def test_empty(self):
        stats = RunningStats()
        assert stats.count == 0
        assert math.isnan(stats.mean)
        assert math.isnan(stats.std)

    def test_single_value(self):
        stats = RunningStats()
        stats.add(3.0)
        assert stats.mean == 3.0
        assert stats.std == 0.0
        assert stats.minimum == stats.maximum == 3.0

    def test_matches_numpy(self, rng):
        values = rng.normal(5.0, 2.0, size=500)
        stats = RunningStats()
        stats.extend(values)
        assert stats.mean == pytest.approx(values.mean())
        assert stats.std == pytest.approx(values.std())
        assert stats.minimum == values.min()
        assert stats.maximum == values.max()

    def test_weighted_mean(self):
        stats = RunningStats()
        stats.add(1.0, weight=1.0)
        stats.add(3.0, weight=3.0)
        assert stats.mean == pytest.approx(2.5)

    def test_rejects_nonpositive_weight(self):
        stats = RunningStats()
        with pytest.raises(ValueError):
            stats.add(1.0, weight=0.0)

    @pytest.mark.parametrize("weight", [float("nan"), float("inf"), -float("inf"), -1.0])
    def test_rejects_non_finite_weight(self, weight):
        """A NaN weight fails ``weight <= 0`` too; it must not poison the mean."""
        stats = RunningStats()
        with pytest.raises(ValueError):
            stats.add(1.0, weight=weight)
        stats.add(2.0)
        assert stats.count == 1
        assert stats.mean == 2.0

    @given(st.lists(finite_floats, min_size=1, max_size=60), st.lists(finite_floats, min_size=1, max_size=60))
    @settings(max_examples=50, deadline=None)
    def test_merge_equals_pooled(self, a, b):
        """Merging two accumulators equals accumulating the concatenation."""
        sa, sb, pooled = RunningStats(), RunningStats(), RunningStats()
        sa.extend(a)
        sb.extend(b)
        pooled.extend(a + b)
        sa.merge(sb)
        assert sa.count == pooled.count
        assert sa.mean == pytest.approx(pooled.mean, rel=1e-9, abs=1e-6)
        assert sa.std == pytest.approx(pooled.std, rel=1e-6, abs=1e-6)

    def test_merge_into_empty(self):
        a, b = RunningStats(), RunningStats()
        b.extend([1.0, 2.0])
        a.merge(b)
        assert a.count == 2
        assert a.mean == pytest.approx(1.5)

    @given(st.lists(finite_floats, min_size=2, max_size=100))
    @settings(max_examples=50, deadline=None)
    def test_variance_nonnegative(self, values):
        stats = RunningStats()
        stats.extend(values)
        assert stats.variance >= -1e-9


class TestSummary:
    def test_str_format(self):
        assert str(Summary(mean=2.657, std=0.0914, count=966)) == "2.657 (±0.0914)"

    def test_relative_difference(self):
        base = Summary(mean=2.657, std=0.1, count=10)
        pre = Summary(mean=2.484, std=0.1, count=10)
        assert base.relative_difference(pre) == pytest.approx(-0.0651, abs=1e-3)

    def test_relative_difference_zero_mean(self):
        with pytest.raises(ZeroDivisionError):
            Summary(mean=0.0, std=0.0, count=1).relative_difference(
                Summary(mean=1.0, std=0.0, count=1)
            )


class TestFunctions:
    def test_mean_std(self):
        summary = mean_std([1.0, 2.0, 3.0])
        assert summary.mean == 2.0
        assert summary.count == 3
        assert summary.minimum == 1.0 and summary.maximum == 3.0

    def test_mean_std_empty(self):
        assert math.isnan(mean_std([]).mean)

    def test_confidence_interval_contains_mean(self, rng):
        values = rng.normal(10.0, 1.0, size=200)
        lo, hi = confidence_interval(values, 0.95)
        assert lo < values.mean() < hi
        assert hi - lo < 1.0

    def test_confidence_interval_needs_two(self):
        with pytest.raises(ValueError):
            confidence_interval([1.0])
