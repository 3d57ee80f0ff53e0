"""Lightweight statistics used throughout metric collection.

The paper reports every metric as ``mean (± std)`` over 966 measurements
(138 samples/run × 7 runs). :class:`RunningStats` implements Welford's online
algorithm so time-series collectors never hold the full sample vector, and
:class:`Summary` is the frozen result attached to experiment outputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

__all__ = ["RunningStats", "Summary", "mean_std", "confidence_interval"]

_INF = math.inf


class RunningStats:
    """Welford online mean/variance accumulator.

    Supports merging two accumulators (parallel collection) via
    :meth:`merge`, weighted updates via :meth:`add` with ``weight``, and
    min/max tracking.
    """

    __slots__ = ("count", "_mean", "_m2", "_weight", "minimum", "maximum")

    def __init__(self) -> None:
        self.count = 0
        self._weight = 0.0
        self._mean = 0.0
        self._m2 = 0.0
        self.minimum = math.inf
        self.maximum = -math.inf

    def add(self, value: float, weight: float = 1.0) -> None:
        """Accumulate one observation with optional finite ``weight`` > 0."""
        if not 0.0 < weight < _INF:  # also rejects NaN, which fails both
            raise ValueError(f"weight must be finite and positive, got {weight}")
        if type(value) is not float:
            value = float(value)
        self.count += 1
        total = self._weight + weight
        self._weight = total
        delta = value - self._mean
        mean = self._mean + (weight / total) * delta
        self._mean = mean
        self._m2 += weight * delta * (value - mean)
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value

    def extend(self, values: Iterable[float]) -> None:
        """Fold ``values`` in order, bit for bit as one :meth:`add` each.

        The loop is :meth:`add` with ``weight=1.0`` and the accumulator in
        locals: ``(1.0 / total) * delta`` and ``delta * (value - mean)``
        round exactly as ``(weight / total) * delta`` and ``weight * delta
        * (value - mean)`` do, so how a stream is cut into calls never
        changes the result. A value that fails ``float()`` stops the fold with
        the values before it folded, as a failing :meth:`add` would.
        """
        count = self.count
        total = self._weight
        mean = self._mean
        m2 = self._m2
        minimum = self.minimum
        maximum = self.maximum
        try:
            for value in values:
                if type(value) is not float:
                    value = float(value)
                count += 1
                total += 1.0
                delta = value - mean
                mean = mean + (1.0 / total) * delta
                m2 += delta * (value - mean)
                if value < minimum:
                    minimum = value
                if value > maximum:
                    maximum = value
        finally:
            self.count = count
            self._weight = total
            self._mean = mean
            self._m2 = m2
            self.minimum = minimum
            self.maximum = maximum

    def merge(self, other: "RunningStats") -> None:
        """Fold ``other`` into ``self`` (Chan et al. parallel variance)."""
        if other.count == 0:
            return
        if self.count == 0:
            self.count = other.count
            self._weight = other._weight
            self._mean = other._mean
            self._m2 = other._m2
            self.minimum = other.minimum
            self.maximum = other.maximum
            return
        delta = other._mean - self._mean
        total = self._weight + other._weight
        self._mean += delta * other._weight / total
        self._m2 += other._m2 + delta * delta * self._weight * other._weight / total
        self._weight = total
        self.count += other.count
        self.minimum = min(self.minimum, other.minimum)
        self.maximum = max(self.maximum, other.maximum)

    @property
    def mean(self) -> float:
        if self.count == 0:
            return math.nan
        return self._mean

    @property
    def variance(self) -> float:
        """Population-weighted variance (ddof=0 analogue)."""
        if self.count == 0:
            return math.nan
        if self._weight == 0:
            return 0.0
        return self._m2 / self._weight

    @property
    def std(self) -> float:
        var = self.variance
        return math.sqrt(var) if var == var else math.nan  # NaN-safe

    def summary(self) -> "Summary":
        return Summary(
            mean=self.mean,
            std=self.std,
            count=self.count,
            minimum=self.minimum if self.count else math.nan,
            maximum=self.maximum if self.count else math.nan,
        )

    def __len__(self) -> int:
        return self.count

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"RunningStats(count={self.count}, mean={self.mean:.6g}, std={self.std:.6g})"


@dataclass(frozen=True)
class Summary:
    """Frozen ``mean (± std)`` record, the unit the paper reports."""

    mean: float
    std: float
    count: int
    minimum: float = math.nan
    maximum: float = math.nan

    def __str__(self) -> str:
        return f"{self.mean:.3f} (±{self.std:.4f})"

    def relative_difference(self, other: "Summary") -> float:
        """Return ``(other - self) / self`` — e.g. the paper's "-7%" gains."""
        if self.mean == 0:
            raise ZeroDivisionError("relative difference against zero mean")
        return (other.mean - self.mean) / self.mean


def mean_std(values: Sequence[float]) -> Summary:
    """One-shot :class:`Summary` of a sample (population std, as the paper)."""
    arr = np.asarray(list(values), dtype=float)
    if arr.size == 0:
        return Summary(mean=math.nan, std=math.nan, count=0)
    return Summary(
        mean=float(arr.mean()),
        std=float(arr.std()),
        count=int(arr.size),
        minimum=float(arr.min()),
        maximum=float(arr.max()),
    )


def confidence_interval(values: Sequence[float], level: float = 0.95) -> tuple[float, float]:
    """Normal-approximation confidence interval for the sample mean."""
    from scipy.special import ndtri

    arr = np.asarray(list(values), dtype=float)
    if arr.size < 2:
        raise ValueError("confidence interval needs at least two samples")
    sem = arr.std(ddof=1) / math.sqrt(arr.size)
    z = ndtri(0.5 + level / 2.0)
    centre = float(arr.mean())
    return centre - z * sem, centre + z * sem
