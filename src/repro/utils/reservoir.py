"""Reservoir sampling for streaming quantile estimates.

The paper reports means, but response-time *tolerances* (the 4-second
ceiling) are really tail questions. Exact percentiles over a 23-minute run
would require storing every response; :class:`ReservoirSampler` keeps a
fixed-size uniform sample (Vitter's Algorithm R) so p50/p95/p99 estimates
stay O(capacity) in memory regardless of run length.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import ValidationError
from repro.utils.seeding import spawn_rng

__all__ = ["ReservoirSampler"]


class ReservoirSampler:
    """Uniform fixed-size sample of an unbounded stream (Algorithm R)."""

    __slots__ = ("capacity", "_values", "_seen", "_rng")

    def __init__(self, capacity: int = 10000, *, seed: int | None = 0) -> None:
        if capacity < 1:
            raise ValidationError("capacity must be >= 1")
        self.capacity = int(capacity)
        self._values: list[float] = []
        self._seen = 0
        self._rng = spawn_rng(seed)

    def add(self, value: float) -> None:
        self._seen += 1
        if len(self._values) < self.capacity:
            self._values.append(float(value))
            return
        # replace a random slot with probability capacity/seen
        slot = int(self._rng.integers(0, self._seen))
        if slot < self.capacity:
            self._values[slot] = float(value)

    def extend(self, values: Sequence[float]) -> None:
        """Offer ``values`` in order: the same sample and draws as one :meth:`add` each."""
        room = max(self.capacity - len(self._values), 0)
        head = values[:room]
        self._values.extend(map(float, head))
        self._seen += len(head)
        for value in values[room:]:
            self.add(value)

    @property
    def seen(self) -> int:
        """Total observations offered to the reservoir."""
        return self._seen

    def __len__(self) -> int:
        return len(self._values)

    def values(self) -> np.ndarray:
        return np.asarray(self._values, dtype=float)

    def quantile(self, q: float | list[float]):
        """Quantile estimate(s) from the current sample."""
        if not self._values:
            raise ValidationError("empty reservoir")
        qs = np.atleast_1d(np.asarray(q, dtype=float))
        if ((qs < 0) | (qs > 1)).any():
            raise ValidationError("quantiles must be in [0, 1]")
        out = np.quantile(self.values(), qs)
        return float(out[0]) if np.isscalar(q) or np.ndim(q) == 0 else out

    def percentiles(self, ps: tuple[float, ...] = (50.0, 95.0, 99.0)) -> dict[str, float]:
        """Convenience ``{"p50": ..., "p95": ..., "p99": ...}`` mapping."""
        values = self.values()
        if values.size == 0:
            raise ValidationError("empty reservoir")
        return {f"p{p:g}": float(np.percentile(values, p)) for p in ps}
