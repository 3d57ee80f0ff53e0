"""Mergeable streaming latency digests, derived from the span stream.

Means hide tails: the Phase III cost profile said *how much* time suggest
took, not that its p99 was 5× its p50. A :class:`LatencyDigest` is a
t-digest-style quantile sketch — bounded memory, accurate tails, and
*mergeable* (two digests fold into one by compressing their centroids).

Hot paths emit spans and nothing else. Every
:class:`~repro.observability.trace.RecordingTracer` owns one
:class:`PerfRecorder` (``tracer.perf``) and feeds it each finished span —
its own and those ingested from worker processes — through one table,
:data:`SPAN_OPS`, mapping span names to digest ops:

=====================  ====================================================
span                   digest op
=====================  ====================================================
``suggest``            ``suggest`` (per candidate) or, when the ask blocked
                       on an inline surrogate fit, one ``suggest_fit``
                       sample covering the whole ask
``execute``            ``evaluate`` (cache hits and timed-out attempts
                       excluded)
``queue-wait``         ``queue_wait``
``tell``               ``tell``
``refit``              ``refit`` (every surrogate fit, wherever it ran)
``cycle:deploy``       ``deploy``
``cycle:reconfigure``  ``reconfigure``
``evalcache_lookup``   ``evalcache_lookup``
``des_run``            ``des_run``
``hybrid.epoch``       ``hybrid_epoch``
=====================  ====================================================

The recorder keeps one digest per op plus a windowed time series of
per-window digests (windowed by the span's end on the tracer's timeline),
and exports:

- ``perf_profile.json`` — the run artifact the regression gate
  (``python -m repro perf``) snapshots and diffs;
- Prometheus *summary* series (``repro_latency_seconds{op=,quantile=}``)
  appended to ``metrics.prom``.
"""

from __future__ import annotations

import math
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterator, Mapping, Optional

__all__ = [
    "LatencyDigest",
    "PerfRecorder",
    "SPAN_OPS",
    "PERF_PROFILE_FILE",
    "PERF_QUANTILES",
]

#: artifact name of the latency profile inside a run directory.
PERF_PROFILE_FILE = "perf_profile.json"

#: the quantiles reported everywhere (profile, Prometheus, report, summary).
PERF_QUANTILES = (("p50", 0.50), ("p90", 0.90), ("p99", 0.99))

#: schema tag written into ``perf_profile.json``.
PERF_PROFILE_SCHEMA = "repro.perf_profile/1"


class LatencyDigest:
    """A merging t-digest: streaming quantiles in bounded memory.

    Values are buffered and periodically compressed into weighted centroids
    whose size is bounded by the scale function ``4·W·q·(1−q)/compression``
    — small clusters near the extremes (accurate tails), large clusters in
    the middle. Two digests merge by compressing the union of their
    centroids, which is what makes the sketch portable across processes.
    """

    __slots__ = (
        "compression", "count", "sum", "min", "max", "_means", "_weights", "_buffer", "_dirty"
    )

    def __init__(self, compression: int = 100) -> None:
        if compression < 10:
            raise ValueError(f"compression must be >= 10, got {compression}")
        self.compression = int(compression)
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf
        self._means: list[float] = []
        self._weights: list[float] = []
        self._buffer: list[float] = []
        self._dirty = False

    # -- ingestion -----------------------------------------------------------------

    def add(self, value: float) -> None:
        """Record one observation (non-finite values are skipped)."""
        v = float(value)
        if not math.isfinite(v):
            return
        self._buffer.append(v)
        self.count += 1
        self.sum += v
        if v < self.min:
            self.min = v
        if v > self.max:
            self.max = v
        if len(self._buffer) >= 4 * self.compression:
            self._compress()

    def merge(self, other: "LatencyDigest") -> "LatencyDigest":
        """Fold ``other`` into this digest (the cross-process operation)."""
        other._compress()
        if other.count == 0:
            return self
        self._means.extend(other._means)
        self._weights.extend(other._weights)
        self.count += other.count
        self.sum += other.sum
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)
        self._dirty = True
        self._compress()
        return self

    def _compress(self) -> None:
        if not self._buffer and not self._dirty:
            return
        self._dirty = False
        pairs = sorted(
            list(zip(self._means, self._weights)) + [(v, 1.0) for v in self._buffer]
        )
        self._buffer = []
        if not pairs:
            return
        total = sum(w for _, w in pairs)
        means: list[float] = []
        weights: list[float] = []
        cur_mean, cur_w = pairs[0]
        consumed = 0.0
        for mean, w in pairs[1:]:
            q = (consumed + cur_w / 2.0) / total
            limit = max(4.0 * total * q * (1.0 - q) / self.compression, 1.0)
            if cur_w + w <= limit:
                cur_mean += (mean - cur_mean) * w / (cur_w + w)
                cur_w += w
            else:
                means.append(cur_mean)
                weights.append(cur_w)
                consumed += cur_w
                cur_mean, cur_w = mean, w
        means.append(cur_mean)
        weights.append(cur_w)
        self._means = means
        self._weights = weights

    # -- queries -------------------------------------------------------------------

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else math.nan

    def quantile(self, q: float) -> float:
        """Estimate the ``q``-quantile by interpolating centroid centers."""
        if self.count == 0:
            return math.nan
        self._compress()
        if q <= 0.0:
            return self.min
        if q >= 1.0:
            return self.max
        means, weights = self._means, self._weights
        if len(means) == 1:
            return means[0]
        target = q * self.count
        # cumulative weight at each centroid's center
        centers: list[float] = []
        cum = 0.0
        for w in weights:
            centers.append(cum + w / 2.0)
            cum += w
        if target <= centers[0]:
            frac = target / centers[0] if centers[0] > 0 else 1.0
            return self.min + (means[0] - self.min) * frac
        if target >= centers[-1]:
            tail = self.count - centers[-1]
            frac = (target - centers[-1]) / tail if tail > 0 else 1.0
            return means[-1] + (self.max - means[-1]) * frac
        for i in range(len(centers) - 1):
            if centers[i] <= target <= centers[i + 1]:
                gap = centers[i + 1] - centers[i]
                frac = (target - centers[i]) / gap if gap > 0 else 0.0
                return means[i] + (means[i + 1] - means[i]) * frac
        return means[-1]  # pragma: no cover - unreachable

    def percentiles(self) -> dict[str, float]:
        """``{count, mean, p50, p90, p99}`` — the standard rollup."""
        out: dict[str, float] = {"count": float(self.count), "mean": self.mean}
        for name, q in PERF_QUANTILES:
            out[name] = self.quantile(q)
        return out

    def samples(self, cap: int = 2000) -> list[float]:
        """Representative samples reconstructed from the centroids.

        Used by the regression gate's bootstrap: centroid ``i`` contributes
        ``round(C_i · n / W) − round(C_{i−1} · n / W)`` samples, where
        ``C_i`` is the cumulative weight through centroid ``i``, ``W`` the
        total weight and ``n = min(cap, count)``. The counts are proportional
        to the weights, sum to exactly ``n`` (so never more than ``cap``),
        and a centroid too light for a sample of its own is absorbed by its
        neighbours rather than inflating the total.
        """
        self._compress()
        if self.count == 0 or not self._means:
            return []
        total = sum(self._weights)
        n = min(int(cap), self.count)
        out: list[float] = []
        cum = 0.0
        taken = 0
        for mean, w in zip(self._means, self._weights):
            cum += w
            upto = min(n, int(round(cum / total * n)))
            out.extend([mean] * (upto - taken))
            taken = upto
        return sorted(out)

    # -- serialization ---------------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        self._compress()
        return {
            "compression": self.compression,
            "count": self.count,
            "sum": self.sum,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
            "means": list(self._means),
            "weights": list(self._weights),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "LatencyDigest":
        digest = cls(compression=int(data.get("compression", 100)))
        means = [float(m) for m in data.get("means", ())]
        weights = [float(w) for w in data.get("weights", ())]
        if len(means) != len(weights):
            raise ValueError("digest means/weights length mismatch")
        digest._means = means
        digest._weights = weights
        digest.count = int(data.get("count", round(sum(weights))))
        digest.sum = float(data.get("sum", sum(m * w for m, w in zip(means, weights))))
        lo = data.get("min")
        hi = data.get("max")
        digest.min = float(lo) if lo is not None else (min(means) if means else math.inf)
        digest.max = float(hi) if hi is not None else (max(means) if means else -math.inf)
        return digest

    def __len__(self) -> int:
        return self.count

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"LatencyDigest(count={self.count}, centroids={len(self._means)})"


def _suggest_op(span: Any) -> Optional[tuple[str, float]]:
    """``suggest`` per candidate; one ``suggest_fit`` per fit-bearing ask.

    The runner stamps each trial's suggest span with ``fit`` (the ask
    blocked on an inline surrogate fit) and ``batch`` (the ask's candidate
    count on its first trial, 0 on the ask's later trials). The span itself
    lasts the per-candidate share, so the first trial's span scaled by the
    batch is the whole ask.
    """
    attributes = span.attributes
    if not attributes.get("fit"):
        return "suggest", span.duration_s
    batch = attributes.get("batch", 1)
    return ("suggest_fit", span.duration_s * batch) if batch else None


def _execute_op(span: Any) -> Optional[tuple[str, float]]:
    """``evaluate``, except for cache hits and attempts that timed out."""
    attributes = span.attributes
    if attributes.get("cache_hit") or attributes.get("status") == "timeout":
        return None
    return "evaluate", span.duration_s


#: span name -> the digest op it feeds: an op name (the span's duration is
#: the sample) or a function of the span returning ``(op, seconds)`` or
#: ``None``. The one place where hot-path spans become latency digests.
SPAN_OPS: dict[str, Any] = {
    "suggest": _suggest_op,
    "execute": _execute_op,
    "queue-wait": "queue_wait",
    "tell": "tell",
    "refit": "refit",
    "cycle:deploy": "deploy",
    "cycle:reconfigure": "reconfigure",
    "evalcache_lookup": "evalcache_lookup",
    "des_run": "des_run",
    "hybrid.epoch": "hybrid_epoch",
}


class PerfRecorder:
    """Per-op latency digests plus a windowed time series; thread-safe."""

    def __init__(
        self,
        *,
        window_s: float = 30.0,
        compression: int = 100,
        max_windows: int = 240,
        started_at: Optional[float] = None,
    ) -> None:
        if window_s <= 0:
            raise ValueError(f"window_s must be > 0, got {window_s}")
        self.window_s = float(window_s)
        self.compression = int(compression)
        self.max_windows = int(max_windows)
        #: wall-clock timestamp of the recorder's epoch; a tracer passes its
        #: own, so a span's ``end_s`` is its offset into the window series.
        self.started_at = time.time() if started_at is None else float(started_at)
        self._lock = threading.Lock()
        self._ops: dict[str, LatencyDigest] = {}
        self._windows: dict[int, dict[str, LatencyDigest]] = {}

    # -- recording -----------------------------------------------------------------

    def observe(self, span: Any) -> None:
        """Digest one finished span through :data:`SPAN_OPS` (if it maps)."""
        rule = SPAN_OPS.get(span.name)
        if rule is None:
            return
        sample = (rule, span.duration_s) if isinstance(rule, str) else rule(span)
        if sample is not None:
            self.record(*sample, at_s=span.end_s)

    def record(self, op: str, seconds: float, *, at_s: Optional[float] = None) -> None:
        """Record one latency observation for ``op``.

        ``at_s`` places the sample in the window series (seconds since
        ``started_at``; default: now).
        """
        if at_s is None:
            at_s = time.time() - self.started_at
        with self._lock:
            digest = self._ops.get(op)
            if digest is None:
                digest = self._ops[op] = LatencyDigest(self.compression)
            digest.add(seconds)
            index = max(0, int(at_s / self.window_s))
            window = self._windows.get(index)
            if window is None:
                window = self._windows[index] = {}
                if len(self._windows) > self.max_windows:
                    del self._windows[min(self._windows)]
            wd = window.get(op)
            if wd is None:
                wd = window[op] = LatencyDigest(self.compression)
            wd.add(seconds)

    @contextmanager
    def timed(self, op: str) -> Iterator[None]:
        """Context manager recording the block's wall duration under ``op``."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.record(op, time.perf_counter() - start)

    # -- queries -------------------------------------------------------------------

    def ops(self) -> dict[str, LatencyDigest]:
        """Snapshot of the per-op overall digests."""
        with self._lock:
            return dict(self._ops)

    def digest(self, op: str) -> Optional[LatencyDigest]:
        with self._lock:
            return self._ops.get(op)

    # -- export --------------------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """The full ``perf_profile.json`` payload (digests included)."""
        with self._lock:
            ops_snapshot = dict(self._ops)
            windows_snapshot = {i: dict(w) for i, w in self._windows.items()}
        ops: dict[str, Any] = {}
        for op in sorted(ops_snapshot):
            digest = ops_snapshot[op]
            entry = digest.percentiles()
            entry["sum"] = digest.sum
            entry["digest"] = digest.to_dict()
            ops[op] = entry
        windows = []
        for index in sorted(windows_snapshot):
            row: dict[str, Any] = {
                "index": index,
                "start_s": index * self.window_s,
                "ops": {},
            }
            for op in sorted(windows_snapshot[index]):
                row["ops"][op] = windows_snapshot[index][op].percentiles()
            windows.append(row)
        return {
            "schema": PERF_PROFILE_SCHEMA,
            "started_at": self.started_at,
            "window_s": self.window_s,
            "ops": ops,
            "windows": windows,
        }

    def export_json(self, path: str | Path) -> Path:
        # Atomic (temp file + os.replace): the perf gate and report CLIs may
        # read perf_profile.json while a run is still exporting — they must
        # never observe a half-written document.
        from repro.utils.serialization import dump_json

        return dump_json(self.to_dict(), path, atomic=True)

    def render_prometheus(self) -> str:
        """Prometheus *summary* series for every op."""
        ops = self.ops()
        if not ops:
            return ""
        lines = [
            "# HELP repro_latency_seconds hot-path op latency quantiles",
            "# TYPE repro_latency_seconds summary",
        ]
        for op in sorted(ops):
            digest = ops[op]
            for _, q in PERF_QUANTILES:
                value = digest.quantile(q)
                lines.append(
                    f'repro_latency_seconds{{op="{op}",quantile="{q}"}} {value:.9g}'
                )
            lines.append(f'repro_latency_seconds_sum{{op="{op}"}} {digest.sum:.9g}')
            lines.append(f'repro_latency_seconds_count{{op="{op}"}} {digest.count}')
        return "\n".join(lines) + "\n"
