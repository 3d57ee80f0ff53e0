"""Exact per-op latency samples, derived from the span stream.

Means hide tails: the Phase III cost profile said *how much* time suggest
took, not that its p99 was 5× its p50. The recorder keeps every finished
op's latency as a raw sample, so a run directory's ``perf_profile.json``
is the same ops block the benchmarks write and the regression gate
bootstraps it on the measured samples themselves.

Hot paths emit spans and nothing else. Every
:class:`~repro.observability.trace.RecordingTracer` owns one
:class:`PerfRecorder` (``tracer.perf``) and feeds it each finished span —
its own and those ingested from worker processes — through one table,
:data:`SPAN_OPS`, mapping span names to ops:

=====================  ====================================================
span                   op
=====================  ====================================================
``suggest``            ``suggest`` (one sample per trial: its share of the
                       ask, equal to the trial's ``cost.suggest_s``)
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

The recorder exports:

- ``perf_profile.json`` — one ops-block entry per op,
  ``{"unit": "s", "count", "samples", "mean", "p50", "p90", "p99"}``: the
  run artifact the regression gate (``python -m repro perf``) snapshots
  and diffs;
- Prometheus *summary* series (``repro_latency_seconds{op=,quantile=}``)
  appended to ``metrics.prom``.

Every quantile in the observability package — the profile rollup, the
gate, the per-trial cost profile and the watchdog's tail rule — is
:func:`quantile_of`, linear interpolation between order statistics.
"""

from __future__ import annotations

import math
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterable, Iterator, Optional, Sequence

__all__ = [
    "PerfRecorder",
    "SPAN_OPS",
    "PERF_PROFILE_FILE",
    "PERF_QUANTILES",
    "quantile_of",
    "summarize",
]

#: artifact name of the latency profile inside a run directory.
PERF_PROFILE_FILE = "perf_profile.json"

#: the quantiles reported everywhere (profile, Prometheus, report, summary).
PERF_QUANTILES = (("p50", 0.50), ("p90", 0.90), ("p99", 0.99))

#: schema tag written into ``perf_profile.json``.
PERF_PROFILE_SCHEMA = "repro.perf_profile/2"


def quantile_of(sorted_values: Sequence[float], q: float) -> float:
    """The ``q``-quantile of sorted values by linear interpolation (NaN if empty)."""
    if not sorted_values:
        return math.nan
    pos = q * (len(sorted_values) - 1)
    lo = int(math.floor(pos))
    hi = min(lo + 1, len(sorted_values) - 1)
    frac = pos - lo
    return sorted_values[lo] * (1.0 - frac) + sorted_values[hi] * frac


def summarize(samples: Iterable[float]) -> dict[str, float]:
    """``{count, mean, p50, p90, p99}`` of raw samples — the standard rollup."""
    ordered = sorted(samples)
    out: dict[str, float] = {
        "count": len(ordered),
        "mean": math.fsum(ordered) / len(ordered) if ordered else math.nan,
    }
    for name, q in PERF_QUANTILES:
        out[name] = quantile_of(ordered, q)
    return out


def _execute_op(span: Any) -> Optional[tuple[str, float]]:
    """``evaluate``, except for cache hits and attempts that timed out."""
    attributes = span.attributes
    if attributes.get("cache_hit") or attributes.get("status") == "timeout":
        return None
    return "evaluate", span.duration_s


#: span name -> the op it feeds: an op name (the span's duration is the
#: sample) or a function of the span returning ``(op, seconds)`` or
#: ``None``. The one place where hot-path spans become latency samples.
SPAN_OPS: dict[str, Any] = {
    "suggest": "suggest",
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
    """Every finite latency sample, one list per op; thread-safe."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._ops: dict[str, list[float]] = {}

    # -- recording -----------------------------------------------------------------

    def observe(self, span: Any) -> None:
        """Record one finished span through :data:`SPAN_OPS` (if it maps)."""
        rule = SPAN_OPS.get(span.name)
        if rule is None:
            return
        sample = (rule, span.duration_s) if isinstance(rule, str) else rule(span)
        if sample is not None:
            self.record(*sample)

    def record(self, op: str, seconds: float) -> None:
        """Record one latency observation for ``op`` (NaN and inf are skipped)."""
        value = float(seconds)
        if not math.isfinite(value):
            return
        with self._lock:
            samples = self._ops.get(op)
            if samples is None:
                samples = self._ops[op] = []
            samples.append(value)

    @contextmanager
    def timed(self, op: str) -> Iterator[None]:
        """Context manager recording the block's wall duration under ``op``."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.record(op, time.perf_counter() - start)

    # -- queries -------------------------------------------------------------------

    def ops(self) -> dict[str, list[float]]:
        """Snapshot of every op's samples, in recording order."""
        with self._lock:
            return {op: list(samples) for op, samples in self._ops.items()}

    # -- export --------------------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """The full ``perf_profile.json`` payload (raw samples included)."""
        ops = self.ops()
        return {
            "schema": PERF_PROFILE_SCHEMA,
            "ops": {
                op: {"unit": "s", **summarize(ops[op]), "samples": ops[op]}
                for op in sorted(ops)
            },
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
            samples = ops[op]
            stats = summarize(samples)
            for name, q in PERF_QUANTILES:
                lines.append(
                    f'repro_latency_seconds{{op="{op}",quantile="{q}"}} {stats[name]:.9g}'
                )
            lines.append(f'repro_latency_seconds_sum{{op="{op}"}} {math.fsum(samples):.9g}')
            lines.append(f'repro_latency_seconds_count{{op="{op}"}} {len(samples)}')
        return "\n".join(lines) + "\n"
