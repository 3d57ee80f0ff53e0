"""The cross-process telemetry fabric.

Process-pool workers used to be observability black holes: spans and
metrics recorded inside a worker died with the worker, so a
process-executor campaign produced traces with empty evaluations. The
fabric closes the loop in three moves:

1. **activate** — the pool initializer calls :func:`activate_worker`, which
   installs a worker-local recording tracer and metrics registry (the same
   process-global slots the instrumented code already publishes into — no
   instrumentation site changes);
2. **drain** — after each trial the worker calls :func:`drain_worker`,
   serializing everything recorded since the previous drain into one
   JSON-able payload shipped back alongside the trial result;
3. **merge** — the parent calls :func:`merge_payload`, which remaps span
   ids, rebases the worker clock onto the parent tracer's timeline (via
   each tracer's ``started_at`` wall timestamp), stamps ``runner_id`` /
   ``pid`` attribution onto every span and accumulates counters/histograms
   into the parent registry. Merged spans stream through the parent
   tracer's latency digests and subscribers, so worker-side ops are
   digested exactly once, in the parent, and the live watchdog sees them
   too.

The payload is a plain dict of JSON types, so the same schema works over
pickle (process pools) or the wire (``POST /telemetry`` pushes from store
workers on other hosts). Merge accounting is self-observable:
``repro_fabric_merged_spans_total`` / ``repro_fabric_merge_dropped_total``.
"""

from __future__ import annotations

import os
from typing import Any, Mapping, Optional

from repro.observability.metrics import (
    MetricsRegistry,
    get_registry,
    set_registry,
)
from repro.observability.trace import (
    RecordingTracer,
    Span,
    get_tracer,
    set_tracer,
)

__all__ = [
    "FABRIC_SCHEMA",
    "activate_worker",
    "worker_active",
    "worker_runner_id",
    "drain_worker",
    "merge_payload",
]

#: schema tag carried by every fabric payload.
FABRIC_SCHEMA = "repro.fabric/1"

#: this process's worker identity, or ``None`` outside an activated worker.
_runner_id: Optional[str] = None
#: pid that performed the activation — a forked child inherits the parent's
#: module globals, so the id must be re-derived when the pid changed.
_activated_pid: Optional[int] = None


def activate_worker(runner_name: str = "experiment") -> str:
    """Install worker-local telemetry; idempotent per (process, runner name).

    Called by the process-pool initializer. The worker's identity is
    ``<runner_name>/w<pid>`` and is stamped onto every span merged back
    into the parent.

    Re-activation resets stale state: a pool-worker process reused (or
    forked) by a *second* pool with a different runner name — or a child
    that inherited an activated parent's globals across ``fork`` — would
    otherwise keep the first activation's ``runner_id`` and mis-attribute
    every span it ships. When the name or pid differs from the recorded
    activation, fresh telemetry slots are installed (dropping anything the
    previous identity had buffered) and the id is re-derived.
    """
    global _runner_id, _activated_pid
    pid = os.getpid()
    runner_id = f"{runner_name}/w{pid}"
    if _runner_id == runner_id and _activated_pid == pid:
        return _runner_id
    # First activation, a new identity, or a forked inheritance: telemetry
    # buffered under the old identity must not leak into the new one.
    set_tracer(RecordingTracer())
    set_registry(MetricsRegistry())
    _runner_id = runner_id
    _activated_pid = pid
    return _runner_id


def worker_active() -> bool:
    """Whether this process is an activated fabric worker."""
    return _runner_id is not None


def worker_runner_id() -> Optional[str]:
    return _runner_id


def drain_worker() -> Optional[dict[str, Any]]:
    """Serialize-and-reset this worker's telemetry into one payload.

    Returns ``None`` outside an activated worker. Each drain carries only
    what was recorded since the previous one, so per-trial payloads never
    double count.
    """
    if _runner_id is None:
        return None
    payload: dict[str, Any] = {
        "schema": FABRIC_SCHEMA,
        "pid": os.getpid(),
        "runner_id": _runner_id,
    }
    tracer = get_tracer()
    if isinstance(tracer, RecordingTracer):
        payload["epoch_unix"] = tracer.started_at
        payload["spans"] = [span.to_dict() for span in tracer.drain()]
    registry = get_registry()
    if registry.enabled:
        payload["metrics"] = registry.drain_state()
    return payload


def merge_payload(
    payload: Mapping[str, Any],
    *,
    tracer: Any = None,
    registry: Any = None,
    parent: Optional[Span] = None,
    attributes: Optional[dict[str, Any]] = None,
) -> int:
    """Fold one worker payload into the parent-side telemetry.

    ``parent`` (typically the open trial span) adopts worker spans whose
    parent did not travel in the payload; ``attributes`` (e.g.
    ``trial_id``) are stamped onto every merged span alongside the
    payload's ``runner_id``/``pid``. Returns the number of spans merged.
    Malformed payloads count into ``repro_fabric_merge_dropped_total``
    rather than raising — a telemetry bug must never fail a trial.
    """
    tracer = tracer if tracer is not None else get_tracer()
    registry = registry if registry is not None else get_registry()
    merged = 0
    dropped = 0
    if not isinstance(payload, Mapping) or payload.get("schema") != FABRIC_SCHEMA:
        dropped += 1
        payload = {}
    span_attrs = dict(attributes or {})
    if payload.get("runner_id") is not None:
        span_attrs.setdefault("runner_id", payload["runner_id"])
    if payload.get("pid") is not None:
        span_attrs.setdefault("pid", payload["pid"])
    spans = payload.get("spans") or []
    if spans and isinstance(tracer, RecordingTracer):
        epoch = payload.get("epoch_unix")
        merged, span_dropped = tracer.ingest(
            list(spans), parent=parent, epoch_unix=epoch, attributes=span_attrs
        )
        dropped += span_dropped
    metrics_state = payload.get("metrics")
    if metrics_state and getattr(registry, "enabled", False):
        registry.merge_state(metrics_state)
    if getattr(registry, "enabled", False):
        registry.counter(
            "repro_fabric_merged_spans_total",
            "worker spans merged into the parent tracer",
        ).inc(merged)
        registry.counter(
            "repro_fabric_merge_dropped_total",
            "malformed fabric entries dropped during merge",
        ).inc(dropped)
    return merged
