"""The cross-process telemetry fabric.

Process-pool workers used to be observability black holes: spans
recorded inside a worker died with the worker, so a process-executor
campaign produced traces with empty evaluations. The fabric closes the loop
in three moves:

1. **activate** — the pool initializer or a store worker calls
   :func:`activate_worker` with its identity, which installs a
   worker-local recording tracer (the same process-global slot the
   instrumented code already emits into — no instrumentation site
   changes);
2. **drain** — after each trial the worker calls :func:`drain_worker`,
   serializing the spans finished since the previous drain into one
   JSON-able payload shipped back alongside the trial result;
3. **merge** — the parent calls :func:`merge_payload`, which remaps span
   ids, rebases the worker clock onto the parent tracer's timeline (via
   each tracer's ``started_at`` wall timestamp) and stamps ``runner_id`` /
   ``pid`` attribution onto every span. Merged spans stream through the
   parent tracer's latency digests, metrics registry and subscribers, so
   worker-side ops are digested and metered exactly once, in the parent,
   and the live watchdog sees them too.

The payload carries one record type, spans, as a plain dict of JSON types,
so the same schema travels over pickle (process pools) and inside the
store ledger's JSON trial outcomes (store workers, local or on other
hosts). Either way it comes back in the trial's outcome, and the parent
merges it once, under that trial's ``trial:<id>`` span. Merge
accounting is self-observable: ``repro_fabric_merged_spans_total`` /
``repro_fabric_merge_dropped_total``.
"""

from __future__ import annotations

import os
from typing import Any, Mapping, Optional

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


def activate_worker(runner_id: str) -> str:
    """Install worker-local telemetry; idempotent per (process, runner id).

    ``runner_id`` is the identity stamped onto every span merged back into
    the parent: the process-pool initializer passes ``<runner_name>/w<pid>``,
    a store worker passes its ledger ``runner_id`` (the ``completed_by`` of
    the trials it finishes), so a trace joins the ledger by that id.

    Re-activation resets stale state: a pool-worker process reused (or
    forked) by a *second* pool with a different runner name — or a child
    that inherited an activated parent's globals across ``fork`` — would
    otherwise keep the first activation's ``runner_id`` and mis-attribute
    every span it ships. When the id or pid differs from the recorded
    activation, a fresh tracer is installed (dropping anything the previous
    identity had buffered).
    """
    global _runner_id, _activated_pid
    pid = os.getpid()
    if _runner_id == runner_id and _activated_pid == pid:
        return _runner_id
    # First activation, a new identity, or a forked inheritance: telemetry
    # buffered under the old identity must not leak into the new one.
    set_tracer(RecordingTracer())
    _runner_id = runner_id
    _activated_pid = pid
    return _runner_id


def worker_active() -> bool:
    """Whether this process is an activated fabric worker."""
    return _runner_id is not None


def worker_runner_id() -> Optional[str]:
    return _runner_id


def drain_worker() -> Optional[dict[str, Any]]:
    """Serialize-and-reset this worker's spans into one payload.

    Returns ``None`` outside an activated worker. Each drain carries only
    the spans finished since the previous one, so per-trial payloads never
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
    return payload


def merge_payload(
    payload: Mapping[str, Any],
    *,
    tracer: Any = None,
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
    registry = tracer.metrics
    if registry is not None:
        registry.counter(
            "repro_fabric_merged_spans_total",
            "worker spans merged into the parent tracer",
        ).inc(merged)
        registry.counter(
            "repro_fabric_merge_dropped_total",
            "malformed fabric entries dropped during merge",
        ).inc(dropped)
    return merged
