"""End-to-end observability for the optimization cycle.

Spans are the only telemetry record; everything else is derived from them.
All of it is zero-cost when disabled (the default is a no-op tracer, which
carries no registry and no digests):

- :mod:`repro.observability.trace` — nested spans with wall *and* simulated
  clocks, covering every phase of the cycle (deploy → execute → optimize →
  reconfigure), every trial (suggest / execute / tell), the DES event loop
  and the engine's thread pools;
- :mod:`repro.observability.metrics` — a counters/gauges/histograms registry
  with JSON and Prometheus-text exporters, derived from the spans: the
  recording tracer feeds each finished span through one span → metric
  table (``SPAN_METRICS``) into ``tracer.metrics``;
- :mod:`repro.observability.profile` — per-trial cost attribution (surrogate
  fit vs. acquisition vs. evaluation) folded into the Phase III summary;
- :mod:`repro.observability.analysis` — campaign analytics derived from the
  spans: per-slot utilization timelines, Chrome ``trace_event`` export, and
  critical-path latency attribution;
- :mod:`repro.observability.watchdog` — a live anomaly watchdog on the span
  stream (stragglers, objective stalls/regressions, pool saturation, fault
  storms) emitting rate-limited structured alerts;
- :mod:`repro.observability.dashboard` — a self-contained HTML timeline
  (``python -m repro dashboard <run-dir>``), no external assets;
- :mod:`repro.observability.digest` — mergeable latency digests on every
  hot-path op (suggest/tell/evaluate/queue-wait/deploy/cache/DES), derived
  from the spans: the recording tracer feeds each finished span through
  one span-name → op table into ``tracer.perf``, exported as
  ``perf_profile.json`` plus Prometheus summary series;
- :mod:`repro.observability.fabric` — the cross-process telemetry fabric:
  process-pool and store workers record spans locally, ship them in each
  trial's outcome, and the parent merges them under the trial span with
  ``runner_id``/``pid`` attribution (deriving digests and metrics from the
  worker spans there, once); payloads carry spans only;
- :mod:`repro.observability.perf` — perf baselines and the regression gate
  (``python -m repro perf record|diff``);
- :mod:`repro.observability.live` — the live telemetry plane: an embedded
  HTTP monitor (``optimize --serve``) exposing Prometheus ``/metrics``, a
  ``/status`` campaign document derived from the span stream, an SSE
  ``/events`` stream and the live dashboard; it is read-only. It pulls in
  ``http.server`` and ``urllib``, so it is imported from its module, only
  by code that serves or reads a monitor, and is not re-exported here.

The process-global tracer is the only telemetry slot: its
digests (``tracer.perf``), metrics (``tracer.metrics``) and attached
watchdog (``tracer.watchdog``) hang off it.

``python -m repro report <run-dir>`` renders the exported artifacts
(:mod:`repro.observability.report`).

Typical use::

    from repro import observability as obs

    tracer = obs.enable()
    ... run an OptimizationManager campaign ...
    obs.export(run_dir)       # spans.jsonl + metrics + perf + timeline + alerts
    obs.disable()
"""

from __future__ import annotations

from pathlib import Path

from repro.observability.analysis import (
    CampaignAnalysis,
    CriticalPath,
    TrialBreakdown,
    analyze_run,
    analyze_spans,
    compute_critical_path,
    to_trace_events,
    trial_breakdowns,
    write_trace_events,
)
from repro.observability.dashboard import render_dashboard, write_dashboard
from repro.observability.digest import PERF_PROFILE_FILE, LatencyDigest, PerfRecorder
from repro.observability.fabric import (
    activate_worker,
    drain_worker,
    merge_payload,
    worker_active,
)
from repro.observability.metrics import (
    SPAN_METRICS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.observability.profile import COST_COMPONENTS, CostBreakdown, aggregate_costs
from repro.observability.report import (
    RunArtifacts,
    load_run,
    render_report,
    render_report_json,
)
from repro.observability.trace import (
    NoopTracer,
    RecordingTracer,
    Span,
    Tracer,
    get_tracer,
    load_spans,
    set_tracer,
    tracing,
)
from repro.observability.watchdog import (
    Alert,
    CampaignWatchdog,
    WatchdogConfig,
    load_alerts,
)

__all__ = [
    "Span",
    "Tracer",
    "NoopTracer",
    "RecordingTracer",
    "get_tracer",
    "set_tracer",
    "tracing",
    "load_spans",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "SPAN_METRICS",
    "CostBreakdown",
    "aggregate_costs",
    "COST_COMPONENTS",
    "RunArtifacts",
    "load_run",
    "render_report",
    "CampaignAnalysis",
    "CriticalPath",
    "TrialBreakdown",
    "analyze_run",
    "analyze_spans",
    "compute_critical_path",
    "trial_breakdowns",
    "to_trace_events",
    "write_trace_events",
    "render_dashboard",
    "write_dashboard",
    "Alert",
    "CampaignWatchdog",
    "WatchdogConfig",
    "load_alerts",
    "LatencyDigest",
    "PerfRecorder",
    "PERF_PROFILE_FILE",
    "activate_worker",
    "drain_worker",
    "merge_payload",
    "worker_active",
    "render_report_json",
    "enable",
    "disable",
    "export",
]


def enable() -> RecordingTracer:
    """Install a recording tracer globally and return it.

    The tracer's latency digests (``tracer.perf``) and metrics registry
    (``tracer.metrics``) accumulate from its spans, so every hot-path op is
    digested and metered as it finishes.
    """
    tracer = RecordingTracer()
    set_tracer(tracer)
    return tracer


def disable() -> None:
    """Restore the inert default (the no-op tracer)."""
    set_tracer(None)


def export(run_dir: str | Path) -> list[Path]:
    """Write the global tracer's artifacts into ``run_dir``.

    Only a recording tracer exports spans, metrics and digests; returns the
    paths written.
    """
    run_dir = Path(run_dir)
    written: list[Path] = []
    tracer = get_tracer()
    watchdog = tracer.watchdog
    if isinstance(tracer, RecordingTracer):
        written.append(tracer.export_jsonl(run_dir / "spans.jsonl"))
        spans = tracer.finished()
        if spans:
            from repro.observability.analysis import TRACE_EVENTS_FILE
            from repro.observability.dashboard import TIMELINE_FILE

            written.append(write_trace_events(spans, run_dir / TRACE_EVENTS_FILE))
            alerts = (
                [alert.to_dict() for alert in watchdog.alerts()]
                if watchdog is not None
                else []
            )
            written.append(
                write_dashboard(
                    analyze_spans(spans),
                    run_dir / TIMELINE_FILE,
                    title=run_dir.name,
                    alerts=alerts,
                    perf=tracer.perf.to_dict(),
                )
            )
    if watchdog is not None:
        from repro.observability.watchdog import ALERTS_FILE

        written.append(watchdog.export_jsonl(run_dir / ALERTS_FILE))
    if isinstance(tracer, RecordingTracer):
        registry = tracer.metrics
        # Self-metrics as gauges: export() may run more than once per
        # campaign, and a gauge set is idempotent where a counter
        # increment would double-count.
        registry.gauge(
            "repro_tracer_spans_recorded", "spans finished by the tracer"
        ).set(tracer.spans_recorded)
        registry.gauge(
            "repro_tracer_subscriber_errors",
            "span-subscriber callbacks that raised",
        ).set(tracer.subscriber_errors)
        written.append(registry.export_json(run_dir / "metrics.json"))
        prom_path = run_dir / "metrics.prom"
        prom_path.parent.mkdir(parents=True, exist_ok=True)
        prom_path.write_text(registry.render_prometheus() + tracer.perf.render_prometheus())
        written.append(prom_path)
        written.append(tracer.perf.export_json(run_dir / PERF_PROFILE_FILE))
    return written
