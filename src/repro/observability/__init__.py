"""End-to-end observability for the optimization cycle.

Three pillars, all zero-cost when disabled (the defaults are a no-op tracer
and a null metrics registry):

- :mod:`repro.observability.trace` — nested spans with wall *and* simulated
  clocks, covering every phase of the cycle (deploy → execute → optimize →
  reconfigure), every trial (suggest / execute / tell), the DES event loop
  and the engine's thread pools;
- :mod:`repro.observability.metrics` — a counters/gauges/histograms registry
  with JSON(L) and Prometheus-text exporters;
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
  process-pool workers record spans/metrics locally and the parent merges
  them back with ``runner_id``/``pid`` attribution (digesting the worker
  spans there, once);
- :mod:`repro.observability.perf` — perf baselines and the regression gate
  (``python -m repro perf record|diff``);
- :mod:`repro.observability.live` — the live telemetry plane: an embedded
  HTTP monitor (``optimize --serve``) exposing Prometheus ``/metrics``, a
  ``/status`` campaign document, an SSE ``/events`` stream, the live
  dashboard, and token-gated ``POST /telemetry`` ingest for remote workers
  (``python -m repro worker --push-telemetry``).

``python -m repro report <run-dir>`` renders the exported artifacts
(:mod:`repro.observability.report`).

Typical use::

    from repro import observability as obs

    tracer, registry = obs.enable()
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
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullRegistry,
    get_registry,
    set_registry,
)
# after dashboard/watchdog/fabric: live builds on all three.
from repro.observability.live import (
    LiveMonitor,
    StatusBoard,
    TelemetryPusher,
    fetch_status,
    get_status_board,
    parse_serve_spec,
    set_status_board,
    stream_events,
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
    get_watchdog,
    load_alerts,
    set_watchdog,
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
    "NullRegistry",
    "get_registry",
    "set_registry",
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
    "get_watchdog",
    "set_watchdog",
    "load_alerts",
    "LatencyDigest",
    "PerfRecorder",
    "PERF_PROFILE_FILE",
    "activate_worker",
    "drain_worker",
    "merge_payload",
    "worker_active",
    "LiveMonitor",
    "StatusBoard",
    "TelemetryPusher",
    "get_status_board",
    "set_status_board",
    "parse_serve_spec",
    "fetch_status",
    "stream_events",
    "render_report_json",
    "enable",
    "disable",
    "export",
]


def enable() -> tuple[RecordingTracer, MetricsRegistry]:
    """Install a recording tracer + live registry globally; returns both.

    The tracer's latency digests (``tracer.perf``) accumulate from its
    spans, so every hot-path op is digested as it finishes.
    """
    tracer = RecordingTracer()
    registry = MetricsRegistry()
    set_tracer(tracer)
    set_registry(registry)
    return tracer, registry


def disable() -> None:
    """Restore the inert defaults (no-op tracer, null registry)."""
    set_tracer(None)
    set_registry(None)


def export(run_dir: str | Path) -> list[Path]:
    """Write the global tracer/registry artifacts into ``run_dir``.

    Only enabled components export; returns the paths written.
    """
    run_dir = Path(run_dir)
    written: list[Path] = []
    tracer = get_tracer()
    if isinstance(tracer, RecordingTracer):
        written.append(tracer.export_jsonl(run_dir / "spans.jsonl"))
        spans = tracer.finished()
        if spans:
            from repro.observability.analysis import TRACE_EVENTS_FILE
            from repro.observability.dashboard import TIMELINE_FILE

            written.append(write_trace_events(spans, run_dir / TRACE_EVENTS_FILE))
            watchdog = get_watchdog()
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
    watchdog = get_watchdog()
    if watchdog is not None:
        from repro.observability.watchdog import ALERTS_FILE

        written.append(watchdog.export_jsonl(run_dir / ALERTS_FILE))
    registry = get_registry()
    perf = tracer.perf
    if registry.enabled:
        if isinstance(tracer, RecordingTracer):
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
        prom_text = registry.render_prometheus()
        if perf is not None:
            prom_text = prom_text + perf.render_prometheus()
        prom_path = run_dir / "metrics.prom"
        prom_path.parent.mkdir(parents=True, exist_ok=True)
        prom_path.write_text(prom_text)
        written.append(prom_path)
    if perf is not None:
        written.append(perf.export_json(run_dir / PERF_PROFILE_FILE))
    return written
