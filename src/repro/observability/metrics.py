"""A metrics registry: counters, gauges and histograms with labels, derived
from the span stream.

Spans are the only telemetry record hot paths emit. Every
:class:`~repro.observability.trace.RecordingTracer` owns one
:class:`MetricsRegistry` (``tracer.metrics``) and feeds it each finished
span — its own and those ingested from worker processes — through one
table, :data:`SPAN_METRICS`, beside the digest table
:data:`repro.observability.digest.SPAN_OPS`. Worker spans are therefore
turned into metrics exactly once, in the parent, and fabric payloads carry
spans only. The registry exports to two formats:

- **JSON** (:meth:`MetricsRegistry.to_dict` / :meth:`export_json`) — the
  replayable run artifact consumed by ``python -m repro report``;
- **Prometheus text exposition** (:meth:`render_prometheus`) — so a run can
  be scraped or diffed with standard tooling.

With tracing off there is no registry at all (``NoopTracer.metrics`` is
``None``), so instrumented code does no metrics work.
"""

from __future__ import annotations

import json
import math
import threading
from pathlib import Path
from typing import Any, Callable, Sequence

from repro.errors import ValidationError

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "SPAN_METRICS",
]

LabelValues = tuple[str, ...]

#: default histogram buckets (seconds-oriented, log-ish spacing).
DEFAULT_BUCKETS = (0.005, 0.025, 0.1, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0, float("inf"))


def _label_key(labelnames: Sequence[str], labels: dict[str, Any]) -> LabelValues:
    if set(labels) != set(labelnames):
        raise ValidationError(
            f"labels {sorted(labels)} do not match declared {sorted(labelnames)}"
        )
    return tuple(str(labels[name]) for name in labelnames)


class _Instrument:
    """Base: one named metric family with a fixed label schema."""

    kind = "untyped"

    def __init__(self, name: str, help: str = "", labelnames: Sequence[str] = ()) -> None:
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)
        self._lock = threading.Lock()
        self._data: dict[LabelValues, Any] = {}

    def _series(self) -> list[tuple[LabelValues, Any]]:
        with self._lock:
            return sorted(self._data.items())

    def series(self) -> list[tuple[dict[str, str], Any]]:
        """Public ``(labels, value)`` pairs; histogram values are snapshots."""
        return [
            (dict(zip(self.labelnames, key)), self._value_repr(value))
            for key, value in self._series()
        ]

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "kind": self.kind,
            "help": self.help,
            "labelnames": list(self.labelnames),
            "series": [
                {"labels": dict(zip(self.labelnames, key)), "value": self._value_repr(value)}
                for key, value in self._series()
            ],
        }

    def _value_repr(self, value: Any) -> Any:
        return value


class Counter(_Instrument):
    """Monotonically increasing count (events processed, trials run, ...)."""

    kind = "counter"

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        if amount < 0:
            raise ValidationError(f"counter {self.name!r} cannot decrease (got {amount})")
        key = _label_key(self.labelnames, labels)
        with self._lock:
            self._data[key] = self._data.get(key, 0.0) + float(amount)

    def value(self, **labels: Any) -> float:
        key = _label_key(self.labelnames, labels)
        with self._lock:
            return float(self._data.get(key, 0.0))


class Gauge(_Instrument):
    """A value that goes up and down (queue depth, pool occupancy, ...)."""

    kind = "gauge"

    def set(self, value: float, **labels: Any) -> None:
        key = _label_key(self.labelnames, labels)
        with self._lock:
            self._data[key] = float(value)

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        key = _label_key(self.labelnames, labels)
        with self._lock:
            self._data[key] = self._data.get(key, 0.0) + float(amount)

    def dec(self, amount: float = 1.0, **labels: Any) -> None:
        self.inc(-amount, **labels)

    def value(self, **labels: Any) -> float:
        key = _label_key(self.labelnames, labels)
        with self._lock:
            return float(self._data.get(key, math.nan))


class _HistogramState:
    __slots__ = ("counts", "sum", "count")

    def __init__(self, n_buckets: int) -> None:
        self.counts = [0] * n_buckets
        self.sum = 0.0
        self.count = 0


class Histogram(_Instrument):
    """Distribution of observations in fixed buckets (latencies, waits)."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] | None = None,
    ) -> None:
        super().__init__(name, help, labelnames)
        edges = tuple(sorted(buckets)) if buckets else DEFAULT_BUCKETS
        if edges[-1] != float("inf"):
            edges = edges + (float("inf"),)
        self.buckets = edges

    def observe(self, value: float, **labels: Any) -> None:
        key = _label_key(self.labelnames, labels)
        with self._lock:
            state = self._data.get(key)
            if state is None:
                state = self._data[key] = _HistogramState(len(self.buckets))
            for i, edge in enumerate(self.buckets):
                if value <= edge:
                    state.counts[i] += 1
                    break
            state.sum += float(value)
            state.count += 1

    def snapshot(self, **labels: Any) -> dict[str, Any]:
        """``{count, sum, mean, buckets}`` for one label combination."""
        key = _label_key(self.labelnames, labels)
        with self._lock:
            state = self._data.get(key)
            if state is None:
                return {"count": 0, "sum": 0.0, "mean": math.nan, "buckets": {}}
            return self._snapshot_locked(state)

    def _series(self) -> list[tuple[LabelValues, Any]]:
        # Copy each state under the lock so exporters never read a bucket
        # list concurrently mutated by observe() on another thread.
        with self._lock:
            out: list[tuple[LabelValues, Any]] = []
            for key, state in sorted(self._data.items()):
                copy = _HistogramState(len(self.buckets))
                copy.counts = list(state.counts)
                copy.sum = state.sum
                copy.count = state.count
                out.append((key, copy))
            return out

    def _snapshot_locked(self, state: _HistogramState) -> dict[str, Any]:
        cumulative = 0
        buckets = {}
        for edge, n in zip(self.buckets, state.counts):
            cumulative += n
            buckets["+Inf" if edge == float("inf") else repr(edge)] = cumulative
        mean = state.sum / state.count if state.count else math.nan
        return {"count": state.count, "sum": state.sum, "mean": mean, "buckets": buckets}

    def _value_repr(self, value: _HistogramState) -> Any:
        return self._snapshot_locked(value)


class MetricsRegistry:
    """Named instruments, created once and shared by every publisher."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._instruments: dict[str, _Instrument] = {}

    def _get_or_create(self, cls: type, name: str, *args: Any, **kwargs: Any) -> Any:
        with self._lock:
            existing = self._instruments.get(name)
            if existing is not None:
                if not isinstance(existing, cls):
                    raise ValidationError(
                        f"metric {name!r} already registered as {existing.kind}"
                    )
                return existing
            instrument = cls(name, *args, **kwargs)
            self._instruments[name] = instrument
            return instrument

    def counter(self, name: str, help: str = "", labelnames: Sequence[str] = ()) -> Counter:
        return self._get_or_create(Counter, name, help, labelnames)

    def gauge(self, name: str, help: str = "", labelnames: Sequence[str] = ()) -> Gauge:
        return self._get_or_create(Gauge, name, help, labelnames)

    def histogram(
        self,
        name: str,
        help: str = "",
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] | None = None,
    ) -> Histogram:
        return self._get_or_create(Histogram, name, help, labelnames, buckets)

    def instruments(self) -> list[_Instrument]:
        with self._lock:
            return [self._instruments[name] for name in sorted(self._instruments)]

    def observe(self, span: Any) -> None:
        """Derive metrics from one finished span through :data:`SPAN_METRICS`."""
        name = span.name
        rule = SPAN_METRICS.get(name)
        if rule is None:
            family, colon, _ = name.partition(":")
            rule = SPAN_METRICS.get(family + colon) if colon else None
            if rule is None:
                return
        try:
            rule(span, self)
        except (KeyError, TypeError, ValueError):
            pass  # a span lacking what its rule reads derives nothing

    # -- export ----------------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        return {"metrics": [inst.to_dict() for inst in self.instruments()]}

    def export_json(self, path: str | Path) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.to_dict(), indent=2, default=str) + "\n")
        return path

    def render_prometheus(self) -> str:
        """Prometheus text exposition format (v0.0.4)."""
        lines: list[str] = []
        for inst in self.instruments():
            if inst.help:
                lines.append(f"# HELP {inst.name} {inst.help}")
            lines.append(f"# TYPE {inst.name} {inst.kind}")
            for key, value in inst._series():
                labels = dict(zip(inst.labelnames, key))
                if isinstance(inst, Histogram):
                    snap = inst._snapshot_locked(value)
                    for edge, cumulative in snap["buckets"].items():
                        lines.append(
                            f"{inst.name}_bucket{_fmt_labels({**labels, 'le': edge})}"
                            f" {cumulative}"
                        )
                    lines.append(f"{inst.name}_sum{_fmt_labels(labels)} {snap['sum']}")
                    lines.append(f"{inst.name}_count{_fmt_labels(labels)} {snap['count']}")
                else:
                    lines.append(f"{inst.name}{_fmt_labels(labels)} {value}")
        return "\n".join(lines) + ("\n" if lines else "")


def _fmt_labels(labels: dict[str, Any]) -> str:
    if not labels:
        return ""
    inner = ",".join(f'{k}="{v}"' for k, v in sorted(labels.items()))
    return "{" + inner + "}"


def _pool_metrics(span: Any, registry: MetricsRegistry) -> None:
    attributes = span.attributes
    pool = span.name.split(":", 1)[1]
    wait_mean_s = attributes["wait_mean_s"]
    registry.gauge(
        "engine_pool_busy", "mean fraction of pool threads occupied", ("pool",)
    ).set(attributes["occupancy"], pool=pool)
    registry.gauge(
        "engine_pool_wait_mean_s", "mean wait for a pool thread", ("pool",)
    ).set(wait_mean_s, pool=pool)
    registry.histogram(
        "engine_pool_wait_seconds", "distribution of waits for a pool thread", ("pool",)
    ).observe(wait_mean_s, pool=pool)
    registry.counter("engine_pool_grants_total", "pool thread grants", ("pool",)).inc(
        attributes["grants"], pool=pool
    )


def _engine_run_metrics(span: Any, registry: MetricsRegistry) -> None:
    attributes = span.attributes
    registry.counter(
        "engine_requests_completed_total", "requests served past warm-up"
    ).inc(attributes["completed_requests"])
    if "events_processed" not in attributes:
        return
    registry.counter("engine_loop_events_total", "DES events processed").inc(
        attributes["events_processed"]
    )
    registry.gauge(
        "engine_loop_sim_wall_ratio", "simulated-vs-wall speed of the last run"
    ).set(attributes["sim_wall_ratio"])
    registry.gauge(
        "engine_loop_max_queue_depth", "peak event-heap depth of the last run"
    ).set(attributes["max_queue_depth"])


def _hybrid_run_metrics(span: Any, registry: MetricsRegistry) -> None:
    attributes = span.attributes
    epochs = registry.counter(
        "hybrid_epochs_total", "hybrid epochs by execution mode", ("mode",)
    )
    epochs.inc(attributes["fluid_epochs"], mode="fluid")
    epochs.inc(attributes["des_epochs"], mode="des")
    registry.gauge(
        "hybrid_des_time_fraction", "fraction of simulated time run as DES"
    ).set(attributes["des_time_fraction"])
    registry.gauge(
        "hybrid_window_error_max", "worst fluid-vs-DES relative error"
    ).set(attributes["max_window_error"])
    bias = registry.gauge("hybrid_error_bias", "run-level fluid-model bias", ("metric",))
    bias.set(attributes["error_throughput_bias"], metric="throughput")
    bias.set(attributes["error_p95_bias"], metric="p95")
    registry.gauge("hybrid_error_bound", "configured relative error bound").set(
        attributes["error_bound"]
    )


def _trial_metrics(span: Any, registry: MetricsRegistry) -> None:
    attributes = span.attributes
    if attributes.get("retries"):
        registry.counter(
            "repro_trial_retries_total", "trial attempts retried after failure or timeout"
        ).inc(attributes["retries"])
    if attributes.get("timeouts"):
        registry.counter(
            "repro_trial_timeouts_total", "trial attempts that hit the per-trial timeout"
        ).inc(attributes["timeouts"])


def _evalcache_metrics(span: Any, registry: MetricsRegistry) -> None:
    registry.counter(
        "repro_eval_cache_lookups_total",
        "evaluation cache lookups by outcome",
        labelnames=("outcome",),
    ).inc(outcome=span.attributes["outcome"])


def _evaluation_metrics(span: Any, registry: MetricsRegistry) -> None:
    evaluation_s = span.attributes.get("evaluation_s")
    if evaluation_s is None:
        return  # the evaluation failed before it finished
    registry.counter("repro_evaluations_total", "model evaluations run").inc()
    registry.histogram(
        "repro_evaluation_seconds", "wall seconds per model evaluation"
    ).observe(evaluation_s)


def _validation_metrics(span: Any, registry: MetricsRegistry) -> None:
    if span.status == "ok":
        registry.counter(
            "repro_validation_runs_total", "repeat-validation runs of the best config"
        ).inc()


def faults_injected(registry: MetricsRegistry) -> Counter:
    """The injected-fault counter (also read by the watchdog's storm rule)."""
    return registry.counter(
        "repro_faults_injected_total",
        "faults injected into trial evaluations",
        labelnames=("kind",),
    )


def _fault_metrics(span: Any, registry: MetricsRegistry) -> None:
    faults_injected(registry).inc(kind=span.attributes["kind"])


#: span name (or ``family:`` prefix, for ``pool:http``, ``trial:3``,
#: ``validation:rep0``) -> the function deriving its metrics. The one place
#: where spans become registry metrics:
#:
#: =====================  ==================================================
#: span                   metrics
#: =====================  ==================================================
#: ``pool:<name>``        ``engine_pool_busy``, ``engine_pool_wait_mean_s``,
#:                        ``engine_pool_wait_seconds``,
#:                        ``engine_pool_grants_total`` (label ``pool``)
#: ``engine.run``         ``engine_requests_completed_total``,
#:                        ``engine_loop_events_total``,
#:                        ``engine_loop_sim_wall_ratio``,
#:                        ``engine_loop_max_queue_depth``
#: ``hybrid.run``         ``hybrid_epochs_total{mode}``,
#:                        ``hybrid_des_time_fraction``,
#:                        ``hybrid_window_error_max``,
#:                        ``hybrid_error_bias{metric}``, ``hybrid_error_bound``
#: ``trial:<id>``         ``repro_trial_retries_total``,
#:                        ``repro_trial_timeouts_total``
#: ``evalcache_lookup``   ``repro_eval_cache_lookups_total{outcome}``
#: ``cycle:reconfigure``  ``repro_evaluations_total``,
#:                        ``repro_evaluation_seconds`` (its ``evaluation_s``)
#: ``validation:rep<k>``  ``repro_validation_runs_total`` (ok spans only)
#: ``fault``              ``repro_faults_injected_total{kind}``
#: =====================  ==================================================
#:
#: Metrics that repeat no span are written to ``get_tracer().metrics``
#: directly, when it is not ``None``:
#:
#: - ``testbed_nodes_reserved{cluster}`` — a level held while a reservation
#:   is open (a process worker's level stays in the worker);
#: - ``repro_best_value`` — the incumbent, replayed trials included;
#: - ``repro_fabric_merged_spans_total`` / ``repro_fabric_merge_dropped_total``
#:   — the fabric's merge accounting;
#: - ``repro_tracer_spans_recorded`` / ``repro_tracer_subscriber_errors`` —
#:   the tracer's self-metrics, written at export;
#: - ``monitor_probe_value{probe}`` / ``monitor_samples_total`` — the
#:   :class:`~repro.monitoring.collector.MetricCollector` probes, unless an
#:   explicit ``registry=`` is passed.
SPAN_METRICS: dict[str, Callable[[Any, MetricsRegistry], None]] = {
    "pool:": _pool_metrics,
    "engine.run": _engine_run_metrics,
    "hybrid.run": _hybrid_run_metrics,
    "trial:": _trial_metrics,
    "evalcache_lookup": _evalcache_metrics,
    "cycle:reconfigure": _evaluation_metrics,
    "validation:": _validation_metrics,
    "fault": _fault_metrics,
}
