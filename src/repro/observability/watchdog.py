"""A live anomaly watchdog over the span stream and its derived metrics.

While a campaign runs, the :class:`CampaignWatchdog` subscribes to the
recording tracer's finished-span stream (``RecordingTracer.subscribe``) and
raises structured, rate-limited :class:`Alert` records for:

- **straggler trials** — an ``execute`` span whose duration sits beyond a
  robust z-score (median/MAD) of the running duration baseline;
- **objective stall** — no incumbent improvement for ``stall_patience``
  completed trials;
- **objective regression** — a completed trial scoring far worse than the
  running median objective;
- **pool saturation** — an engine pool span reporting occupancy at or above
  the configured threshold;
- **fault storms** — too many failed evaluations inside a sliding window
  (fed both by error spans and the ``repro_faults_injected_total`` counter
  the attached tracer derives from its ``fault`` spans).

Alerts are deduplicated per subject and capped per kind, folded into the
Phase III summary, exported as ``alerts.jsonl``, and persisted inside
``checkpoint.json`` so ``optimize --resume`` neither re-fires old alerts nor
forgets them. Duration/objective baselines are *not* persisted — they are
re-seeded from the replayed trial records (:meth:`seed_from_trials`), which
keeps the checkpoint small and the baselines consistent with what the
searcher itself replays.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Any, Iterable, Mapping

from repro.errors import ValidationError
from repro.observability.digest import quantile_of
from repro.observability.metrics import faults_injected
from repro.observability.trace import SCALAR_METRIC

__all__ = [
    "WatchdogConfig",
    "Alert",
    "CampaignWatchdog",
    "load_alerts",
    "ALERTS_FILE",
]

#: artifact name of the alert log inside a run directory.
ALERTS_FILE = "alerts.jsonl"

#: every alert kind the watchdog can raise.
ALERT_KINDS = ("straggler", "stall", "regression", "saturation", "fault_storm", "tail")


@dataclass
class WatchdogConfig:
    """Thresholds for the live watchdog (the ``optimizer_conf.watchdog`` block)."""

    #: robust z-score (0.6745·(d−median)/MAD) above which a trial straggles.
    straggler_zscore: float = 3.5
    #: baseline durations required before straggler detection arms.
    straggler_min_trials: int = 4
    #: completed trials without incumbent improvement before a stall alert.
    stall_patience: int = 8
    #: robust z-score of a trial's objective vs the running median that
    #: flags a regression (direction-aware: only worse-than-median fires).
    regression_zscore: float = 4.0
    #: pool occupancy fraction at or above which a saturation alert fires.
    saturation_threshold: float = 0.95
    #: sliding window (wall seconds) for fault-storm detection.
    fault_storm_window_s: float = 30.0
    #: failed evaluations inside the window that constitute a storm.
    fault_storm_count: int = 3
    #: hard cap on emitted alerts per kind (the rate limiter).
    max_alerts_per_kind: int = 5
    #: metric attribute consulted for stall/regression (the runner's metric).
    metric: str = SCALAR_METRIC
    #: optimization direction of ``metric`` ("min" or "max").
    mode: str = "min"
    #: percentile-based tail rule: fire when an execute span exceeds
    #: ``tail_factor`` × the running ``tail_quantile`` duration. Disabled by
    #: default (``tail_factor=0``) — the z-score straggler rule is cheaper
    #: and the quantile rule is opt-in for long campaigns.
    tail_quantile: float = 0.99
    tail_factor: float = 0.0

    def __post_init__(self) -> None:
        if self.straggler_zscore <= 0:
            raise ValidationError("watchdog.straggler_zscore must be > 0")
        if self.straggler_min_trials < 2:
            raise ValidationError("watchdog.straggler_min_trials must be >= 2")
        if self.stall_patience < 1:
            raise ValidationError("watchdog.stall_patience must be >= 1")
        if self.regression_zscore <= 0:
            raise ValidationError("watchdog.regression_zscore must be > 0")
        if not 0 < self.saturation_threshold <= 1:
            raise ValidationError("watchdog.saturation_threshold must be in (0, 1]")
        if self.fault_storm_window_s <= 0:
            raise ValidationError("watchdog.fault_storm_window_s must be > 0")
        if self.fault_storm_count < 1:
            raise ValidationError("watchdog.fault_storm_count must be >= 1")
        if self.max_alerts_per_kind < 1:
            raise ValidationError("watchdog.max_alerts_per_kind must be >= 1")
        if self.mode not in ("min", "max"):
            raise ValidationError("watchdog.mode must be 'min' or 'max'")
        if not 0 < self.tail_quantile < 1:
            raise ValidationError("watchdog.tail_quantile must be in (0, 1)")
        if self.tail_factor < 0:
            raise ValidationError("watchdog.tail_factor must be >= 0")

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "WatchdogConfig":
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValidationError(f"unknown watchdog keys: {sorted(unknown)}")
        return cls(**dict(data))

    def to_dict(self) -> dict[str, Any]:
        return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass
class Alert:
    """One structured watchdog finding."""

    kind: str
    severity: str  # "warning" | "critical"
    message: str
    time_s: float = 0.0
    details: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        return {
            "kind": self.kind,
            "severity": self.severity,
            "message": self.message,
            "time_s": self.time_s,
            "details": dict(self.details),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Alert":
        return cls(
            kind=str(data["kind"]),
            severity=str(data.get("severity", "warning")),
            message=str(data.get("message", "")),
            time_s=float(data.get("time_s", 0.0)),
            details=dict(data.get("details", {})),
        )


class CampaignWatchdog:
    """Consumes the live span stream; raises rate-limited alerts."""

    def __init__(self, config: WatchdogConfig | None = None) -> None:
        self.config = config or WatchdogConfig()
        self._lock = threading.Lock()
        self._alerts: list[Alert] = []
        self._fired: set[str] = set()
        self._counts: dict[str, int] = {}
        self._suppressed = 0
        self._durations: list[float] = []
        self._objectives: list[float] = []
        self._best = math.inf
        self._since_improve = 0
        self._stall_active = False
        self._fault_times: list[float] = []
        self._fault_total_seen = 0.0
        self._tracer: Any = None
        #: live alert consumers (the SSE fan-out); invoked outside the lock.
        self._subscribers: list[Any] = []
        self._subscriber_errors = 0

    # -- lifecycle ---------------------------------------------------------------

    def attach(self, tracer: Any) -> None:
        """Subscribe to a tracer's finished-span stream (as ``tracer.watchdog``)."""
        if getattr(tracer, "enabled", False):
            tracer.subscribe(self.on_span)
            tracer.watchdog = self
            self._tracer = tracer

    def detach(self) -> None:
        if self._tracer is not None:
            self._tracer.unsubscribe(self.on_span)
            if self._tracer.watchdog is self:
                self._tracer.watchdog = None
            self._tracer = None

    # -- the span stream -----------------------------------------------------------

    def on_span(self, span: Any) -> None:
        name = getattr(span, "name", "")
        if name == "execute":
            self._on_execute(span)
        elif name.startswith("trial:"):
            self._on_trial(span)
        elif name.startswith("pool:"):
            self._on_pool(span)

    def _on_execute(self, span: Any) -> None:
        duration = span.duration_s
        trial_id = span.attributes.get("trial_id", "?")
        when = span.end_s or 0.0
        with self._lock:
            baseline = list(self._durations)
            self._durations.append(float(duration))
        tail_threshold = None
        if self.config.tail_factor > 0 and len(baseline) >= self.config.straggler_min_trials:
            tail_threshold = self.config.tail_factor * quantile_of(
                sorted(baseline), self.config.tail_quantile
            )
        if span.status != "ok":
            self._record_fault(when, trial_id, span.error)
            return
        if tail_threshold is not None and tail_threshold > 0 and duration >= tail_threshold:
            self._emit(
                "tail",
                "warning",
                f"trial {trial_id} took {duration:.3f}s, beyond "
                f"{self.config.tail_factor:g}× the running "
                f"p{self.config.tail_quantile * 100:g} ({tail_threshold:.3f}s)",
                key=f"tail:{trial_id}",
                time_s=when,
                details={
                    "trial_id": trial_id,
                    "duration_s": float(duration),
                    "threshold_s": float(tail_threshold),
                    "quantile": self.config.tail_quantile,
                },
            )
        if len(baseline) < self.config.straggler_min_trials:
            return
        z = _robust_zscore(duration, baseline)
        if z >= self.config.straggler_zscore:
            median = _median(baseline)
            self._emit(
                "straggler",
                "warning",
                f"trial {trial_id} took {duration:.3f}s "
                f"({z:.1f} robust z-scores above the running median {median:.3f}s)",
                key=f"straggler:{trial_id}",
                time_s=when,
                details={
                    "trial_id": trial_id,
                    "duration_s": float(duration),
                    "median_s": median,
                    "zscore": z,
                },
            )

    def _on_trial(self, span: Any) -> None:
        when = span.end_s or 0.0
        value = span.attributes.get(self.config.metric)
        if isinstance(value, (int, float)) and value == value:
            self._observe_objective(float(value), str(span.attributes.get("trial_id", "?")), when)
        self.poll(time_s=when)

    def _observe_objective(self, value: float, trial_id: str, when: float) -> None:
        sign = 1.0 if self.config.mode == "min" else -1.0
        scored = sign * value  # lower is always better internally
        with self._lock:
            baseline = list(self._objectives)
            self._objectives.append(scored)
            improved = scored < self._best
            if improved:
                self._best = scored
                self._since_improve = 0
                self._stall_active = False
            else:
                self._since_improve += 1
            since = self._since_improve
            stall_pending = not self._stall_active and since >= self.config.stall_patience
            if stall_pending:
                self._stall_active = True
        if stall_pending:
            self._emit(
                "stall",
                "warning",
                f"objective has not improved for {since} trials "
                f"(incumbent {self.config.metric}={self._best_value():.6g})",
                key=f"stall:{len(baseline) + 1}",
                time_s=when,
                details={"since_improve": since, "incumbent": self._best_value()},
            )
        if len(baseline) >= self.config.straggler_min_trials:
            z = _robust_zscore(scored, baseline)
            if z >= self.config.regression_zscore:
                self._emit(
                    "regression",
                    "warning",
                    f"trial {trial_id} scored {self.config.metric}={value:.6g}, "
                    f"{z:.1f} robust z-scores worse than the running median",
                    key=f"regression:{trial_id}",
                    time_s=when,
                    details={"trial_id": trial_id, "value": value, "zscore": z},
                )

    def _best_value(self) -> float:
        sign = 1.0 if self.config.mode == "min" else -1.0
        return sign * self._best if math.isfinite(self._best) else math.nan

    def _on_pool(self, span: Any) -> None:
        occupancy = span.attributes.get("occupancy")
        if not isinstance(occupancy, (int, float)):
            return
        if occupancy >= self.config.saturation_threshold:
            pool = span.name.split(":", 1)[1]
            self._emit(
                "saturation",
                "warning",
                f"pool {pool!r} ran at {occupancy:.0%} occupancy "
                f"(threshold {self.config.saturation_threshold:.0%})",
                key=f"saturation:{pool}",
                time_s=span.end_s or 0.0,
                details={"pool": pool, "occupancy": float(occupancy)},
            )

    def _record_fault(self, when: float, trial_id: Any, error: Any) -> None:
        window = self.config.fault_storm_window_s
        with self._lock:
            self._fault_times.append(when)
            self._fault_times = [t for t in self._fault_times if t >= when - window]
            count = len(self._fault_times)
        if count >= self.config.fault_storm_count:
            self._emit(
                "fault_storm",
                "critical",
                f"{count} failed evaluations inside {window:.0f}s "
                f"(latest: trial {trial_id}: {error})",
                key=f"fault_storm:{math.floor(when / window)}",
                time_s=when,
                details={"count": count, "window_s": window},
            )

    # -- the attached tracer's metrics ------------------------------------------------

    def poll(self, *, time_s: float = 0.0) -> None:
        """Check metric-side signals (called live on every trial span).

        Reads the metrics of the tracer this watchdog is attached to; a
        detached watchdog has nothing to poll.
        """
        registry = getattr(self._tracer, "metrics", None)
        if registry is None:
            return
        counter = faults_injected(registry)
        per_kind = {labels.get("kind", "?"): value for labels, value in counter.series()}
        total = sum(per_kind.values())
        with self._lock:
            fresh = total - self._fault_total_seen
            self._fault_total_seen = max(self._fault_total_seen, total)
        if fresh >= self.config.fault_storm_count:
            self._emit(
                "fault_storm",
                "critical",
                f"{int(fresh)} faults injected since the last poll "
                f"({', '.join(f'{k}={int(v)}' for k, v in sorted(per_kind.items()))})",
                key="fault_storm:injected",
                time_s=time_s,
                details={"injected": per_kind, "fresh": fresh},
            )

    # -- alert bookkeeping ---------------------------------------------------------

    def _emit(
        self,
        kind: str,
        severity: str,
        message: str,
        *,
        key: str,
        time_s: float,
        details: dict[str, Any],
    ) -> None:
        with self._lock:
            if key in self._fired:
                return
            if self._counts.get(kind, 0) >= self.config.max_alerts_per_kind:
                self._fired.add(key)
                self._suppressed += 1
                return
            self._fired.add(key)
            self._counts[kind] = self._counts.get(kind, 0) + 1
            alert = Alert(
                kind=kind, severity=severity, message=message, time_s=time_s, details=details
            )
            self._alerts.append(alert)
            subscribers = list(self._subscribers) if self._subscribers else None
        # Callbacks run outside the lock: a subscriber reading back into the
        # watchdog (or fanning out to SSE queues) must not deadlock _emit.
        if subscribers is not None:
            for callback in subscribers:
                try:
                    callback(alert)
                except Exception:
                    with self._lock:
                        self._subscriber_errors += 1

    def subscribe(self, callback: Any) -> None:
        """Stream every *accepted* alert to ``callback`` as it fires."""
        with self._lock:
            if callback not in self._subscribers:
                self._subscribers.append(callback)

    def unsubscribe(self, callback: Any) -> None:
        with self._lock:
            if callback in self._subscribers:
                self._subscribers.remove(callback)

    def alerts(self) -> list[Alert]:
        with self._lock:
            return list(self._alerts)

    @property
    def suppressed(self) -> int:
        """Alerts dropped by the per-kind rate limit."""
        with self._lock:
            return self._suppressed

    def summary(self) -> dict[str, Any]:
        """Alert rollup folded into the Phase III summary."""
        with self._lock:
            return {
                "total": len(self._alerts),
                "by_kind": dict(sorted(self._counts.items())),
                "suppressed": self._suppressed,
                "alerts": [a.to_dict() for a in self._alerts],
            }

    def export_jsonl(self, path: str | Path) -> Path:
        """One alert per line (the ``alerts.jsonl`` run artifact)."""
        import json

        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        lines = [json.dumps(a.to_dict()) for a in self.alerts()]
        path.write_text("\n".join(lines) + ("\n" if lines else ""))
        return path

    # -- checkpoint / resume ---------------------------------------------------------

    def state_dict(self) -> dict[str, Any]:
        """Control state persisted inside ``checkpoint.json``.

        Baselines are deliberately excluded: on resume they are re-derived
        from the replayed trial records via :meth:`seed_from_trials`.
        """
        with self._lock:
            return {
                "fired": sorted(self._fired),
                "counts": dict(self._counts),
                "suppressed": self._suppressed,
                "stall_active": self._stall_active,
                "alerts": [a.to_dict() for a in self._alerts],
            }

    def load_state(self, state: Mapping[str, Any] | None) -> None:
        if not state:
            return
        with self._lock:
            self._fired = set(state.get("fired", ()))
            self._counts = {str(k): int(v) for k, v in dict(state.get("counts", {})).items()}
            self._suppressed = int(state.get("suppressed", 0))
            self._stall_active = bool(state.get("stall_active", False))
            self._alerts = [Alert.from_dict(a) for a in state.get("alerts", ())]

    def seed_from_trials(self, records: Iterable[Mapping[str, Any]]) -> int:
        """Rebuild straggler/objective baselines from replayed trial records.

        Called on ``--resume`` with the checkpointed trial dicts; updates the
        duration and objective baselines (and the incumbent) without firing
        any alert, so detection resumes exactly where the crashed campaign
        left off. Returns the number of records absorbed.
        """
        absorbed = 0
        sign = 1.0 if self.config.mode == "min" else -1.0
        with self._lock:
            for record in records:
                cost = record.get("cost") or {}
                duration = cost.get("evaluate_s")
                if isinstance(duration, (int, float)) and math.isfinite(duration):
                    self._durations.append(float(duration))
                result = record.get("result") or {}
                value = result.get(self.config.metric)
                if isinstance(value, (int, float)) and value == value:
                    scored = sign * float(value)
                    self._objectives.append(scored)
                    if scored < self._best:
                        self._best = scored
                        self._since_improve = 0
                    else:
                        self._since_improve += 1
                absorbed += 1
        return absorbed


def _median(values: list[float]) -> float:
    ordered = sorted(values)
    n = len(ordered)
    mid = n // 2
    return ordered[mid] if n % 2 else 0.5 * (ordered[mid - 1] + ordered[mid])


def _robust_zscore(value: float, baseline: list[float]) -> float:
    """0.6745·(value − median)/MAD, with a floored MAD for flat baselines."""
    median = _median(baseline)
    mad = _median([abs(v - median) for v in baseline])
    # A perfectly flat baseline would make any deviation infinitely
    # significant; floor the scale at 5% of the median (or an epsilon).
    scale = max(mad, 0.05 * abs(median), 1e-9)
    return 0.6745 * (value - median) / scale


def load_alerts(path: str | Path) -> list[Alert]:
    """Read back an ``alerts.jsonl`` artifact."""
    import json

    out = []
    file = Path(path)
    if not file.exists():
        return out
    for line in file.read_text().splitlines():
        line = line.strip()
        if line:
            out.append(Alert.from_dict(json.loads(line)))
    return out
