"""Campaign analytics: utilization timelines and critical-path attribution.

PR 1's tracer records *where time went*; this module turns those spans into
answers. Three views over one recorded campaign:

- **timelines** — per-executor-slot, per-pool and per-reservation activity
  derived from the span DAG (trial spans are greedily packed into lanes,
  which reconstructs the executor-slot occupancy without instrumenting the
  executor itself);
- **critical path** — a backward walk over the trial-segment intervals that
  attributes the campaign's wall-clock to suggest / queue-wait / deploy /
  evaluate / tell work and to idle gaps nothing was covering;
- **Chrome trace export** — the same spans as ``trace_event`` JSON, loadable
  in ``chrome://tracing`` / Perfetto (one complete ``"X"`` slice per span).

Everything here is post-hoc and pure: it reads spans (live from a
:class:`~repro.observability.trace.RecordingTracer` or replayed from
``spans.jsonl``) and never touches the process-global observability state.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Optional

from repro.observability.trace import SCALAR_METRIC, Span, load_spans

__all__ = [
    "TrialBreakdown",
    "CriticalPath",
    "CampaignAnalysis",
    "trial_breakdowns",
    "compute_critical_path",
    "pack_lanes",
    "analyze_spans",
    "analyze_run",
    "to_trace_events",
    "write_trace_events",
    "SEGMENTS",
    "TRACE_EVENTS_FILE",
]

#: artifact name of the Chrome trace export inside a run directory.
TRACE_EVENTS_FILE = "trace_events.json"

#: child-span name → the latency segment it accounts for.
SEGMENT_OF = {
    "suggest": "suggest",
    "queue-wait": "queue_wait",
    "cycle:deploy": "deploy",
    "deploy": "deploy",
    "execute": "evaluate",
    "tell": "tell",
}

#: segment keys in cycle order (used for stable rendering everywhere).
SEGMENTS = ("suggest", "queue_wait", "deploy", "evaluate", "tell")


@dataclass
class TrialBreakdown:
    """One trial's latency, attributed to its cycle segments."""

    trial_id: str
    start_s: float
    end_s: float
    status: str = "ok"
    objective: Optional[float] = None
    #: seconds per segment (keys from :data:`SEGMENTS`).
    segments: dict[str, float] = field(default_factory=dict)
    #: raw ``(segment, start_s, end_s)`` intervals, for the critical path.
    intervals: list[tuple[str, float, float]] = field(default_factory=list)

    @property
    def duration_s(self) -> float:
        return self.end_s - self.start_s

    @property
    def unattributed_s(self) -> float:
        """Trial wall-clock not covered by any recorded child segment."""
        return max(0.0, self.duration_s - sum(self.segments.values()))

    def to_dict(self) -> dict[str, Any]:
        return {
            "trial_id": self.trial_id,
            "start_s": self.start_s,
            "end_s": self.end_s,
            "duration_s": self.duration_s,
            "status": self.status,
            "objective": self.objective,
            "segments": dict(self.segments),
            "unattributed_s": self.unattributed_s,
        }


def trial_breakdowns(spans: Iterable[Span]) -> list[TrialBreakdown]:
    """Per-trial segment attribution from the recorded span DAG."""
    closed = [s for s in spans if s.end_s is not None]
    children: dict[Optional[int], list[Span]] = {}
    for span in closed:
        children.setdefault(span.parent_id, []).append(span)
    out: list[TrialBreakdown] = []
    for span in closed:
        if not span.name.startswith("trial:"):
            continue
        breakdown = TrialBreakdown(
            trial_id=str(span.attributes.get("trial_id") or span.name.split(":", 1)[1]),
            start_s=span.start_s,
            end_s=span.end_s or span.start_s,
            status=str(span.attributes.get("status", span.status)),
            objective=_maybe_float(span.attributes.get(SCALAR_METRIC)),
        )
        for child in children.get(span.span_id, ()):
            segment = SEGMENT_OF.get(child.name)
            if segment is None or child.end_s is None:
                continue
            breakdown.segments[segment] = (
                breakdown.segments.get(segment, 0.0) + child.duration_s
            )
            if child.end_s > child.start_s:
                breakdown.intervals.append((segment, child.start_s, child.end_s))
        out.append(breakdown)
    out.sort(key=lambda b: (b.start_s, b.trial_id))
    return out


def _maybe_float(value: Any) -> Optional[float]:
    try:
        return None if value is None else float(value)
    except (TypeError, ValueError):
        return None


@dataclass
class CriticalPath:
    """Campaign-level critical path over the trial-segment intervals."""

    horizon_s: float = 0.0
    #: seconds of the critical path attributed to each segment kind.
    segments: dict[str, float] = field(default_factory=dict)
    #: critical-path seconds no segment interval covered.
    idle_s: float = 0.0
    #: the walked path, earliest step first.
    steps: list[dict[str, Any]] = field(default_factory=list)

    @property
    def idle_fraction(self) -> float:
        return self.idle_s / self.horizon_s if self.horizon_s > 0 else 0.0

    def to_dict(self) -> dict[str, Any]:
        return {
            "horizon_s": self.horizon_s,
            "segments": dict(self.segments),
            "idle_s": self.idle_s,
            "idle_fraction": self.idle_fraction,
            "steps": list(self.steps),
        }


def compute_critical_path(breakdowns: Iterable[TrialBreakdown]) -> CriticalPath:
    """Backward last-finisher walk from the campaign's end to its start.

    From the horizon end, repeatedly pick the interval finishing last among
    those starting before the cursor, charge its covered stretch to its
    segment kind, record any uncovered gap as idle, and jump to its start.
    The result decomposes the campaign makespan into "what the campaign was
    waiting on" — the quantity parallel speedups must shrink.
    """
    intervals: list[tuple[float, float, str, str]] = []
    for b in breakdowns:
        for segment, s0, s1 in b.intervals:
            intervals.append((s0, s1, segment, b.trial_id))
    path = CriticalPath()
    if not intervals:
        return path
    horizon_start = min(iv[0] for iv in intervals)
    horizon_end = max(iv[1] for iv in intervals)
    path.horizon_s = horizon_end - horizon_start
    cursor = horizon_end
    steps: list[dict[str, Any]] = []
    eps = 1e-12
    while cursor > horizon_start + eps:
        candidates = [iv for iv in intervals if iv[0] < cursor - eps]
        if not candidates:
            path.idle_s += cursor - horizon_start
            steps.append({"kind": "idle", "start_s": horizon_start, "end_s": cursor})
            break
        best = max(candidates, key=lambda iv: min(iv[1], cursor))
        top = min(best[1], cursor)
        if top < cursor - eps:
            path.idle_s += cursor - top
            steps.append({"kind": "idle", "start_s": top, "end_s": cursor})
        path.segments[best[2]] = path.segments.get(best[2], 0.0) + (top - best[0])
        steps.append(
            {"kind": best[2], "trial_id": best[3], "start_s": best[0], "end_s": top}
        )
        cursor = best[0]
    steps.reverse()
    path.steps = steps
    return path


def pack_lanes(breakdowns: Iterable[TrialBreakdown]) -> tuple[dict[str, int], int]:
    """Greedy interval packing of trials onto executor lanes.

    Returns ``(trial_id → lane, lane_count)``. Because trials are packed
    first-fit in start order, the lane count is exactly the peak number of
    concurrently open trials — the executor-slot view of the campaign.
    """
    lane_end: list[float] = []
    assignment: dict[str, int] = {}
    for b in sorted(breakdowns, key=lambda b: (b.start_s, b.trial_id)):
        for lane, end in enumerate(lane_end):
            if b.start_s >= end - 1e-9:
                lane_end[lane] = b.end_s
                assignment[b.trial_id] = lane
                break
        else:
            assignment[b.trial_id] = len(lane_end)
            lane_end.append(b.end_s)
    return assignment, len(lane_end)


@dataclass
class CampaignAnalysis:
    """Everything the dashboard and the run report need, in one object."""

    trials: list[TrialBreakdown] = field(default_factory=list)
    critical_path: CriticalPath = field(default_factory=CriticalPath)
    #: trial_id → executor lane (slot) index.
    lanes: dict[str, int] = field(default_factory=dict)
    lane_count: int = 0
    slot_busy_s: float = 0.0
    slot_idle_fraction: float = 0.0
    horizon_start_s: float = 0.0
    horizon_end_s: float = 0.0
    #: ``pool:*`` span attributes (occupancy, grants, waits) per engine run.
    pools: list[dict[str, Any]] = field(default_factory=list)
    #: ``reservation:*`` span attributes per testbed job.
    reservations: list[dict[str, Any]] = field(default_factory=list)
    #: control-plane spans (experiment / phase / validation roots).
    phases: list[dict[str, Any]] = field(default_factory=list)

    @property
    def horizon_s(self) -> float:
        return self.horizon_end_s - self.horizon_start_s

    def to_dict(self) -> dict[str, Any]:
        return {
            "horizon_s": self.horizon_s,
            "horizon_start_s": self.horizon_start_s,
            "horizon_end_s": self.horizon_end_s,
            "trials": [b.to_dict() for b in self.trials],
            "critical_path": self.critical_path.to_dict(),
            "lanes": dict(self.lanes),
            "lane_count": self.lane_count,
            "slot_busy_s": self.slot_busy_s,
            "slot_idle_fraction": self.slot_idle_fraction,
            "pools": list(self.pools),
            "reservations": list(self.reservations),
            "phases": list(self.phases),
        }


def analyze_spans(spans: Iterable[Span]) -> CampaignAnalysis:
    """Build the full campaign analysis from recorded spans."""
    closed = [s for s in spans if s.end_s is not None]
    analysis = CampaignAnalysis()
    analysis.trials = trial_breakdowns(closed)
    analysis.critical_path = compute_critical_path(analysis.trials)
    analysis.lanes, analysis.lane_count = pack_lanes(analysis.trials)
    if analysis.trials:
        analysis.horizon_start_s = min(b.start_s for b in analysis.trials)
        analysis.horizon_end_s = max(b.end_s for b in analysis.trials)
        analysis.slot_busy_s = sum(b.duration_s for b in analysis.trials)
        capacity = analysis.lane_count * analysis.horizon_s
        if capacity > 0:
            analysis.slot_idle_fraction = max(
                0.0, 1.0 - analysis.slot_busy_s / capacity
            )
    for span in closed:
        if span.name.startswith("pool:"):
            entry = {
                "pool": span.name.split(":", 1)[1],
                "start_s": span.start_s,
                "end_s": span.end_s,
            }
            entry.update(_plain_attributes(span))
            analysis.pools.append(entry)
        elif span.name.startswith("reservation:"):
            entry = {
                "job_id": span.name.split(":", 1)[1],
                "start_s": span.start_s,
                "end_s": span.end_s,
            }
            entry.update(_plain_attributes(span))
            analysis.reservations.append(entry)
        elif span.parent_id is None and (
            span.name.startswith(("phase:", "experiment:", "validation:"))
        ):
            analysis.phases.append(
                {"name": span.name, "start_s": span.start_s, "end_s": span.end_s}
            )
    analysis.pools.sort(key=lambda p: (p["start_s"], p["pool"]))
    analysis.reservations.sort(key=lambda r: (r["start_s"], r["job_id"]))
    analysis.phases.sort(key=lambda p: p["start_s"])
    return analysis


def _plain_attributes(span: Span) -> dict[str, Any]:
    """Span attributes restricted to JSON-plain values."""
    out = {}
    for key, value in span.attributes.items():
        if isinstance(value, (int, float, str, bool)) or value is None:
            out[key] = value
    return out


def analyze_run(run_dir: str | Path) -> CampaignAnalysis:
    """Analyze the ``spans.jsonl`` artifact of a recorded run directory."""
    path = Path(run_dir) / "spans.jsonl"
    return analyze_spans(load_spans(path) if path.exists() else [])


# -- Chrome trace_event export --------------------------------------------------------


def to_trace_events(spans: Iterable[Span]) -> dict[str, Any]:
    """Spans as a Chrome ``trace_event`` document (``chrome://tracing``).

    Layout: pid 1 is the campaign (tid 0 = control plane, tid 1..N = the
    packed executor slots), pid 2 the engine pools, pid 3 the testbed
    reservations. Every closed span becomes one complete ``"X"`` slice with
    microsecond timestamps relative to the tracer epoch.
    """
    closed = [s for s in spans if s.end_s is not None]
    by_id = {s.span_id: s for s in closed}
    breakdowns = trial_breakdowns(closed)
    lane_of, lane_count = pack_lanes(breakdowns)

    def trial_ancestor(span: Span) -> Optional[str]:
        cursor: Optional[Span] = span
        hops = 0
        while cursor is not None and hops < 64:
            if cursor.name.startswith("trial:"):
                return str(
                    cursor.attributes.get("trial_id") or cursor.name.split(":", 1)[1]
                )
            cursor = by_id.get(cursor.parent_id) if cursor.parent_id is not None else None
            hops += 1
        return None

    pool_tids: dict[str, int] = {}
    reservation_tids: dict[str, int] = {}
    events: list[dict[str, Any]] = [
        _meta(1, 0, "process_name", name="campaign"),
        _meta(1, 0, "thread_name", name="control"),
    ]
    for lane in range(lane_count):
        events.append(_meta(1, lane + 1, "thread_name", name=f"slot-{lane}"))
    slices: list[dict[str, Any]] = []
    for span in closed:
        trial_id = trial_ancestor(span)
        if trial_id is not None:
            pid, tid = 1, 1 + lane_of.get(trial_id, 0)
            category = SEGMENT_OF.get(span.name, "trial")
        elif span.name.startswith("pool:") or span.name == "engine.run":
            pid = 2
            pool = span.name.split(":", 1)[1] if span.name.startswith("pool:") else "engine"
            if pool not in pool_tids:
                pool_tids[pool] = len(pool_tids)
                events.append(_meta(2, pool_tids[pool], "thread_name", name=pool))
            tid = pool_tids[pool]
            category = "engine"
        elif span.name.startswith("reservation:"):
            pid = 3
            job = span.name.split(":", 1)[1]
            if job not in reservation_tids:
                reservation_tids[job] = len(reservation_tids)
                events.append(_meta(3, reservation_tids[job], "thread_name", name=job))
            tid = reservation_tids[job]
            category = "testbed"
        else:
            pid, tid = 1, 0
            category = span.name.split(":", 1)[0]
        args = _plain_attributes(span)
        if span.status != "ok":
            args["status"] = span.status
        if span.error:
            args["error"] = span.error
        slices.append(
            {
                "ph": "X",
                "name": span.name,
                "cat": category,
                "ts": round(span.start_s * 1e6, 3),
                "dur": round(span.duration_s * 1e6, 3),
                "pid": pid,
                "tid": tid,
                "args": args,
            }
        )
    if pool_tids:
        events.insert(2, _meta(2, 0, "process_name", name="engine"))
    if reservation_tids:
        events.insert(2, _meta(3, 0, "process_name", name="testbed"))
    events.extend(sorted(slices, key=lambda e: (e["pid"], e["tid"], e["ts"])))
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def _meta(pid: int, tid: int, event: str, **args: Any) -> dict[str, Any]:
    return {"ph": "M", "pid": pid, "tid": tid, "name": event, "args": args}


def write_trace_events(spans: Iterable[Span], path: str | Path) -> Path:
    """Write the Chrome trace export; returns the path written."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(to_trace_events(spans)) + "\n")
    return path
