"""Span tracing across the optimization cycle.

The methodology's reproducibility story (Phase III) records *what* was
evaluated; the tracer records *where the time went*. A
:class:`RecordingTracer` collects nested :class:`Span` records carrying two
clocks:

- **wall clock** — seconds relative to the tracer's epoch (monotonic), so a
  run report can lay spans out on a timeline;
- **simulated clock** — optional, filled in by components that live inside a
  :class:`~repro.simcore.core.Environment` (pass ``sim_clock=env_now``
  callables), so DES work can be attributed in virtual time too.

The default tracer is a process-global :class:`NoopTracer` whose ``span()``
returns a shared null context manager: instrumented code pays one attribute
check and no allocation when tracing is off, keeping the tier-1 benchmarks
untouched. Enable tracing explicitly::

    from repro.observability import RecordingTracer, set_tracer

    tracer = RecordingTracer()
    set_tracer(tracer)          # or: with tracing() as tracer: ...
    ... run the campaign ...
    tracer.export_jsonl(run_dir / "spans.jsonl")

Spans nest per-thread (a thread-local stack, not contextvars, so worker
threads of a :class:`~concurrent.futures.ThreadPoolExecutor` start clean);
cross-thread parentage is passed explicitly via ``parent=``.

A recording tracer also derives the hot-path latency samples and the
metrics registry: every span it finishes or ingests passes once through
:data:`repro.observability.digest.SPAN_OPS` into ``tracer.perf`` and
through :data:`repro.observability.metrics.SPAN_METRICS` into
``tracer.metrics``. A :class:`~repro.observability.watchdog.CampaignWatchdog`
attached to the tracer is reachable as ``tracer.watchdog``.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Iterator, Optional

from repro.observability.digest import PerfRecorder
from repro.observability.metrics import MetricsRegistry

if TYPE_CHECKING:
    from repro.observability.watchdog import CampaignWatchdog

__all__ = [
    "Span",
    "Tracer",
    "NoopTracer",
    "RecordingTracer",
    "get_tracer",
    "set_tracer",
    "tracing",
    "load_spans",
    "SCALAR_METRIC",
]

#: trial-span attribute (and trial-result key) carrying a campaign trial's
#: scalarized objective, which is always minimized.
SCALAR_METRIC = "objective"

SimClock = Callable[[], float]


@dataclass
class Span:
    """One timed operation; ``end_s`` is ``None`` while it is open."""

    name: str
    span_id: int
    parent_id: Optional[int] = None
    #: seconds since the owning tracer's epoch (monotonic clock).
    start_s: float = 0.0
    end_s: Optional[float] = None
    #: simulated-time counterparts when a ``sim_clock`` was supplied.
    sim_start: Optional[float] = None
    sim_end: Optional[float] = None
    attributes: dict[str, Any] = field(default_factory=dict)
    status: str = "ok"
    error: Optional[str] = None

    @property
    def duration_s(self) -> float:
        return (self.end_s - self.start_s) if self.end_s is not None else 0.0

    @property
    def sim_duration(self) -> Optional[float]:
        if self.sim_start is None or self.sim_end is None:
            return None
        return self.sim_end - self.sim_start

    def set(self, key: str, value: Any) -> "Span":
        """Attach one attribute (chainable)."""
        self.attributes[key] = value
        return self

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start_s": self.start_s,
            "end_s": self.end_s,
            "sim_start": self.sim_start,
            "sim_end": self.sim_end,
            "attributes": dict(self.attributes),
            "status": self.status,
            "error": self.error,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "Span":
        return cls(
            name=data["name"],
            span_id=int(data["span_id"]),
            parent_id=data.get("parent_id"),
            start_s=float(data.get("start_s", 0.0)),
            end_s=data.get("end_s"),
            sim_start=data.get("sim_start"),
            sim_end=data.get("sim_end"),
            attributes=dict(data.get("attributes", {})),
            status=data.get("status", "ok"),
            error=data.get("error"),
        )


class _NoopSpan:
    """Absorbs every span operation; a process-wide singleton."""

    __slots__ = ()

    name = "noop"
    span_id = -1
    parent_id = None
    attributes: dict[str, Any] = {}
    status = "ok"
    duration_s = 0.0

    def set(self, key: str, value: Any) -> "_NoopSpan":
        return self


class _NoopSpanContext:
    __slots__ = ()

    def __enter__(self) -> _NoopSpan:
        return NOOP_SPAN

    def __exit__(self, *exc: Any) -> bool:
        return False


NOOP_SPAN = _NoopSpan()
_NOOP_CONTEXT = _NoopSpanContext()


class Tracer:
    """Tracer interface. The base class is inert (see :class:`NoopTracer`)."""

    #: instrumentation sites branch on this to skip work entirely.
    enabled: bool = False
    #: latency samples derived from the finished spans (recording tracers).
    perf: Optional[PerfRecorder] = None
    #: metrics derived from the finished spans (recording tracers).
    metrics: Optional[MetricsRegistry] = None
    #: the watchdog attached to this tracer's span stream, if any.
    watchdog: Optional["CampaignWatchdog"] = None

    def span(
        self,
        name: str,
        *,
        parent: Any = None,
        sim_clock: SimClock | None = None,
        **attributes: Any,
    ) -> Any:
        """Context manager timing one operation."""
        return _NOOP_CONTEXT

    def start_span(
        self,
        name: str,
        *,
        parent: Any = None,
        start: float | None = None,
        sim_clock: SimClock | None = None,
        **attributes: Any,
    ) -> Any:
        """Begin a span manually (for cross-thread lifecycles)."""
        return NOOP_SPAN

    def end_span(
        self, span: Any, *, error: str | None = None, end: float | None = None
    ) -> None:
        """Finish a span started with :meth:`start_span`."""

    def current(self) -> Any:
        """Innermost open span on this thread, or ``None``."""
        return None

    def clock(self) -> float:
        """Seconds since the tracer's epoch."""
        return 0.0

    def subscribe(self, callback: Callable[[Any], None]) -> None:
        """Register a live span consumer (no-op on the inert tracer)."""

    def unsubscribe(self, callback: Callable[[Any], None]) -> None:
        """Remove a live span consumer (no-op on the inert tracer)."""


class NoopTracer(Tracer):
    """The default: records nothing, allocates nothing."""


class RecordingTracer(Tracer):
    """Collects finished spans in memory; thread-safe."""

    enabled = True

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._epoch = time.perf_counter()
        #: wall-clock timestamp of the epoch, for report headers and for
        #: rebasing spans merged from other processes (the telemetry fabric).
        self.started_at = time.time()
        #: every finished span (own and ingested) is recorded here, once,
        #: and turned into registry metrics, once.
        self.perf = PerfRecorder()
        self.metrics = MetricsRegistry()
        self._next_id = 0
        self._finished: list[Span] = []
        self._stack = threading.local()
        self._subscribers: list[Callable[[Span], None]] = []
        #: self-metrics: spans finished (own + ingested) and subscriber
        #: callbacks that raised — observability overhead made observable.
        self.spans_recorded = 0
        self.subscriber_errors = 0

    # -- clocks and ids -------------------------------------------------------

    def clock(self) -> float:
        return time.perf_counter() - self._epoch

    def _new_id(self) -> int:
        with self._lock:
            self._next_id += 1
            return self._next_id

    def _thread_stack(self) -> list[Span]:
        stack = getattr(self._stack, "spans", None)
        if stack is None:
            stack = []
            self._stack.spans = stack
        return stack

    def current(self) -> Optional[Span]:
        stack = self._thread_stack()
        return stack[-1] if stack else None

    # -- span lifecycle -------------------------------------------------------

    def start_span(
        self,
        name: str,
        *,
        parent: Span | None = None,
        start: float | None = None,
        sim_clock: SimClock | None = None,
        **attributes: Any,
    ) -> Span:
        if parent is None:
            parent = self.current()
        span = Span(
            name=name,
            span_id=self._new_id(),
            parent_id=parent.span_id if parent is not None else None,
            start_s=self.clock() if start is None else start,
            attributes=dict(attributes),
        )
        if sim_clock is not None:
            span.sim_start = float(sim_clock())
            span.attributes["_sim_clock"] = sim_clock  # popped at end_span
        return span

    def end_span(
        self, span: Span, *, error: str | None = None, end: float | None = None
    ) -> None:
        sim_clock = span.attributes.pop("_sim_clock", None)
        if sim_clock is not None:
            span.sim_end = float(sim_clock())
        span.end_s = self.clock() if end is None else end
        if error is not None:
            span.status = "error"
            span.error = error
        with self._lock:
            self._finished.append(span)
            self.spans_recorded += 1
            subscribers = list(self._subscribers) if self._subscribers else None
        self.perf.observe(span)
        self.metrics.observe(span)
        if subscribers is not None:
            self._notify(span, subscribers)

    def _notify(self, span: Span, subscribers: list[Callable[[Span], None]]) -> None:
        for callback in subscribers:
            try:
                callback(span)
            except Exception:
                # A broken consumer (e.g. a watchdog rule) must never take
                # down the instrumented campaign.
                with self._lock:
                    self.subscriber_errors += 1

    def subscribe(self, callback: Callable[[Span], None]) -> None:
        """Stream every finished span to ``callback`` as it completes."""
        with self._lock:
            if callback not in self._subscribers:
                self._subscribers.append(callback)

    def unsubscribe(self, callback: Callable[[Span], None]) -> None:
        with self._lock:
            if callback in self._subscribers:
                self._subscribers.remove(callback)

    @contextmanager
    def span(
        self,
        name: str,
        *,
        parent: Span | None = None,
        sim_clock: SimClock | None = None,
        **attributes: Any,
    ) -> Iterator[Span]:
        span = self.start_span(name, parent=parent, sim_clock=sim_clock, **attributes)
        stack = self._thread_stack()
        stack.append(span)
        try:
            yield span
        except BaseException as exc:
            self.end_span(span, error=f"{type(exc).__name__}: {exc}")
            raise
        finally:
            stack.pop()
            if span.end_s is None:
                self.end_span(span)

    # -- the cross-process telemetry fabric ----------------------------------

    def drain(self) -> list[Span]:
        """Remove and return every finished span (the worker-side drain).

        Workers drain after each trial so the payload shipped back to the
        parent never double counts a span across trials. The parent
        re-derives the spans' latency samples as it merges them, so the
        drain drops this tracer's own samples too: a long-lived worker's
        memory does not grow with the spans it has already shipped.
        """
        with self._lock:
            spans = self._finished
            self._finished = []
            self.perf = PerfRecorder()
            return spans

    def ingest(
        self,
        spans: list[dict[str, Any]],
        *,
        parent: Span | None = None,
        epoch_unix: float | None = None,
        attributes: dict[str, Any] | None = None,
    ) -> tuple[int, int]:
        """Merge foreign span dicts (another process's tracer) into this one.

        Span ids are remapped into this tracer's id space with intra-payload
        parentage preserved; spans whose parent is not in the payload attach
        to ``parent`` (typically the trial span). ``epoch_unix`` — the
        foreign tracer's ``started_at`` — rebases the foreign clock onto
        this tracer's timeline. ``attributes`` (``runner_id``/``pid``/...)
        are stamped onto every merged span. The latency samples, the
        metrics registry and the subscribers (the live watchdog) see each
        merged span exactly as if it finished locally.

        Returns ``(merged, dropped)``; malformed entries are dropped, never
        fatal.
        """
        parsed: list[tuple[int, Span]] = []
        dropped = 0
        for data in spans:
            try:
                span = Span.from_dict(data)
                if span.end_s is None:
                    raise ValueError("open span cannot be ingested")
            except (TypeError, ValueError, KeyError):
                dropped += 1
                continue
            parsed.append((span.span_id, span))
        offset = 0.0
        if epoch_unix is not None:
            offset = float(epoch_unix) - self.started_at
        # two passes: ids first, then parents, so a child whose parent
        # finishes later in the payload still remaps correctly.
        id_map = {old_id: self._new_id() for old_id, _ in parsed}
        fallback_parent = parent.span_id if parent is not None else None
        default_attrs = dict(attributes or {})
        accepted: list[Span] = []
        for old_id, span in parsed:
            span.span_id = id_map[old_id]
            span.parent_id = id_map.get(span.parent_id, fallback_parent)
            span.start_s += offset
            span.end_s = (span.end_s or 0.0) + offset
            if default_attrs:
                span.attributes.update(default_attrs)
            accepted.append(span)
        with self._lock:
            self._finished.extend(accepted)
            self.spans_recorded += len(accepted)
            subscribers = list(self._subscribers) if self._subscribers else None
        for span in accepted:
            self.perf.observe(span)
            self.metrics.observe(span)
        if subscribers is not None:
            for span in accepted:
                self._notify(span, subscribers)
        return len(accepted), dropped

    # -- results --------------------------------------------------------------

    def finished(self) -> list[Span]:
        """Finished spans in completion order (a snapshot)."""
        with self._lock:
            return list(self._finished)

    def export_jsonl(self, path: str | Path) -> Path:
        """One span per line; the run report's primary artifact."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with self._lock:
            lines = [json.dumps(span.to_dict()) for span in self._finished]
        path.write_text("\n".join(lines) + ("\n" if lines else ""))
        return path


def load_spans(path: str | Path) -> list[Span]:
    """Read back a ``spans.jsonl`` artifact."""
    spans = []
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if line:
            spans.append(Span.from_dict(json.loads(line)))
    return spans


_default_tracer: Tracer = NoopTracer()
_default_lock = threading.Lock()


def get_tracer() -> Tracer:
    """The process-global tracer (a no-op unless explicitly enabled)."""
    return _default_tracer


def set_tracer(tracer: Tracer | None) -> Tracer:
    """Install ``tracer`` globally (``None`` restores the no-op); returns it."""
    global _default_tracer
    with _default_lock:
        _default_tracer = tracer if tracer is not None else NoopTracer()
        return _default_tracer


@contextmanager
def tracing(tracer: RecordingTracer | None = None) -> Iterator[RecordingTracer]:
    """Scoped tracing: install a recording tracer, restore the old on exit."""
    tracer = tracer or RecordingTracer()
    previous = get_tracer()
    set_tracer(tracer)
    try:
        yield tracer
    finally:
        set_tracer(previous)
