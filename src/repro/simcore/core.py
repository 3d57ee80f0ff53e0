"""The simulation environment: virtual clock and event heap."""

from __future__ import annotations

import heapq
import math
import time
from typing import Any, Generator, Optional

from repro.errors import SimulationError, WallClockTimeout
from repro.simcore.events import NORMAL, Event, Process, SlimDelay, Timeout
from repro.simcore.resources import Request

__all__ = ["Environment", "LoopStats", "StopSimulation", "EmptySchedule"]

#: upper bound on recycled SlimDelay instances kept per environment — the
#: pool only needs to cover the peak number of *concurrently pending* plain
#: delays and process starts, which the cap keeps from growing without bound
#: on pathological workloads.
_SLIM_POOL_MAX = 4096

_INF = float("inf")


class StopSimulation(Exception):
    """Raised internally to halt :meth:`Environment.run` at ``until``."""


class EmptySchedule(Exception):
    """Raised by :meth:`Environment.step` when no events remain."""


class LoopStats:
    """Event-loop statistics, collected only when explicitly enabled.

    The observability layer uses these to characterize a DES run: how many
    events the loop processed, how deep the heap got, and how much faster
    than real time the simulation ran (``sim/wall`` ratio).
    """

    __slots__ = (
        "events_processed",
        "max_queue_depth",
        "wall_s",
        "sim_start",
        "first_event_time",
        "last_event_time",
    )

    def __init__(self, sim_start: float = 0.0) -> None:
        self.events_processed = 0
        self.max_queue_depth = 0
        #: wall seconds spent inside :meth:`Environment.run` so far.
        self.wall_s = 0.0
        self.sim_start = sim_start
        #: simulated times of the first/last processed event — the busy
        #: stretch of the run, which the timeline layer uses to distinguish
        #: warm-up/drain idle time from actual event processing.
        self.first_event_time: Optional[float] = None
        self.last_event_time: Optional[float] = None

    def snapshot(self, now: float) -> dict[str, float]:
        """Current stats plus the simulated-vs-wall speed ratio."""
        sim_advanced = now - self.sim_start
        ratio = sim_advanced / self.wall_s if self.wall_s > 0 else float("inf")
        snapshot = {
            "events_processed": self.events_processed,
            "max_queue_depth": self.max_queue_depth,
            "wall_s": self.wall_s,
            "sim_advanced": sim_advanced,
            "sim_wall_ratio": ratio,
        }
        if self.first_event_time is not None and self.last_event_time is not None:
            snapshot["first_event_time"] = self.first_event_time
            snapshot["last_event_time"] = self.last_event_time
        return snapshot


class Environment:
    """Discrete-event execution environment.

    Maintains the virtual clock (:attr:`now`) and a priority heap of
    scheduled events. Heap entries are ordered by ``(time, priority,
    sequence)`` so same-instant events process in deterministic FIFO order
    within a priority class — determinism is a hard requirement for the
    paper's reproducibility goals.
    """

    def __init__(self, initial_time: float = 0.0) -> None:
        self._now = float(initial_time)
        self._queue: list[tuple[float, int, int, Event]] = []
        self._eid = 0
        self._active_process: Optional[Process] = None
        self._stats: Optional[LoopStats] = None
        #: recycled SlimDelay carriers (plain delays and process starts).
        self._slim_pool: list[SlimDelay] = []

    @property
    def stats(self) -> Optional[LoopStats]:
        """Loop statistics, or ``None`` unless :meth:`enable_stats` was called."""
        return self._stats

    def enable_stats(self) -> LoopStats:
        """Start collecting event-loop statistics (derived by the run loop)."""
        if self._stats is None:
            self._stats = LoopStats(sim_start=self._now)
        return self._stats

    @property
    def now(self) -> float:
        """Current virtual time."""
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently being resumed, if any."""
        return self._active_process

    # -- scheduling ---------------------------------------------------------

    def schedule(self, event: Event, priority: int = NORMAL, delay: float = 0.0) -> None:
        """Queue ``event`` for processing after ``delay`` time units."""
        if not math.isfinite(delay) or delay < 0:
            # NaN/inf would wedge the heap ordering or hang run() forever.
            raise ValueError(f"delay must be finite and >= 0, got {delay}")
        self._eid += 1
        heapq.heappush(self._queue, (self._now + delay, priority, self._eid, event))

    def _schedule_resume(
        self, process: Process, delay: float, priority: int = NORMAL
    ) -> SlimDelay:
        """Resume ``process`` after a plain ``delay`` through a pooled carrier.

        Used when a process yields a raw number instead of a
        :class:`~repro.simcore.events.Timeout`, and (``delay=0``, URGENT)
        for a new process's first resume. The carrier comes from a recycle
        pool and holds the process directly — no Event allocation and no
        callback list per wait.
        """
        if not (0 <= delay < _INF):
            raise ValueError(f"delay must be finite and >= 0, got {delay}")
        pool = self._slim_pool
        event = pool.pop() if pool else self._new_slim()
        event.process = process
        self._eid += 1
        heapq.heappush(self._queue, (self._now + delay, priority, self._eid, event))
        return event

    def _new_slim(self) -> SlimDelay:
        """A fresh carrier for the recycle pool (used when the pool is empty)."""
        event = SlimDelay.__new__(SlimDelay)
        event.env = self
        # The callbacks list stays empty forever: the run loop resumes the
        # carried process directly. It exists (non-None) so generic "is
        # this still pending" checks keep working.
        event.callbacks = []
        event._value = None
        event._ok = True
        event._defused = False
        return event

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` when none remain."""
        return self._queue[0][0] if self._queue else float("inf")

    def fast_forward(self, delta: float) -> None:
        """Jump the clock forward by ``delta`` without processing events.

        Every pending event is shifted by the same ``delta``, so relative
        timing — and therefore the heap order, which compares ``(time,
        priority, sequence)`` — is preserved exactly; the list is rebuilt
        in place with no re-heapify. This is the epoch checkpoint/restart
        primitive of the hybrid engine: the DES state (processes, pending
        events, resource queues) is frozen as-is while the fluid model
        covers the skipped span, then the loop resumes as if the span had
        been simulated.

        Absolute-time integrals (resource/CPU utilization accounting)
        accumulate their pre-jump rates over the skipped span; callers
        that need windowed statistics should snapshot *after* the jump.
        """
        if not math.isfinite(delta) or delta < 0:
            raise ValueError(f"delta must be finite and >= 0, got {delta}")
        if delta == 0:
            return
        self._now += delta
        if self._queue:
            self._queue[:] = [
                (time + delta, priority, eid, event)
                for time, priority, eid, event in self._queue
            ]

    def step(self) -> None:
        """Process the next event; advance the clock to its time."""
        try:
            self._now, _, _, event = heapq.heappop(self._queue)
        except IndexError:
            raise EmptySchedule() from None
        stats = self._stats
        if stats is not None:
            stats.events_processed += 1
            if stats.first_event_time is None:
                stats.first_event_time = self._now
            stats.last_event_time = self._now
            depth = len(self._queue) + 1
            if depth > stats.max_queue_depth:
                stats.max_queue_depth = depth

        self._dispatch(event)

    def _run_loop(
        self, wall_deadline: float | None, wall_timeout_s: float | None
    ) -> None:
        """Drain the heap until empty or :class:`StopSimulation`.

        Hot attributes (heap, pop, slim pool) are aliased to locals so the
        dominant pop→pump→recycle cycle does no repeated attribute lookups;
        the carrier pump is inlined and an immediate grant resumes its
        process in place (DESIGN §9). Every heap push takes one event id and
        only pops remove entries, so stats derive the events popped from
        ``Δ(_eid − len(_queue))``; the heap depth and the wall deadline are
        checked before each pop and in-place grant, only when either is on.
        """
        queue = self._queue
        pop = heapq.heappop
        push = heapq.heappush
        slim_pool = self._slim_pool
        stats = self._stats
        slim = SlimDelay
        request = Request
        checking = stats is not None or wall_deadline is not None
        perf_counter = time.perf_counter
        wall_start = perf_counter()
        max_depth = 0
        popped_before = self._eid - len(queue)
        first_time = queue[0][0] if queue else None

        try:
            while queue:
                if checking:
                    if len(queue) > max_depth:
                        max_depth = len(queue)
                    if wall_deadline is not None and perf_counter() > wall_deadline:
                        raise self._over_budget(wall_timeout_s)
                self._now, _, _, event = pop(queue)
                kind = type(event)
                if kind is slim:
                    process = event.process
                    if process is None:  # interrupted wait
                        if len(slim_pool) < _SLIM_POOL_MAX:
                            slim_pool.append(event)
                        continue
                    callbacks = None
                elif kind is request and event.process is not None:
                    # A carried claim: the process runs first, then any
                    # callbacks added after it subscribed.
                    process = event.process
                    event.process = None
                    callbacks = event.callbacks
                    event.callbacks = None
                else:
                    callbacks = event.callbacks
                    if callbacks is None:  # pragma: no cover - defensive
                        raise SimulationError(f"event {event!r} processed twice")
                    event.callbacks = None
                    for callback in callbacks:
                        callback(event)
                    if not event._ok and not event._defused:
                        exc = event._value
                        raise exc if isinstance(exc, BaseException) else SimulationError(repr(exc))
                    continue

                # The carrier pump: resume the carried process's generator
                # in place. A plain-delay yield re-arms a popped SlimDelay
                # (zero allocation) or takes one from the pool. A yielded
                # claim whose grant is the heap's next entry, with nobody
                # and nothing subscribed, is popped here and pumped again
                # in place: the next iteration would pop it and resume this
                # process first anyway.
                self._active_process = process
                generator = process._generator
                while True:
                    carrier = None
                    try:
                        if event._ok:
                            next_event = generator.send(event._value)
                        else:
                            event._defused = True
                            next_event = generator.throw(event._value)
                    except StopIteration as stop:
                        process._generator = None  # type: ignore[assignment]
                        process.succeed(stop.value)
                    except BaseException as exc:  # noqa: BLE001 - via event
                        process._generator = None  # type: ignore[assignment]
                        process.fail(exc)
                    else:
                        after = type(next_event)
                        if after is float or after is int:
                            if not (0 <= next_event < _INF):
                                self._active_process = None
                                raise ValueError(
                                    f"delay must be finite and >= 0, got {next_event}"
                                )
                            if kind is slim:
                                carrier = event
                            else:
                                carrier = slim_pool.pop() if slim_pool else self._new_slim()
                                carrier.process = process
                            self._eid += 1
                            push(queue, (self._now + next_event, NORMAL, self._eid, carrier))
                            process._target = carrier
                        elif (
                            after is request
                            and not callbacks
                            and queue
                            and queue[0][3] is next_event
                            and next_event.process is None
                            and not next_event.callbacks
                        ):
                            # The in-place grant: still pushed and popped
                            # (at the current time, so the clock stays).
                            # A process that keeps taking free claims never
                            # leaves this pump, so the checks run here too.
                            if checking:
                                if len(queue) > max_depth:
                                    max_depth = len(queue)
                                if wall_deadline is not None and perf_counter() > wall_deadline:
                                    raise self._over_budget(wall_timeout_s)
                            pop(queue)
                            next_event.callbacks = None
                            process._target = next_event
                            if kind is slim:
                                event.process = None
                                if len(slim_pool) < _SLIM_POOL_MAX:
                                    slim_pool.append(event)
                            event = next_event
                            kind = request
                            continue
                        elif not process._wait(next_event):
                            # Already-processed event: continue the pump
                            # through the general resume path.
                            process._resume(next_event)
                    break
                self._active_process = None
                if kind is slim:
                    if carrier is not event:
                        event.process = None
                        if len(slim_pool) < _SLIM_POOL_MAX:
                            slim_pool.append(event)
                elif callbacks:
                    for callback in callbacks:
                        callback(event)
                # An explicit back edge: CPython 3.11 counts a loop as warm,
                # and specializes its bytecode, only at a JUMP_BACKWARD; the
                # `while` test's own jump at the end of the body does not.
                continue
        finally:
            if stats is not None:
                stats.wall_s += perf_counter() - wall_start
                popped = self._eid - len(queue) - popped_before
                if popped:
                    stats.events_processed += popped
                    if stats.first_event_time is None:
                        stats.first_event_time = first_time
                    stats.last_event_time = self._now
                    if max_depth > stats.max_queue_depth:
                        stats.max_queue_depth = max_depth

    def _over_budget(self, wall_timeout_s: float | None) -> WallClockTimeout:
        """The error that cuts off a run past its wall-clock budget."""
        self._active_process = None
        return WallClockTimeout(
            f"simulation exceeded its wall-clock budget of "
            f"{wall_timeout_s}s (sim time {self._now})"
        )

    def _dispatch(self, event: Event) -> None:
        """Process one popped event for :meth:`step`.

        The protocol of the run loop's inlined pump: a SlimDelay
        resumes its process, or is a cancelled wait, and goes back to the
        pool; a carried claim resumes its process first and then runs any
        callbacks added after the process subscribed; any other event runs
        its callbacks.
        """
        kind = type(event)
        if kind is SlimDelay:
            process = event.process
            if process is not None:
                event.process = None
                process._resume(event)
            if len(self._slim_pool) < _SLIM_POOL_MAX:
                self._slim_pool.append(event)
            return
        callbacks = event.callbacks
        if callbacks is None:  # pragma: no cover - defensive
            raise SimulationError(f"event {event!r} processed twice")
        event.callbacks = None
        if kind is Request and event.process is not None:
            process = event.process
            event.process = None
            process._resume(event)
        for callback in callbacks:
            callback(event)
        if not event._ok and not event._defused:
            exc = event._value
            raise exc if isinstance(exc, BaseException) else SimulationError(repr(exc))

    # -- factories ----------------------------------------------------------

    def process(self, generator: Generator[Event, Any, Any], name: str | None = None) -> Process:
        """Start a process from a generator; returns its completion event."""
        return Process(self, generator, name=name)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Event succeeding after ``delay`` virtual time units."""
        return Timeout(self, delay, value)

    def event(self) -> Event:
        """A bare, untriggered event (trigger it with succeed/fail)."""
        return Event(self)

    # -- running ------------------------------------------------------------

    def run(
        self, until: float | Event | None = None, *, wall_timeout_s: float | None = None
    ) -> Any:
        """Run the simulation.

        ``until`` may be:

        - ``None``: run until no events remain;
        - a number: run until the clock reaches it (exclusive of events
          scheduled exactly at it only in the sense SimPy uses — the clock is
          set to ``until`` on return);
        - an :class:`Event`: run until that event is processed and return its
          value (re-raising its exception if it failed).

        ``wall_timeout_s`` bounds *real* time: a simulation that keeps
        scheduling events (a runaway or hung model) is cut off with
        :class:`~repro.errors.WallClockTimeout` after that many wall-clock
        seconds. The deadline is checked between events, so a single event
        callback that never returns cannot be interrupted — the fault-
        tolerant trial runner's thread-level timeout covers that case.
        """
        wall_deadline = None
        if wall_timeout_s is not None:
            if wall_timeout_s <= 0:
                raise ValueError(f"wall_timeout_s must be > 0, got {wall_timeout_s}")
            wall_deadline = time.perf_counter() + wall_timeout_s
        stop: Optional[Event] = None
        if until is not None:
            if isinstance(until, Event):
                if until.processed:
                    if not until._ok:
                        raise until._value
                    return until._value
                stop = until
            else:
                at = float(until)
                if at < self._now:
                    raise ValueError(f"until={at} is in the past (now={self._now})")
                stop = Event(self)
                stop._ok = True
                stop._value = None
                # URGENT-0 so the stop fires before same-time normal events.
                self._eid += 1
                heapq.heappush(self._queue, (at, -1, self._eid, stop))
            stop.callbacks.append(_stop_callback)

        from repro.observability.trace import get_tracer

        with get_tracer().span("des_run"):
            try:
                self._run_loop(wall_deadline, wall_timeout_s)
            except StopSimulation as signal:
                return signal.args[0] if signal.args else None

        if stop is not None and isinstance(until, Event) and not stop.triggered:
            raise SimulationError(
                f"run(until={until!r}) finished but the event never triggered"
            )
        return None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Environment(now={self._now}, pending={len(self._queue)})"


def _stop_callback(event: Event) -> None:
    if event._ok:
        raise StopSimulation(event._value)
    event._defused = True
    exc = event._value
    raise exc
