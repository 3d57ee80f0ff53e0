"""Events, processes and event composition for the DES kernel.

An :class:`Event` is a one-shot occurrence on the virtual timeline. Events
are *triggered* (given an outcome) and later *processed* (their callbacks
run) by the :class:`~repro.simcore.core.Environment`. A :class:`Process`
wraps a Python generator; each value the generator yields must be an event
— or a raw non-negative number, the fast-lane shorthand for a plain virtual
delay — and the process resumes when that event is processed.

This is a deliberate re-implementation of the SimPy core model: the
reproduction may not depend on external simulation packages, and the paper's
thread-pool phenomena need precise control over resource accounting.
"""

from __future__ import annotations

import heapq
import math
from typing import TYPE_CHECKING, Any, Callable, Generator, Iterable, Optional

from repro.errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover
    from repro.simcore.core import Environment

__all__ = [
    "PENDING",
    "Event",
    "Timeout",
    "Process",
    "Interrupt",
    "ConditionEvent",
    "AllOf",
    "AnyOf",
    "all_of",
    "any_of",
]


class _Pending:
    """Sentinel for 'event not yet triggered'."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "<PENDING>"


PENDING = _Pending()

# Scheduling priorities: URGENT events (interrupts, resource grants) run
# before NORMAL events scheduled at the same instant.
URGENT = 0
NORMAL = 1


class Event:
    """A one-shot occurrence with success/failure outcome and callbacks."""

    __slots__ = ("env", "callbacks", "_value", "_ok", "_defused")

    def __init__(self, env: "Environment") -> None:
        self.env = env
        #: Callbacks run when the event is processed; ``None`` afterwards.
        self.callbacks: Optional[list[Callable[["Event"], None]]] = []
        self._value: Any = PENDING
        self._ok: bool = True
        self._defused: bool = False

    @property
    def triggered(self) -> bool:
        """True once the event has an outcome (scheduled for processing)."""
        return self._value is not PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have been run."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded. Only meaningful once triggered."""
        if not self.triggered:
            raise SimulationError("outcome of untriggered event is undefined")
        return self._ok

    @property
    def value(self) -> Any:
        """The event's value (or the exception, if it failed)."""
        if self._value is PENDING:
            raise SimulationError("value of untriggered event is undefined")
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event as successful with ``value``."""
        if self.triggered:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = True
        self._value = value
        self.env.schedule(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event as failed with ``exception``.

        A failed event whose failure is never handled by a process crashes
        the simulation (unless :meth:`defuse` is called).
        """
        if not isinstance(exception, BaseException):
            raise TypeError(f"fail() needs an exception, got {exception!r}")
        if self.triggered:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = False
        self._value = exception
        self.env.schedule(self)
        return self

    def trigger(self, event: "Event") -> None:
        """Mirror the outcome of another (triggered) event."""
        if event._ok:
            self.succeed(event._value)
        else:
            self.defuse_source(event)
            self.fail(event._value)

    @staticmethod
    def defuse_source(event: "Event") -> None:
        event._defused = True

    def defuse(self) -> None:
        """Mark a failure as handled so it will not crash the simulation."""
        self._defused = True

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "processed" if self.processed else ("triggered" if self.triggered else "pending")
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that succeeds after a fixed virtual delay."""

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None) -> None:
        if not math.isfinite(delay) or delay < 0:
            raise ValueError(f"timeout delay must be finite and >= 0, got {delay}")
        # Inlined Event.__init__ + Environment.schedule: a timeout is the
        # dominant event kind in the engine DES, so it skips the redundant
        # second delay validation and the schedule() call overhead.
        self.env = env
        self.callbacks = []
        self._value = value
        self._ok = True
        self._defused = False
        self.delay = delay
        env._eid += 1
        heapq.heappush(env._queue, (env._now + delay, NORMAL, env._eid, self))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Timeout delay={self.delay}>"


class Carrier(Event):
    """An event that wakes at most one process without a callback.

    The waiting process sits in the :attr:`process` slot instead of the
    callback list, and the run loop pumps its generator in place when the
    event is popped. A carrier keeps the heap key it would have as a plain
    event, so carrying changes no event order. ``process`` is ``None`` when
    nothing is carried, or when an interrupt cancelled the wait.
    """

    __slots__ = ("process",)


class SlimDelay(Carrier):
    """A pooled carrier for plain delays and process starts.

    Created only by :meth:`Environment._schedule_resume`: when a process
    yields a raw number instead of a :class:`Timeout` (pushed NORMAL at
    ``now + delay``), and when a :class:`Process` is created (pushed
    URGENT at ``now``, the key a first-resume event always had). The run
    loop re-arms the same instance for consecutive plain delays and
    returns it to a recycle pool otherwise. Never exposed to user code
    (the resumed generator receives ``None``), which is what makes the
    recycling safe. Its callback list stays empty forever.
    """

    __slots__ = ()


class Interrupt(Exception):
    """Thrown into a process when :meth:`Process.interrupt` is called."""

    @property
    def cause(self) -> Any:
        return self.args[0] if self.args else None


class _Interruption(Event):
    """Internal: out-of-band resumption throwing :class:`Interrupt`."""

    __slots__ = ("process",)

    def __init__(self, process: "Process", cause: Any) -> None:
        super().__init__(process.env)
        if process.triggered:
            raise SimulationError("cannot interrupt a terminated process")
        if process._generator is None:  # pragma: no cover - defensive
            raise SimulationError("cannot interrupt an uninitialized process")
        self.process = process
        self._ok = False
        self._value = Interrupt(cause)
        self._defused = True
        # Detach the process from the event it currently waits on; the
        # interrupt takes over the resumption.
        target = process._target
        if target is not None and target.callbacks is not None:
            if isinstance(target, Carrier) and target.process is process:
                # A carrier holds the process directly; clearing it cancels
                # the pending resume without touching the heap.
                target.process = None
            else:
                try:
                    target.callbacks.remove(process._resume)
                except ValueError:  # pragma: no cover - defensive
                    pass
        self.callbacks.append(process._resume)
        process.env.schedule(self, priority=URGENT)


class Process(Event):
    """A running process; also an event that fires when the process ends.

    The wrapped generator yields :class:`Event` instances. When a yielded
    event is processed, the generator resumes with the event's value (or the
    event's exception is thrown into it, for failed events).
    """

    __slots__ = ("_generator", "_target", "name")

    def __init__(
        self,
        env: "Environment",
        generator: Generator[Event, Any, Any],
        name: str | None = None,
    ) -> None:
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise TypeError(f"process() needs a generator, got {generator!r}")
        # Inlined Event.__init__: open-loop sources start one process per
        # simulated request.
        self.env = env
        self.callbacks = []
        self._value = PENDING
        self._ok = True
        self._defused = False
        self._generator = generator
        #: the event this process waits on; ``None`` until its first resume,
        #: so an interrupt before then does not cancel the start.
        self._target: Optional[Event] = None
        self.name = name or getattr(generator, "__name__", "process")
        # The first resume rides a pooled carrier under the (now, URGENT,
        # eid) key, ahead of same-instant NORMAL events.
        env._schedule_resume(self, 0.0, URGENT)

    @property
    def is_alive(self) -> bool:
        return not self.triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current instant."""
        _Interruption(self, cause)

    def _resume(self, event: Event) -> None:
        """Advance the generator; subscribe to the next yielded event."""
        self.env._active_process = self
        while True:
            try:
                if event._ok:
                    next_event = self._generator.send(event._value)
                else:
                    event._defused = True
                    exc = event._value
                    next_event = self._generator.throw(exc)
            except StopIteration as stop:
                self._generator = None  # type: ignore[assignment]
                self.env._active_process = None
                self.succeed(stop.value)
                return
            except BaseException as exc:  # noqa: BLE001 - propagate via event
                self._generator = None  # type: ignore[assignment]
                self.env._active_process = None
                self.fail(exc)
                return

            kind = type(next_event)
            if kind is float or kind is int:
                # A raw number is a plain delay. The environment schedules
                # the resume through a pooled SlimDelay, avoiding a fresh
                # Event (and callback list) per simulated wait. The process
                # is no longer active even if the delay is rejected.
                self.env._active_process = None
                self._target = self.env._schedule_resume(self, next_event)
                return
            if self._wait(next_event):
                break
            # Already processed: continue immediately with its outcome.
            event = next_event
        self.env._active_process = None

    def _wait(self, next_event: Any) -> bool:
        """Subscribe to a yielded event.

        Returns True when the process is now waiting on ``next_event``,
        False when that event was already processed (the caller continues
        the pump with its outcome immediately). A :class:`Carrier` with no
        callbacks and no carried process takes this process into its slot;
        otherwise the process joins the callback list. Either way it runs
        before any callback added later, as the first list entry would.
        """
        if not isinstance(next_event, Event):
            self.env._active_process = None
            error = SimulationError(
                f"process {self.name!r} yielded a non-event: {next_event!r}"
            )
            self._generator.throw(error)
            raise error  # pragma: no cover - throw() above raises
        if next_event.env is not self.env:
            raise SimulationError(
                f"process {self.name!r} yielded an event from another environment"
            )
        callbacks = next_event.callbacks
        if callbacks is None:
            return False
        if not callbacks and isinstance(next_event, Carrier) and next_event.process is None:
            next_event.process = self
        else:
            callbacks.append(self._resume)
        self._target = next_event
        return True

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Process {self.name!r} {'done' if self.triggered else 'alive'}>"


class ConditionEvent(Event):
    """Base class for :class:`AllOf` / :class:`AnyOf` composition."""

    __slots__ = ("events", "_count")

    def __init__(self, env: "Environment", events: Iterable[Event]) -> None:
        super().__init__(env)
        self.events = tuple(events)
        self._count = 0
        for ev in self.events:
            if ev.env is not env:
                raise SimulationError("cannot mix events from different environments")
        if not self.events:
            self.succeed({})
            return
        for ev in self.events:
            if ev.callbacks is None:
                self._observe(ev)
            else:
                ev.callbacks.append(self._observe)

    def _observe(self, event: Event) -> None:
        if self.triggered:
            return
        if not event._ok:
            event._defused = True
            self.fail(event._value)
            return
        self._count += 1
        if self._satisfied():
            self.succeed(self._collect())

    def _satisfied(self) -> bool:  # pragma: no cover - abstract
        raise NotImplementedError

    def _collect(self) -> dict[Event, Any]:
        return {ev: ev._value for ev in self.events if ev.processed and ev._ok}


class AllOf(ConditionEvent):
    """Succeeds when every component event has succeeded."""

    __slots__ = ()

    def _satisfied(self) -> bool:
        return self._count == len(self.events)


class AnyOf(ConditionEvent):
    """Succeeds as soon as one component event has succeeded."""

    __slots__ = ()

    def _satisfied(self) -> bool:
        return self._count >= 1


def all_of(env: "Environment", events: Iterable[Event]) -> AllOf:
    """Event that fires when all ``events`` have succeeded."""
    return AllOf(env, events)


def any_of(env: "Environment", events: Iterable[Event]) -> AnyOf:
    """Event that fires when any of ``events`` has succeeded."""
    return AnyOf(env, events)
