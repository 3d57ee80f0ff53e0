"""Capacity-limited resources with built-in occupancy statistics.

The Pl@ntNet engine's behaviour is driven by four thread pools, and the
paper's Figures 9f/9g/10c/10d report *pool busy time* — the fraction of pool
threads occupied. :class:`Resource` therefore tracks, natively and cheaply:

- the time-integral of the user count (→ pool busy %, i.e. occupancy),
- the time-integral of the queue length (→ mean queue length),
- per-request wait times (→ the paper's ``wait-*`` task times).

Statistics are incremental, so a monitor sampling every 10 simulated seconds
can compute exact windowed occupancy from integral deltas.
"""

from __future__ import annotations

import heapq
from typing import TYPE_CHECKING, Any

from repro.simcore.events import PENDING, URGENT, Event
from repro.utils.stats import RunningStats

if TYPE_CHECKING:  # pragma: no cover
    from repro.simcore.core import Environment

__all__ = ["Resource", "PriorityResource", "Request", "ResourceStats", "Store", "Container"]


class ResourceStats:
    """Incremental occupancy/queue statistics for a :class:`Resource`."""

    __slots__ = (
        "start_time",
        "last_change",
        "busy_integral",
        "queue_integral",
        "grants",
        "releases",
        "wait_times",
    )

    def __init__(self, now: float) -> None:
        self.start_time = now
        self.last_change = now
        #: ∫ user_count dt — divide by capacity × elapsed for occupancy.
        self.busy_integral = 0.0
        #: ∫ queue_length dt.
        self.queue_integral = 0.0
        self.grants = 0
        self.releases = 0
        self.wait_times = RunningStats()

    def advance(self, now: float, users: int, queued: int) -> None:
        """Accumulate integrals up to ``now`` given the *previous* state."""
        dt = now - self.last_change
        if dt > 0:
            self.busy_integral += users * dt
            self.queue_integral += queued * dt
            self.last_change = now

    def occupancy(self, now: float, capacity: int) -> float:
        """Average fraction of capacity in use over [start, now]."""
        elapsed = now - self.start_time
        if elapsed <= 0:
            return 0.0
        return self.busy_integral / (capacity * elapsed)

    def mean_queue_length(self, now: float) -> float:
        elapsed = now - self.start_time
        if elapsed <= 0:
            return 0.0
        return self.queue_integral / elapsed


class Request(Event):
    """A pending or granted claim on a :class:`Resource`.

    Usable as a context manager: the claim is released (or cancelled, if
    never granted) on exit.
    """

    __slots__ = ("resource", "priority", "submit_time")

    def __init__(self, resource: "Resource", priority: int = 0) -> None:
        # Inlined Event.__init__: a claim is made several times per
        # simulated request, so it skips the super() call.
        env = resource.env
        self.env = env
        self.callbacks = []
        self._value = PENDING
        self._ok = True
        self._defused = False
        self.resource = resource
        self.priority = priority
        self.submit_time = env._now
        resource._claim(self)

    def __enter__(self) -> "Request":
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        self.resource.release(self)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "granted" if self.triggered else "queued"
        return f"<Request on {self.resource.name!r} {state}>"


class Resource:
    """A FIFO resource with ``capacity`` concurrent users (a thread pool)."""

    def __init__(self, env: "Environment", capacity: int, name: str = "resource") -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.env = env
        self.capacity = int(capacity)
        self.name = name
        self.users: list[Request] = []
        self._queue: list[Any] = []
        self.stats = ResourceStats(env.now)

    # -- queue discipline (overridden by PriorityResource) -------------------

    def _enqueue(self, request: Request) -> None:
        self._queue.append(request)

    def _dequeue(self) -> Request:
        return self._queue.pop(0)

    def _queue_remove(self, request: Request) -> bool:
        try:
            self._queue.remove(request)
            return True
        except ValueError:
            return False

    @property
    def queue_length(self) -> int:
        return len(self._queue)

    @property
    def user_count(self) -> int:
        return len(self.users)

    # -- core protocol --------------------------------------------------------

    def request(self, priority: int = 0) -> Request:
        """Claim one unit of capacity; the returned event fires when granted."""
        return Request(self, priority)

    def release(self, request: Request) -> None:
        """Return a granted claim, or cancel a still-queued one."""
        self.stats.advance(self.env._now, len(self.users), len(self._queue))
        try:
            self.users.remove(request)
        except ValueError:
            # Never granted: cancel from the queue (context-manager exit
            # after an interrupt while waiting).
            self._queue_remove(request)
        else:
            self.stats.releases += 1
            if self._queue:
                self._grant_pending()

    def _claim(self, request: Request) -> None:
        """Queue a new claim and grant it at once if a unit is free."""
        # Integrate over the state *before* the claim joins the queue, so a
        # new request does not count as waiting over the interval since the
        # pool last changed.
        self.stats.advance(self.env._now, len(self.users), len(self._queue))
        self._enqueue(request)
        self._grant_pending()

    def _grant_pending(self) -> None:
        """Grant queued claims while capacity is free.

        Callers integrate the statistics up to now before changing the
        pool, so every grant here happens at ``dt == 0`` and only counts.
        Each grant pushes the same ``(now, URGENT, eid)`` heap key as
        :meth:`Environment.schedule` would.
        """
        queue = self._queue
        users = self.users
        capacity = self.capacity
        env = self.env
        now = env._now
        stats = self.stats
        wait_times = stats.wait_times
        heap = env._queue
        push = heapq.heappush
        while queue and len(users) < capacity:
            nxt = self._dequeue()
            users.append(nxt)
            stats.grants += 1
            wait_times.add(now - nxt.submit_time)
            nxt._ok = True
            nxt._value = None
            env._eid += 1
            push(heap, (now, URGENT, env._eid, nxt))

    # -- statistics -----------------------------------------------------------

    def occupancy(self) -> float:
        """Lifetime average busy fraction of the pool."""
        self.stats.advance(self.env.now, len(self.users), len(self._queue))
        return self.stats.occupancy(self.env.now, self.capacity)

    def busy_integral(self) -> float:
        """Current ∫ user_count dt (for windowed occupancy sampling)."""
        self.stats.advance(self.env.now, len(self.users), len(self._queue))
        return self.stats.busy_integral

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<{type(self).__name__} {self.name!r} users={len(self.users)}/"
            f"{self.capacity} queued={len(self._queue)}>"
        )


class PriorityResource(Resource):
    """A resource granting queued requests in (priority, FIFO) order.

    Lower ``priority`` values are served first.
    """

    def __init__(self, env: "Environment", capacity: int, name: str = "priority-resource") -> None:
        super().__init__(env, capacity, name)
        self._seq = 0

    def _enqueue(self, request: Request) -> None:
        self._seq += 1
        heapq.heappush(self._queue, (request.priority, self._seq, request))

    def _dequeue(self) -> Request:
        return heapq.heappop(self._queue)[2]

    def _queue_remove(self, request: Request) -> bool:
        for i, (_, _, req) in enumerate(self._queue):
            if req is request:
                self._queue.pop(i)
                heapq.heapify(self._queue)
                return True
        return False

    @property
    def queue_length(self) -> int:
        return len(self._queue)


class Store:
    """An unbounded (or bounded) FIFO store of arbitrary items."""

    def __init__(self, env: "Environment", capacity: float = float("inf"), name: str = "store") -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.env = env
        self.capacity = capacity
        self.name = name
        self.items: list[Any] = []
        self._getters: list[Event] = []
        self._putters: list[tuple[Event, Any]] = []

    def put(self, item: Any) -> Event:
        """Event that fires once ``item`` has been stored."""
        event = Event(self.env)
        self._putters.append((event, item))
        self._dispatch()
        return event

    def get(self) -> Event:
        """Event that fires with the oldest stored item."""
        event = Event(self.env)
        self._getters.append(event)
        self._dispatch()
        return event

    def _dispatch(self) -> None:
        progress = True
        while progress:
            progress = False
            if self._putters and len(self.items) < self.capacity:
                event, item = self._putters.pop(0)
                self.items.append(item)
                event.succeed()
                progress = True
            if self._getters and self.items:
                event = self._getters.pop(0)
                event.succeed(self.items.pop(0))
                progress = True

    def __len__(self) -> int:
        return len(self.items)


class Container:
    """A continuous level container (e.g. battery charge, buffer bytes)."""

    def __init__(
        self,
        env: "Environment",
        capacity: float = float("inf"),
        init: float = 0.0,
        name: str = "container",
    ) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        if not 0 <= init <= capacity:
            raise ValueError("init level must be within [0, capacity]")
        self.env = env
        self.capacity = capacity
        self.name = name
        self._level = float(init)
        self._getters: list[tuple[Event, float]] = []
        self._putters: list[tuple[Event, float]] = []

    @property
    def level(self) -> float:
        return self._level

    def put(self, amount: float) -> Event:
        if amount <= 0:
            raise ValueError("put amount must be positive")
        event = Event(self.env)
        self._putters.append((event, float(amount)))
        self._dispatch()
        return event

    def get(self, amount: float) -> Event:
        if amount <= 0:
            raise ValueError("get amount must be positive")
        event = Event(self.env)
        self._getters.append((event, float(amount)))
        self._dispatch()
        return event

    def _dispatch(self) -> None:
        progress = True
        while progress:
            progress = False
            if self._putters:
                event, amount = self._putters[0]
                if self._level + amount <= self.capacity:
                    self._putters.pop(0)
                    self._level += amount
                    event.succeed()
                    progress = True
            if self._getters:
                event, amount = self._getters[0]
                if amount <= self._level:
                    self._getters.pop(0)
                    self._level -= amount
                    event.succeed(amount)
                    progress = True
