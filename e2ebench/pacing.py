"""Wall time rescaled to a fixed host speed, for steady end-to-end timings.

A shared host runs this benchmark's core at speeds that switch by up to
~1.9x every few seconds, so raw wall time of the same call swings almost as
much between runs. :func:`measure` splits a timed call into steps of at
least :data:`STEP_S` seconds, cut where ``Environment.run`` starts or ends,
and times a short reference burst -- fixed work that runs no ``repro`` code
-- at every cut. Each step is rescaled by the host speed its two bracketing
bursts saw:

    norm_s = sum(step_s * REF_BURST_S / mean(burst before, burst after))

that is, the call's wall time on a host where one burst takes
:data:`REF_BURST_S`. The bursts are excluded from both the raw and the
rescaled time. A change to the program moves ``norm_s`` as it moves wall
time; a change in host speed moves the steps and the bursts alike.
"""

from __future__ import annotations

import functools
import heapq
import importlib
import time
from contextlib import contextmanager
from typing import Any, Callable, Iterator, Optional

import numpy as np

#: shortest step between two bursts.
STEP_S = 0.15
#: a burst's nominal duration; sets the scale of ``norm_s``.
REF_BURST_S = 0.004
#: timed bursts per cut; the fastest one is the cut's speed sample.
BURSTS_PER_CUT = 3
#: the calls whose start and end are cut points.
CUT_POINTS = (("repro.simcore.core", "Environment", "run"),)

_MATRIX = np.random.default_rng(0).random((64, 4))


class _Event:
    __slots__ = ("when", "key")

    def __init__(self, when: float, key: int) -> None:
        self.when = when
        self.key = key

    def __lt__(self, other: "_Event") -> bool:
        return self.when < other.when


def reference_burst() -> float:
    """Seconds one fixed burst takes: an event queue, integer math, small numpy ops.

    The three parts take about equal time. Host slow-downs hit them by
    different factors (about 2.1x, 1.7x and 1.8x); their mix tracks the
    slow-down of both the simulation and the surrogate fits to a few
    percent.
    """
    start = time.perf_counter()
    queue: list[_Event] = []
    x = 0.5
    for i in range(1200):
        x = (x * 1103515245.0 + 12345.0) % 2147483648.0
        heapq.heappush(queue, _Event(x, i))
        if len(queue) > 48:
            heapq.heappop(queue).key += 1
    total = 0
    for i in range(20000):
        total += i * i % 7
    for _ in range(300):
        _MATRIX.sum(axis=0)
        np.argsort(_MATRIX[:, 0])
    return time.perf_counter() - start


class SpeedClock:
    """One call's steps and the bursts at their cuts."""

    def __init__(self) -> None:
        #: (step seconds, burst seconds before it, burst seconds after it).
        self.steps: list[tuple[float, float, float]] = []
        self._burst = 0.0
        self._mark: Optional[float] = None

    def cut(self) -> None:
        now = time.perf_counter()
        burst = min(reference_burst() for _ in range(BURSTS_PER_CUT))
        if self._mark is not None:
            self.steps.append((now - self._mark, self._burst, burst))
        self._burst = burst
        self._mark = time.perf_counter()

    def tick(self) -> None:
        if time.perf_counter() - self._mark >= STEP_S:
            self.cut()

    @property
    def wall_s(self) -> float:
        return sum(step for step, _, _ in self.steps)

    @property
    def norm_s(self) -> float:
        return sum(
            step * REF_BURST_S / (0.5 * (before + after)) for step, before, after in self.steps
        )


@contextmanager
def paced(clock: SpeedClock) -> Iterator[SpeedClock]:
    """Cut ``clock`` at the start and end of the block and around every cut point."""
    undo = []
    try:
        for module_name, class_name, attr in CUT_POINTS:
            owner = getattr(importlib.import_module(module_name), class_name)
            original = owner.__dict__[attr]

            @functools.wraps(original)
            def cut(*args: Any, _original: Any = original, **kwargs: Any) -> Any:
                clock.tick()
                try:
                    return _original(*args, **kwargs)
                finally:
                    clock.tick()

            undo.append((owner, attr, original))
            setattr(owner, attr, cut)
        clock.cut()
        yield clock
        clock.cut()
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)


def measure(call: Callable[[], Any], pace: bool = True) -> tuple[Any, float, Optional[float]]:
    """``(call(), wall seconds, rescaled seconds)``; unpaced calls get no rescaled time."""
    if not pace:
        start = time.perf_counter()
        result = call()
        return result, time.perf_counter() - start, None
    clock = SpeedClock()
    with paced(clock):
        result = call()
    return result, clock.wall_s, clock.norm_s
