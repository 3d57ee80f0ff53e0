"""Tests for Environment.run semantics."""

import pytest

from repro import simcore
from repro.simcore.core import EmptySchedule


class TestRunUntil:
    def test_until_time_stops_clock(self):
        env = simcore.Environment()

        def ticker(env, log):
            while True:
                yield env.timeout(1.0)
                log.append(env.now)

        log = []
        env.process(ticker(env, log))
        env.run(until=3.5)
        assert env.now == 3.5
        assert log == [1.0, 2.0, 3.0]

    def test_until_in_past_rejected(self):
        env = simcore.Environment()
        env.run(until=5.0)
        with pytest.raises(ValueError):
            env.run(until=1.0)

    def test_resume_after_until(self):
        env = simcore.Environment()

        def ticker(env, log):
            for _ in range(5):
                yield env.timeout(1.0)
                log.append(env.now)

        log = []
        env.process(ticker(env, log))
        env.run(until=2.5)
        env.run()
        assert log == [1.0, 2.0, 3.0, 4.0, 5.0]

    def test_until_event_returns_value(self):
        env = simcore.Environment()
        assert env.run(until=env.timeout(2.0, "v")) == "v"

    def test_until_already_processed_event(self):
        env = simcore.Environment()
        ev = env.timeout(1.0, "x")
        env.run()
        assert env.run(until=ev) == "x"

    def test_until_failed_event_raises(self):
        env = simcore.Environment()
        ev = env.event()

        def failer(env, ev):
            yield env.timeout(1.0)
            ev.fail(RuntimeError("deliberate"))

        env.process(failer(env, ev))
        with pytest.raises(RuntimeError, match="deliberate"):
            env.run(until=ev)

    def test_step_on_empty_schedule(self):
        env = simcore.Environment()
        with pytest.raises(EmptySchedule):
            env.step()

    def test_peek(self):
        env = simcore.Environment()
        assert env.peek() == float("inf")
        env.timeout(3.0)
        assert env.peek() == 3.0

    def test_initial_time(self):
        env = simcore.Environment(initial_time=100.0)
        env.timeout(1.0)
        env.run()
        assert env.now == 101.0


class TestScheduleValidation:
    """Non-finite delays would wedge the event heap or hang run()."""

    def test_schedule_rejects_nan_and_inf(self):
        env = simcore.Environment()
        for bad in (float("nan"), float("inf"), -float("inf"), -1.0):
            with pytest.raises(ValueError):
                env.schedule(simcore.Event(env), delay=bad)

    def test_timeout_rejects_nan_and_inf(self):
        env = simcore.Environment()
        for bad in (float("nan"), float("inf"), -0.5):
            with pytest.raises(ValueError):
                env.timeout(bad)

    def test_finite_delays_still_accepted(self):
        env = simcore.Environment()
        env.timeout(0.0)
        env.timeout(3.5)
        env.run()
        assert env.now == 3.5


class TestFastForward:
    def test_shifts_clock_and_pending_events(self):
        env = simcore.Environment()

        def ticker(env, log):
            while True:
                yield env.timeout(10.0)
                log.append(env.now)

        log = []
        env.process(ticker(env, log))
        env.run(until=15.0)  # next tick pending at t=20
        env.fast_forward(100.0)
        assert env.now == 115.0
        assert env.peek() == 120.0
        env.run(until=125.0)
        assert log[-1] == 120.0

    def test_preserves_event_order(self):
        env = simcore.Environment()
        log = []

        def once(env, delay, tag):
            yield env.timeout(delay)
            log.append(tag)

        for delay, tag in ((5.0, "a"), (2.0, "b"), (9.0, "c")):
            env.process(once(env, delay, tag))
        env.fast_forward(50.0)
        env.run()
        assert log == ["b", "a", "c"]
        assert env.now == 59.0

    def test_zero_and_empty_heap_ok(self):
        env = simcore.Environment()
        env.fast_forward(25.0)
        assert env.now == 25.0
        assert env.peek() == float("inf")
        env.fast_forward(0.0)
        assert env.now == 25.0

    def test_rejects_bad_delta(self):
        env = simcore.Environment()
        with pytest.raises(ValueError):
            env.fast_forward(-1.0)
        with pytest.raises(ValueError):
            env.fast_forward(float("inf"))


class TestRejectedRawDelay:
    """A process yielding an invalid raw delay leaves no active process.

    With and without loop statistics the run loop raises ``ValueError``;
    it may not leave ``env.active_process`` pointing at the process that
    yielded it.
    """

    @pytest.mark.parametrize("stats", [False, True], ids=["fast-loop", "stats-loop"])
    @pytest.mark.parametrize("bad", [float("nan"), -1.0, float("inf")], ids=["nan", "neg", "inf"])
    def test_run_clears_active_process(self, stats, bad):
        env = simcore.Environment()
        if stats:
            env.enable_stats()

        def proc():
            yield 1.0
            yield bad

        env.process(proc())
        with pytest.raises(ValueError):
            env.run()
        assert env.active_process is None

    def test_step_clears_active_process(self):
        env = simcore.Environment()

        def proc():
            yield float("nan")

        env.process(proc())
        with pytest.raises(ValueError):
            env.step()
        assert env.active_process is None
