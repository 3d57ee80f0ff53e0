"""Tests for the DES kernel: events, processes, composition."""

import random

import pytest

from repro import simcore
from repro.errors import SimulationError


class TestTimeouts:
    def test_clock_advances(self):
        env = simcore.Environment()

        def proc(env):
            yield env.timeout(5.0)
            return env.now

        p = env.process(proc(env))
        env.run()
        assert p.value == 5.0
        assert env.now == 5.0

    def test_negative_delay_rejected(self):
        env = simcore.Environment()
        with pytest.raises(ValueError):
            env.timeout(-1.0)

    def test_timeout_value(self):
        env = simcore.Environment()

        def proc(env):
            got = yield env.timeout(1.0, value="payload")
            return got

        p = env.process(proc(env))
        env.run()
        assert p.value == "payload"

    def test_same_time_fifo_order(self):
        env = simcore.Environment()
        order = []

        def proc(env, tag):
            yield env.timeout(1.0)
            order.append(tag)

        for tag in ("a", "b", "c"):
            env.process(proc(env, tag))
        env.run()
        assert order == ["a", "b", "c"]


class TestEvents:
    def test_manual_succeed(self):
        env = simcore.Environment()
        ev = env.event()

        def waiter(env, ev):
            got = yield ev
            return got

        def trigger(env, ev):
            yield env.timeout(2.0)
            ev.succeed(99)

        p = env.process(waiter(env, ev))
        env.process(trigger(env, ev))
        env.run()
        assert p.value == 99

    def test_double_trigger_rejected(self):
        env = simcore.Environment()
        ev = env.event()
        ev.succeed(1)
        with pytest.raises(SimulationError):
            ev.succeed(2)

    def test_failed_event_raises_in_process(self):
        env = simcore.Environment()
        ev = env.event()

        def waiter(env, ev):
            try:
                yield ev
            except RuntimeError as exc:
                return str(exc)

        p = env.process(waiter(env, ev))
        ev.fail(RuntimeError("boom"))
        env.run()
        assert p.value == "boom"

    def test_unhandled_failure_crashes_sim(self):
        env = simcore.Environment()
        ev = env.event()
        ev.fail(RuntimeError("unhandled"))
        with pytest.raises(RuntimeError, match="unhandled"):
            env.run()

    def test_defused_failure_ignored(self):
        env = simcore.Environment()
        ev = env.event()
        ev.fail(RuntimeError("x"))
        ev.defuse()
        env.run()  # no raise

    def test_fail_requires_exception(self):
        env = simcore.Environment()
        with pytest.raises(TypeError):
            env.event().fail("not an exception")

    def test_value_of_untriggered_event(self):
        env = simcore.Environment()
        with pytest.raises(SimulationError):
            _ = env.event().value


class TestProcesses:
    def test_yield_non_event_raises(self):
        env = simcore.Environment()

        def bad(env):
            yield "not an event"

        env.process(bad(env))
        with pytest.raises(SimulationError, match="non-event"):
            env.run()

    def test_yield_raw_number_is_plain_delay(self):
        env = simcore.Environment()
        seen = []

        def proc(env):
            got = yield 1.5
            seen.append((env.now, got))
            got = yield 2  # ints work too
            seen.append((env.now, got))

        env.process(proc(env))
        env.run()
        assert seen == [(1.5, None), (3.5, None)]

    def test_yield_negative_number_raises(self):
        env = simcore.Environment()

        def bad(env):
            yield -1.0

        env.process(bad(env))
        with pytest.raises(ValueError, match="finite"):
            env.run()

    def test_process_exception_propagates(self):
        env = simcore.Environment()

        def bad(env):
            yield env.timeout(1.0)
            raise ValueError("inside")

        env.process(bad(env))
        with pytest.raises(ValueError, match="inside"):
            env.run()

    def test_process_is_event(self):
        env = simcore.Environment()

        def inner(env):
            yield env.timeout(3.0)
            return "done"

        def outer(env):
            result = yield env.process(inner(env))
            return (result, env.now)

        p = env.process(outer(env))
        env.run()
        assert p.value == ("done", 3.0)

    def test_needs_generator(self):
        env = simcore.Environment()
        with pytest.raises(TypeError):
            env.process(lambda: None)  # type: ignore[arg-type]


class TestRawDelayLane:
    """Yielding a raw number ``d`` is the same wait as yielding ``env.timeout(d)``.

    Both push one NORMAL-priority heap entry at ``now + d``, so a model may
    use either: event times, the order of same-instant resumes and the event
    count all match. Delays come from a coarse grid so many resumes tie.
    """

    @staticmethod
    def _run(raw, seed):
        env = simcore.Environment()
        stats = env.enable_stats()
        rng = random.Random(seed)
        pool = simcore.Resource(env, 2, name="pool")
        log = []

        def wait(delay):
            return delay if raw else env.timeout(delay)

        def worker(name, delays):
            for step, delay in enumerate(delays):
                with pool.request() as claim:
                    yield claim
                    log.append((env.now, name, step, "granted"))
                    yield wait(delay)
                log.append((env.now, name, step, "released"))

        def sleeper():
            try:
                yield wait(100.0)
                log.append((env.now, "sleeper", "woke"))
            except simcore.Interrupt as interrupt:
                log.append((env.now, "sleeper", interrupt.cause))
                yield wait(0.5)
                log.append((env.now, "sleeper", "resumed"))

        def alarm(target, at):
            yield wait(at)
            target.interrupt("alarm")

        for index in range(6):
            delays = [rng.choice((0, 0.5, 1, 1.5, 2.0)) for _ in range(8)]
            env.process(worker(f"w{index}", delays), name=f"w{index}")
        target = env.process(sleeper(), name="sleeper")
        env.process(alarm(target, 3.0), name="alarm")
        env.run()
        return log, env.now, stats.events_processed

    @pytest.mark.parametrize("seed", range(5))
    def test_same_times_order_and_event_count(self, seed):
        raw_log, raw_end, raw_events = self._run(True, seed)
        event_log, event_end, event_events = self._run(False, seed)
        assert raw_log == event_log
        assert raw_end == event_end
        assert raw_events == event_events
        assert (3.0, "sleeper", "alarm") in raw_log


class TestInterrupts:
    def test_interrupt_cause(self):
        env = simcore.Environment()

        def sleeper(env):
            try:
                yield env.timeout(100.0)
            except simcore.Interrupt as interrupt:
                return (interrupt.cause, env.now)

        def killer(env, victim):
            yield env.timeout(4.0)
            victim.interrupt("reason")

        p = env.process(sleeper(env))
        env.process(killer(env, p))
        env.run()
        assert p.value == ("reason", 4.0)

    def test_interrupt_terminated_rejected(self):
        env = simcore.Environment()

        def quick(env):
            yield env.timeout(1.0)

        p = env.process(quick(env))
        env.run()
        with pytest.raises(SimulationError):
            p.interrupt()

    def test_process_survives_interrupt_and_continues(self):
        env = simcore.Environment()

        def resilient(env):
            try:
                yield env.timeout(100.0)
            except simcore.Interrupt:
                pass
            yield env.timeout(5.0)
            return env.now

        def killer(env, victim):
            yield env.timeout(2.0)
            victim.interrupt()

        p = env.process(resilient(env))
        env.process(killer(env, p))
        env.run()
        assert p.value == 7.0


class TestProcessStart:
    """A new process's first resume rides a pooled carrier at (now, URGENT).

    The expected logs were captured from the dedicated start-event
    implementation the carrier replaced; the run loop must reproduce them
    with and without loop statistics, event count included.
    """

    @pytest.mark.parametrize("instrumented", [False, True], ids=["fast-loop", "stats-loop"])
    def test_interrupt_before_first_resume(self, instrumented):
        env = simcore.Environment()
        if instrumented:
            env.enable_stats()
        log = []

        def victim():
            log.append(("start", env.now))
            try:
                yield env.event()
                log.append(("woke", env.now))
            except simcore.Interrupt as interrupt:
                log.append(("interrupted", interrupt.cause, env.now))
            yield 1.0
            log.append(("done", env.now))
            return "ok"

        target = env.process(victim())
        target.interrupt("early")  # before the start is popped
        env.run()
        # the start still runs first; the interrupt lands on the first wait
        assert log == [("start", 0.0), ("interrupted", "early", 0.0), ("done", 1.0)]
        assert (env.now, target.value) == (1.0, "ok")

    @pytest.mark.parametrize("instrumented", [False, True], ids=["fast-loop", "stats-loop"])
    def test_interrupt_from_the_spawning_process(self, instrumented):
        env = simcore.Environment()
        if instrumented:
            env.enable_stats()
        log = []

        def victim():
            log.append(("start", env.now))
            try:
                yield env.event()
            except simcore.Interrupt as interrupt:
                log.append(("interrupted", interrupt.cause, env.now))
            yield 1.0
            log.append(("done", env.now))

        def spawner():
            target = env.process(victim())
            log.append(("spawned", env.now, target.is_alive))
            target.interrupt("early")
            yield 0.5
            log.append(("spawner-done", env.now))

        env.process(spawner())
        env.run()
        assert log == [
            ("spawned", 0.0, True),
            ("start", 0.0),
            ("interrupted", "early", 0.0),
            ("spawner-done", 0.5),
            ("done", 1.0),
        ]

    def test_start_orders_against_same_instant_urgent_grants(self):
        env = simcore.Environment()
        pool = simcore.Resource(env, capacity=1)
        other = simcore.Resource(env, capacity=1)
        log = []

        def holder():
            req = pool.request()
            yield req
            yield 1.0
            pool.release(req)  # queued grant to the waiter: URGENT push
            env.process(child("c1"))  # process start: URGENT push
            claim = other.request()  # in-place grant: URGENT push
            env.process(child("c2"))
            got = yield claim
            log.append(("holder-claim", env.now, got))
            other.release(claim)

        def waiter():
            req = pool.request()
            yield req
            log.append(("waiter", env.now))
            pool.release(req)

        def child(tag):
            log.append((tag, env.now))
            yield 0
            log.append((tag + "-after-zero", env.now))

        def normal():
            yield 1.0
            log.append(("normal", env.now))

        env.process(holder())
        env.process(waiter())
        env.process(normal())
        stats = env.enable_stats()
        env.run()
        assert log == [
            ("normal", 1.0),
            ("waiter", 1.0),
            ("c1", 1.0),
            ("holder-claim", 1.0, None),
            ("c2", 1.0),
            ("c1-after-zero", 1.0),
            ("c2-after-zero", 1.0),
        ]
        assert stats.events_processed == 17

    def test_step_runs_a_start_and_a_carried_claim(self):
        env = simcore.Environment()
        pool = simcore.Resource(env, capacity=1)
        log = []

        def proc():
            req = pool.request()
            got = yield req
            log.append(("granted", env.now, got))
            yield 2.0
            pool.release(req)
            log.append(("released", env.now))

        env.process(proc())
        env.step()  # the start: the process claims and waits in the grant
        assert log == []
        env.step()  # the grant resumes the carried process in place
        assert log == [("granted", 0.0, None)]
        env.step()
        assert log[-1] == ("released", 2.0)
        env.step()  # the process's own completion event
        with pytest.raises(simcore.core.EmptySchedule):
            env.step()


class TestConditions:
    def test_all_of(self):
        env = simcore.Environment()
        e1, e2 = env.timeout(1, "a"), env.timeout(2, "b")
        got = env.run(until=simcore.all_of(env, [e1, e2]))
        assert got == {e1: "a", e2: "b"}
        assert env.now == 2.0

    def test_any_of(self):
        env = simcore.Environment()
        e1, e2 = env.timeout(1, "a"), env.timeout(2, "b")
        got = env.run(until=simcore.any_of(env, [e1, e2]))
        assert got == {e1: "a"}
        assert env.now == 1.0

    def test_empty_all_of_fires_immediately(self):
        env = simcore.Environment()
        cond = simcore.all_of(env, [])
        assert cond.triggered

    def test_failure_propagates_through_condition(self):
        env = simcore.Environment()
        good = env.timeout(1)
        bad = env.event()
        cond = simcore.all_of(env, [good, bad])
        bad.fail(RuntimeError("nope"))
        with pytest.raises(RuntimeError, match="nope"):
            env.run(until=cond)
