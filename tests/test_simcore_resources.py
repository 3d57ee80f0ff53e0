"""Tests for DES resources: capacity, stats, priority, stores, containers."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import simcore
from repro.errors import SimulationError


def _worker(env, pool, hold, log=None):
    with pool.request() as req:
        yield req
        if log is not None:
            log.append(("start", env.now))
        yield env.timeout(hold)
    if log is not None:
        log.append(("end", env.now))


class TestResource:
    def test_capacity_serializes(self):
        env = simcore.Environment()
        pool = simcore.Resource(env, capacity=1)
        log = []
        env.process(_worker(env, pool, 2.0, log))
        env.process(_worker(env, pool, 2.0, log))
        env.run()
        assert log == [("start", 0.0), ("end", 2.0), ("start", 2.0), ("end", 4.0)]

    def test_parallel_within_capacity(self):
        env = simcore.Environment()
        pool = simcore.Resource(env, capacity=3)
        done = []
        for _ in range(3):
            env.process(_worker(env, pool, 5.0, done))
        env.run()
        assert env.now == 5.0

    def test_capacity_validated(self):
        env = simcore.Environment()
        with pytest.raises(ValueError):
            simcore.Resource(env, capacity=0)

    def test_occupancy_full(self):
        env = simcore.Environment()
        pool = simcore.Resource(env, capacity=1)
        env.process(_worker(env, pool, 10.0))
        env.run()
        assert pool.occupancy() == pytest.approx(1.0)

    def test_occupancy_half(self):
        env = simcore.Environment()
        pool = simcore.Resource(env, capacity=2)
        env.process(_worker(env, pool, 10.0))
        env.run()
        assert pool.occupancy() == pytest.approx(0.5)

    def test_wait_times_recorded(self):
        env = simcore.Environment()
        pool = simcore.Resource(env, capacity=1)
        env.process(_worker(env, pool, 3.0))
        env.process(_worker(env, pool, 3.0))
        env.run()
        waits = pool.stats.wait_times
        assert waits.count == 2
        assert waits.maximum == pytest.approx(3.0)
        assert waits.minimum == pytest.approx(0.0)

    def test_release_unqueues_cancelled_request(self):
        env = simcore.Environment()
        pool = simcore.Resource(env, capacity=1)

        def holder(env):
            with pool.request() as req:
                yield req
                yield env.timeout(10.0)

        def impatient(env):
            req = pool.request()
            result = yield simcore.any_of(env, [req, env.timeout(1.0)])
            if req not in result:
                pool.release(req)  # cancel
                return "gave-up"
            pool.release(req)
            return "served"

        env.process(holder(env))
        p = env.process(impatient(env))
        env.run()
        assert p.value == "gave-up"
        assert pool.queue_length == 0

    def test_queue_integral_counts_only_time_spent_queued(self):
        """A request queued at t=10 waits 5 s by t=15, not 15 s."""
        env = simcore.Environment()
        pool = simcore.Resource(env, capacity=1)

        def holder(env):
            with pool.request() as req:
                yield req
                yield env.timeout(100.0)

        def late(env):
            yield env.timeout(10.0)
            with pool.request() as req:
                yield req

        env.process(holder(env))
        env.process(late(env))
        env.run(until=15.0)
        assert pool.occupancy() == 1.0
        assert pool.queue_length == 1
        assert pool.stats.queue_integral == 5.0
        assert pool.stats.mean_queue_length(env.now) == pytest.approx(5.0 / 15.0)

    @given(capacity=st.integers(1, 5), jobs=st.integers(1, 15), hold=st.floats(0.5, 3.0))
    @settings(max_examples=30, deadline=None)
    def test_invariants(self, capacity, jobs, hold):
        """Makespan and occupancy follow from capacity for identical jobs."""
        env = simcore.Environment()
        pool = simcore.Resource(env, capacity=capacity)
        for _ in range(jobs):
            env.process(_worker(env, pool, hold))
        env.run()
        import math

        waves = math.ceil(jobs / capacity)
        assert env.now == pytest.approx(waves * hold)
        # total busy time = jobs * hold
        assert pool.busy_integral() == pytest.approx(jobs * hold)


class TestPriorityResource:
    def test_priority_order(self):
        env = simcore.Environment()
        pool = simcore.PriorityResource(env, capacity=1)
        order = []

        def job(env, priority, tag):
            req = pool.request(priority=priority)
            yield req
            order.append(tag)
            yield env.timeout(1.0)
            pool.release(req)

        def submit(env):
            # occupy the server so the queue actually forms
            first = pool.request(priority=0)
            yield first
            env.process(job(env, 5, "low"))
            env.process(job(env, 1, "high"))
            env.process(job(env, 3, "mid"))
            yield env.timeout(1.0)
            pool.release(first)

        env.process(submit(env))
        env.run()
        assert order == ["high", "mid", "low"]

    def test_fifo_within_priority(self):
        env = simcore.Environment()
        pool = simcore.PriorityResource(env, capacity=1)
        order = []

        def job(env, tag):
            req = pool.request(priority=1)
            yield req
            order.append(tag)
            pool.release(req)

        def submit(env):
            blocker = pool.request()
            yield blocker
            for tag in ("first", "second"):
                env.process(job(env, tag))
            yield env.timeout(1.0)
            pool.release(blocker)

        env.process(submit(env))
        env.run()
        assert order == ["first", "second"]


class TestStore:
    def test_fifo_items(self):
        env = simcore.Environment()
        store = simcore.Store(env)

        def producer(env):
            for i in range(3):
                yield env.timeout(1.0)
                yield store.put(i)

        def consumer(env, got):
            for _ in range(3):
                item = yield store.get()
                got.append((env.now, item))

        got = []
        env.process(producer(env))
        env.process(consumer(env, got))
        env.run()
        assert [item for _, item in got] == [0, 1, 2]

    def test_bounded_capacity_blocks_put(self):
        env = simcore.Environment()
        store = simcore.Store(env, capacity=1)
        log = []

        def producer(env):
            yield store.put("a")
            log.append(("put-a", env.now))
            yield store.put("b")
            log.append(("put-b", env.now))

        def consumer(env):
            yield env.timeout(5.0)
            item = yield store.get()
            log.append((f"got-{item}", env.now))

        env.process(producer(env))
        env.process(consumer(env))
        env.run()
        assert ("put-b", 5.0) in log


class TestContainer:
    def test_levels(self):
        env = simcore.Environment()
        tank = simcore.Container(env, capacity=10.0, init=5.0)

        def drain(env):
            yield tank.get(3.0)
            return tank.level

        p = env.process(drain(env))
        env.run()
        assert p.value == 2.0

    def test_get_blocks_until_put(self):
        env = simcore.Environment()
        tank = simcore.Container(env, capacity=10.0)

        def getter(env):
            yield tank.get(4.0)
            return env.now

        def putter(env):
            yield env.timeout(7.0)
            yield tank.put(4.0)

        p = env.process(getter(env))
        env.process(putter(env))
        env.run()
        assert p.value == 7.0

    def test_validation(self):
        env = simcore.Environment()
        with pytest.raises(ValueError):
            simcore.Container(env, capacity=0)
        with pytest.raises(ValueError):
            simcore.Container(env, capacity=1.0, init=2.0)
        tank = simcore.Container(env, capacity=1.0)
        with pytest.raises(ValueError):
            tank.put(0)
        with pytest.raises(ValueError):
            tank.get(-1)


@pytest.fixture(params=[False, True], ids=["fast-loop", "stats-loop"])
def make_env(request):
    """An environment without or with loop statistics (one run loop either way)."""

    def make():
        env = simcore.Environment()
        if request.param:
            env.enable_stats()
        return env

    return make


class TestCarriedClaims:
    """A granted claim resumes the process that yielded it without a callback.

    The expected logs were captured from the callback-list implementation
    the carrier protocol replaced; the run loop must reproduce them with
    and without loop statistics.
    """

    def test_interrupt_while_in_place_grant_is_on_heap(self, make_env):
        env = make_env()
        pool = simcore.Resource(env, capacity=1)
        log = []

        def victim():
            req = pool.request()
            try:
                yield req
                log.append(("granted", env.now))
            except simcore.Interrupt as interrupt:
                log.append(
                    ("interrupted", interrupt.cause, env.now, req.triggered, req.processed,
                     len(pool.users))
                )
                pool.release(req)
            yield 1.0
            log.append(("victim-done", env.now, len(pool.users), pool.stats.grants,
                        pool.stats.releases))

        def killer(target):
            log.append(("killer", env.now, len(pool.users)))
            target.interrupt("now")
            yield 0
            log.append(("killer-after", env.now))

        target = env.process(victim())
        env.process(killer(target))
        env.run()
        assert log == [
            ("killer", 0.0, 1),
            ("interrupted", "now", 0.0, True, True, 1),
            ("killer-after", 0.0),
            ("victim-done", 1.0, 0, 1, 1),
        ]
        assert env.now == 1.0

    def test_interrupt_while_queued_grant_is_on_heap(self, make_env):
        env = make_env()
        pool = simcore.Resource(env, capacity=1)
        log = []
        victims = []

        def holder():
            req = pool.request()
            yield req
            yield 2.0
            pool.release(req)  # grants the victim's claim: an URGENT push
            log.append(("released", env.now, len(pool.users), pool.queue_length))
            victims[0].interrupt("grant-in-flight")

        def victim():
            req = pool.request()
            try:
                yield req
                log.append(("granted", env.now))
            except simcore.Interrupt as interrupt:
                log.append(("interrupted", interrupt.cause, env.now, req.triggered, req.processed))
            finally:
                pool.release(req)
            log.append(("after", env.now, len(pool.users), pool.queue_length))
            other = pool.request()
            yield other
            log.append(("other", env.now))
            pool.release(other)

        env.process(holder())
        victims.append(env.process(victim()))
        env.run()
        assert log == [
            ("released", 2.0, 1, 0),
            ("interrupted", "grant-in-flight", 2.0, True, True),
            ("after", 2.0, 0, 0),
            ("other", 2.0),
        ]
        stats = pool.stats
        assert (env.now, stats.grants, stats.releases) == (2.0, 3, 3)
        assert (stats.busy_integral, stats.queue_integral) == (2.0, 2.0)

    @pytest.mark.parametrize("queued", [False, True], ids=["free", "queued"])
    def test_yielding_a_claim_a_condition_already_observes(self, make_env, queued):
        env = make_env()
        pool = simcore.Resource(env, capacity=1)
        log = []
        shared = {}

        def blocker():
            req = pool.request()
            yield req
            yield 1.5
            pool.release(req)

        def owner():
            req = pool.request()
            shared["cond"] = simcore.any_of(env, [req, env.timeout(3.0)])
            got = yield req
            log.append(("owner", env.now, got, shared["cond"].triggered))
            yield 0.5
            pool.release(req)
            log.append(("owner-released", env.now))

        def watcher():
            yield 0
            got = yield shared["cond"]
            log.append(("watcher", env.now, sorted(type(key).__name__ for key in got)))

        if queued:
            env.process(blocker())
        env.process(owner())
        env.process(watcher())
        env.run()
        t = 1.5 if queued else 0.0
        assert log == [
            ("owner", t, None, True),
            ("watcher", t, ["Request"]),
            ("owner-released", t + 0.5),
        ]
        assert env.now == 3.0

    @pytest.mark.parametrize("queued", [False, True], ids=["free", "queued"])
    def test_two_processes_yield_the_same_claim(self, make_env, queued):
        env = make_env()
        pool = simcore.Resource(env, capacity=1)
        log = []
        shared = {}

        def blocker():
            req = pool.request()
            yield req
            yield 1.0
            pool.release(req)

        def first():
            req = shared["req"] = pool.request()
            got = yield req
            log.append(("first", env.now, got))
            yield 0.25
            log.append(("first-again", env.now))
            pool.release(req)

        def second():
            got = yield shared["req"]
            log.append(("second", env.now, got, len(pool.users)))
            got = yield shared["req"]  # already processed: continues at once
            log.append(("second-again", env.now, got))

        if queued:
            env.process(blocker())
        env.process(first())
        env.process(second())
        env.run()
        t = 1.0 if queued else 0.0
        assert log == [
            ("first", t, None),
            ("second", t, None, 1),
            ("second-again", t, None),
            ("first-again", t + 0.25),
        ]

    def test_in_place_grants_on_a_priority_resource(self, make_env):
        env = make_env()
        pool = simcore.PriorityResource(env, capacity=2)
        log = []

        def job(tag, priority, delay, hold):
            yield delay
            req = pool.request(priority=priority)
            log.append(("req", tag, env.now, req.triggered, pool.queue_length))
            yield req
            log.append(("got", tag, env.now))
            yield hold
            pool.release(req)
            log.append(("rel", tag, env.now))

        spec = [
            ("a", 5, 0, 2.0), ("b", 5, 0, 3.0), ("c", 3, 0.5, 1.0), ("d", 1, 0.5, 1.0),
            ("e", 2, 1.0, 0.5), ("f", 0, 2.0, 0.5), ("g", 0, 6.0, 0.5), ("h", 9, 6.0, 0.5),
        ]
        for tag, priority, delay, hold in spec:
            env.process(job(tag, priority, delay, hold))
        env.run()
        assert log == [
            ("req", "a", 0.0, True, 0), ("got", "a", 0.0),
            ("req", "b", 0.0, True, 0), ("got", "b", 0.0),
            ("req", "c", 0.5, False, 1), ("req", "d", 0.5, False, 2),
            ("req", "e", 1.0, False, 3), ("req", "f", 2.0, False, 4),
            ("rel", "a", 2.0), ("got", "f", 2.0),
            ("rel", "f", 2.5), ("got", "d", 2.5),
            ("rel", "b", 3.0), ("got", "e", 3.0),
            ("rel", "d", 3.5), ("got", "c", 3.5),
            ("rel", "e", 3.5), ("rel", "c", 4.5),
            ("req", "g", 6.0, True, 0), ("got", "g", 6.0),
            ("req", "h", 6.0, True, 0), ("got", "h", 6.0),
            ("rel", "g", 6.5), ("rel", "h", 6.5),
        ]
        stats = pool.stats
        waits = stats.wait_times
        assert (env.now, stats.grants, stats.releases) == (6.5, 8, 8)
        assert (waits.count, waits.mean, waits.maximum) == (8, 0.875, 3.0)
        assert (stats.busy_integral, stats.queue_integral) == (9.0, 7.0)


class TestRelease:
    def test_release_through_another_resource_raises(self):
        env = simcore.Environment()
        a = simcore.Resource(env, capacity=1, name="a")
        b = simcore.Resource(env, capacity=1, name="b")
        req = a.request()
        with pytest.raises(SimulationError, match="'a'.*'b'"):
            b.release(req)
        assert a.users == [req]
        assert b.stats.releases == 0
        a.release(req)
        assert a.users == []

    def test_cancel_and_interrupted_exit_still_work(self):
        env = simcore.Environment()
        pool = simcore.Resource(env, capacity=1)
        log = []

        def holder():
            with pool.request() as req:
                yield req
                yield 5.0

        def waiter():
            try:
                with pool.request() as req:
                    yield req
                    log.append("granted")
            except simcore.Interrupt:
                log.append(("interrupted", env.now, pool.queue_length))

        def killer(target):
            yield 1.0
            target.interrupt()

        env.process(holder())
        env.process(killer(env.process(waiter())))
        env.run()
        assert log == [("interrupted", 1.0, 0)]
        assert pool.users == [] and pool.queue_length == 0


# -- in-place grants: run() against step() -----------------------------------

_HOLD = st.sampled_from([0, 0.5, 1, 1.5])
_OPS = st.one_of(
    st.tuples(st.just("delay"), _HOLD),
    st.tuples(st.just("timeout"), _HOLD),
    # (op, pool, priority, hold, spawn a child before the request, push an
    # event after it, callback added before the yield, yield it again)
    st.tuples(
        st.just("claim"),
        st.integers(0, 1),
        st.integers(0, 3),
        _HOLD,
        st.booleans(),
        st.booleans(),
        st.booleans(),
        st.booleans(),
    ),
    # a second process waits on the same claim; with ``chain`` the owner
    # then claims the other pool at once, while the waiter is still due
    st.tuples(st.just("shared"), st.integers(0, 1), _HOLD, st.booleans()),
)
_SCRIPTS = st.lists(st.lists(_OPS, min_size=1, max_size=6), min_size=1, max_size=5)
_INTERRUPTS = st.lists(st.tuples(st.sampled_from([0, 0.5, 1, 2]), st.integers(0, 4)), max_size=3)


def _run_script(driver, scripts, interrupts, capacities):
    """Run the process ``scripts``; returns the ``(time, process, step, ...)`` trace.

    ``driver`` is ``"step"`` (``env.step()`` until the heap is empty),
    ``"stats"`` (``env.run()`` with loop statistics) or ``"run"``; the
    first two also return the loop statistics.
    """
    env = simcore.Environment()
    stats = env.enable_stats() if driver != "run" else None
    pools = [
        simcore.Resource(env, capacities[0], name="fifo"),
        simcore.PriorityResource(env, capacities[1], name="prio"),
    ]
    log = []

    def child(name, claim):
        got = yield claim
        log.append((env.now, name, "child", got))

    def waiter(name, claim):
        got = yield claim
        log.append((env.now, name, "shared-waiter", got, claim.processed))

    def worker(name, ops):
        for step, op in enumerate(ops):
            try:
                kind = op[0]
                if kind == "delay":
                    yield op[1]
                elif kind == "timeout":
                    yield env.timeout(op[1])
                elif kind == "claim":
                    _, index, priority, hold, spawn, push, callback, again = op
                    pool = pools[index]
                    if spawn:
                        env.process(child(f"{name}.{step}", env.timeout(0)))
                    with pool.request(priority=priority) as claim:
                        if push:
                            env.timeout(0)
                            env.process(child(f"{name}.{step}+", claim))
                        if callback:
                            claim.callbacks.append(
                                lambda event, tag=(name, step): log.append((env.now, *tag, "cb"))
                            )
                        got = yield claim
                        log.append((env.now, name, step, "granted", got))
                        if again:
                            got = yield claim
                            log.append((env.now, name, step, "again", got))
                        yield hold
                else:
                    _, index, hold, chain = op
                    with pools[index].request() as claim:
                        env.process(waiter(f"{name}.{step}", claim))
                        yield claim
                        log.append((env.now, name, step, "shared"))
                        if chain:
                            with pools[1 - index].request() as other:
                                got = yield other
                                log.append((env.now, name, step, "chained", got))
                                yield hold
                        yield hold
                log.append((env.now, name, step, "done"))
            except simcore.Interrupt as interrupt:
                log.append((env.now, name, step, "interrupted", interrupt.cause))

    def interrupter(targets):
        for delay, index in interrupts:
            yield delay
            target = targets[index % len(targets)]
            if target.is_alive:
                target.interrupt(f"at {env.now}")

    targets = [env.process(worker(f"w{i}", ops), name=f"w{i}") for i, ops in enumerate(scripts)]
    env.process(interrupter(targets), name="interrupter")
    if driver == "step":
        while env.peek() < float("inf"):
            env.step()
    else:
        env.run()
    ends = [
        (p.stats.grants, p.stats.releases, p.stats.busy_integral, p.stats.queue_integral,
         p.stats.wait_times.count, p.stats.wait_times.mean if p.stats.wait_times.count else None)
        for p in pools
    ]
    if stats is not None:
        ends.append(
            (stats.events_processed, stats.first_event_time, stats.last_event_time,
             stats.max_queue_depth)
        )
    return log, env.now, ends


class TestInPlaceGrantDifferential:
    """``run()`` pops an immediate grant and resumes in place.

    Random process scripts on a FIFO and a priority pool must give the
    same trace, and ``run()`` must derive the same loop statistics, as
    ``step()``, which dispatches every heap entry through the general
    path and counts each: claims yielded after other events were
    pushed, claims yielded again once processed (also with an empty
    heap), callbacks added before the yield, two waiters on one claim and
    interrupts while queued.
    """

    @settings(max_examples=200, deadline=None)
    @given(
        scripts=_SCRIPTS,
        interrupts=_INTERRUPTS,
        capacities=st.tuples(st.integers(1, 3), st.integers(1, 3)),
    )
    def test_run_matches_step(self, scripts, interrupts, capacities):
        stepped = _run_script("step", scripts, interrupts, capacities)
        assert _run_script("stats", scripts, interrupts, capacities) == stepped
        log, now, ends = stepped
        assert _run_script("run", scripts, interrupts, capacities) == (log, now, ends[:-1])

    def test_claim_yielded_again_on_an_empty_heap(self):
        for stats in (False, True):
            env = simcore.Environment()
            if stats:
                env.enable_stats()
            pool = simcore.Resource(env, capacity=1)
            log = []

            def proc():
                claim = pool.request()
                log.append((yield claim))
                assert env.peek() == float("inf")  # nothing left on the heap
                log.append((yield claim))
                pool.release(claim)

            env.process(proc())
            env.run()
            assert log == [None, None]
