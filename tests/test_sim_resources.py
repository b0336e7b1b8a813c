"""Unit tests for Resource / PriorityResource / Store / Container."""

import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.errors import EventLifecycleError, SimulationError
from repro.sim import (
    Container,
    Interrupt,
    PriorityResource,
    Resource,
    Simulator,
    Store,
)


@pytest.fixture
def sim():
    return Simulator()


class TestResource:
    def test_immediate_grant_within_capacity(self, sim):
        res = Resource(sim, capacity=2)
        r1, r2 = res.request(), res.request()
        assert r1.triggered and r2.triggered
        assert res.count == 2
        sim.run()

    def test_queueing_beyond_capacity(self, sim):
        res = Resource(sim, capacity=1)
        r1 = res.request()
        r2 = res.request()
        assert r1.triggered
        assert not r2.triggered
        assert res.queue_length == 1
        res.release(r1)
        assert r2.triggered
        sim.run()

    def test_fifo_grant_order(self, sim):
        res = Resource(sim, capacity=1)
        order = []

        def user(sim, res, name, hold):
            req = res.request()
            yield req
            order.append((name, sim.now))
            yield sim.timeout(hold)
            res.release(req)

        for i in range(3):
            sim.process(user(sim, res, f"u{i}", 1.0))
        sim.run()
        assert order == [("u0", 0.0), ("u1", 1.0), ("u2", 2.0)]

    def test_release_unheld_request_raises(self, sim):
        res = Resource(sim, capacity=1)
        r1 = res.request()
        res.release(r1)
        with pytest.raises(SimulationError):
            res.release(r1)

    def test_use_helper_charges_duration(self, sim):
        res = Resource(sim, capacity=1, name="cpu")
        done = []

        def job(sim, res, name, dur):
            yield from res.use(dur)
            done.append((name, sim.now))

        sim.process(job(sim, res, "a", 2.0))
        sim.process(job(sim, res, "b", 3.0))
        sim.run()
        assert done == [("a", 2.0), ("b", 5.0)]

    def test_cancel_queued_request(self, sim):
        res = Resource(sim, capacity=1)
        r1 = res.request()
        r2 = res.request()
        r2.cancel()
        assert res.queue_length == 0
        res.release(r1)
        assert not r2.triggered
        sim.run()

    def test_cancel_granted_request_releases(self, sim):
        res = Resource(sim, capacity=1)
        r1 = res.request()
        r2 = res.request()
        r1.cancel()
        assert r2.triggered
        sim.run()

    def test_capacity_validation(self, sim):
        with pytest.raises(ValueError):
            Resource(sim, capacity=0)

    def test_occupy_idle_holds_slot_for_duration(self, sim):
        res = Resource(sim, capacity=1, name="cpu")
        res.occupy(2.0)
        assert res.count == 1
        done = []

        def job(sim, res):
            yield from res.use(1.0)
            done.append(sim.now)

        sim.process(job(sim, res))
        sim.run()
        # The requester queued behind the occupancy: 2.0 hold + 1.0 use.
        assert done == [3.0]
        assert res.count == 0

    def test_occupy_busy_queues_fifo(self, sim):
        res = Resource(sim, capacity=1, name="cpu")
        holder = res.request()  # synchronous grant occupies the slot
        res.occupy(2.0)  # busy: queued like any request
        assert res.queue_length == 1
        done = []

        def job(sim, res, name, dur):
            yield from res.use(dur)
            done.append((name, sim.now))

        sim.process(job(sim, res, "b", 1.0))

        def releaser(sim):
            yield sim.timeout(1.0)
            res.release(holder)

        sim.process(releaser(sim))
        sim.run()
        # holder [0,1], the queued occupancy [1,3], b [3,4].
        assert done == [("b", 4.0)]
        assert res.count == 0

    def test_occupy_idle_costs_one_event(self, sim):
        res = Resource(sim, capacity=1)
        before = sim.events_processed
        res.occupy(1.0)
        sim.run()
        assert sim.events_processed - before == 1

    def test_interrupted_waiter_cancels_cleanly(self, sim):
        res = Resource(sim, capacity=1)
        holder = res.request()
        got_through = []

        def waiter(sim, res):
            req = res.request()
            try:
                yield req
                got_through.append(True)
            except Interrupt:
                req.cancel()

        p = sim.process(waiter(sim, res))

        def interrupter(sim):
            yield sim.timeout(1)
            p.interrupt()
            yield sim.timeout(1)
            res.release(holder)

        sim.process(interrupter(sim))
        sim.run()
        assert got_through == []
        assert res.count == 0


class TestPriorityResource:
    def test_low_priority_number_served_first(self, sim):
        res = PriorityResource(sim, capacity=1)
        holder = res.request()
        order = []

        def waiter(sim, res, name, prio):
            req = res.request(priority=prio)
            yield req
            order.append(name)
            res.release(req)

        sim.process(waiter(sim, res, "low-urgency", 5))
        sim.process(waiter(sim, res, "high-urgency", 0))

        def releaser(sim):
            yield sim.timeout(1)
            res.release(holder)

        sim.process(releaser(sim))
        sim.run()
        assert order == ["high-urgency", "low-urgency"]

    def test_equal_priority_is_fifo(self, sim):
        res = PriorityResource(sim, capacity=1)
        holder = res.request()
        order = []

        def waiter(sim, res, name):
            req = res.request(priority=1)
            yield req
            order.append(name)
            res.release(req)

        for i in range(4):
            sim.process(waiter(sim, res, i))

        def releaser(sim):
            yield sim.timeout(1)
            res.release(holder)

        sim.process(releaser(sim))
        sim.run()
        assert order == [0, 1, 2, 3]

    def test_cancel_from_priority_queue(self, sim):
        res = PriorityResource(sim, capacity=1)
        holder = res.request()
        r2 = res.request(priority=1)
        r3 = res.request(priority=2)
        r2.cancel()
        assert res.queue_length == 1
        res.release(holder)
        assert r3.triggered
        sim.run()


class TestUseHold:
    """``use(t)`` and ``occupy(t)`` are one event: the request fires at
    grant + t, and an interrupted holder or waiter gives its slot back."""

    def test_interrupt_while_queued_frees_the_queue(self, sim):
        res = Resource(sim, capacity=1)
        done = []

        def job(name, delay):
            yield sim.timeout(delay)
            try:
                yield from res.use(1.0)
            except Interrupt:
                done.append((name, "interrupted", sim.now))
                return
            done.append((name, sim.now))

        sim.process(job("holder", 0.0))
        waiter = sim.process(job("waiter", 0.0))
        sim.process(job("third", 0.5))

        def interrupter():
            yield sim.timeout(0.25)
            waiter.interrupt()

        sim.process(interrupter())
        sim.run()
        assert done == [
            ("waiter", "interrupted", 0.25),
            ("holder", 1.0),
            ("third", 2.0),
        ]
        assert res.count == 0 and res.queue_length == 0

    def test_interrupt_mid_hold_releases_and_never_pops(self, sim):
        res = Resource(sim, capacity=1)
        done = []
        kinds = []
        sim.add_trace_hook(lambda _t, ev: kinds.append(type(ev).__name__))

        def holder():
            try:
                yield from res.use(2.0)
            except Interrupt:
                done.append(("holder", "interrupted", sim.now))

        def waiter():
            yield from res.use(1.0)
            done.append(("waiter", sim.now))

        h = sim.process(holder())
        sim.process(waiter())

        def interrupter():
            yield sim.timeout(0.5)
            h.interrupt()

        sim.process(interrupter())
        sim.run()
        assert done == [("holder", "interrupted", 0.5), ("waiter", 1.5)]
        assert res.count == 0 and res.queue_length == 0
        # The holder's tombstoned hold end never popped: one Request
        # event, the waiter's.
        assert kinds.count("Request") == 1
        assert sim.now == 1.5

    def test_closed_use_withdraws_its_request(self, sim):
        res = Resource(sim, capacity=1)
        holding = res.use(1.0)
        next(holding)
        queued = res.use(1.0)
        next(queued)
        assert res.count == 1 and res.queue_length == 1
        queued.close()
        assert res.queue_length == 0
        holding.close()
        assert res.count == 0
        sim.run()
        assert sim.events_processed == 0

    @pytest.mark.parametrize(
        "duration, exc", [(-1.0, ValueError), (float("nan"), EventLifecycleError)]
    )
    def test_invalid_duration_raises_before_claiming(self, sim, duration, exc):
        res = Resource(sim, capacity=1)
        with pytest.raises(exc):
            next(res.use(duration))
        with pytest.raises(exc):
            res.occupy(duration)
        assert res.count == 0 and res.queue_length == 0
        # The same exceptions Simulator.timeout raises.
        with pytest.raises(exc):
            sim.timeout(duration)

    def test_free_use_pops_one_event_and_no_timeout(self, sim):
        res = Resource(sim, capacity=1)
        kinds = []
        sim.add_trace_hook(lambda _t, ev: kinds.append(type(ev).__name__))

        def job():
            yield from res.use(1.0)

        sim.process(job())
        sim.run()
        # Process start, the hold, process end.
        assert kinds == ["Event", "Request", "Process"]
        assert sim.now == 1.0

    def test_each_queued_use_pops_one_event(self, sim):
        res = Resource(sim, capacity=1)
        kinds = []
        sim.add_trace_hook(lambda _t, ev: kinds.append(type(ev).__name__))
        ends = []

        def job():
            yield from res.use(1.0)
            ends.append(sim.now)

        for _ in range(4):
            sim.process(job())
        sim.run()
        assert ends == [1.0, 2.0, 3.0, 4.0]
        assert kinds.count("Request") == 4
        assert "Timeout" not in kinds
        assert sim.events_processed == 4 * 3

    def test_occupy_busy_costs_one_event(self, sim):
        res = Resource(sim, capacity=1)
        holder = res.request()
        req = res.occupy(2.0)
        assert res.queue_length == 1
        sim.run()
        before = sim.events_processed
        res.release(holder)
        assert res.count == 1
        sim.run()
        assert sim.events_processed - before == 1
        assert sim.now == 2.0 and res.count == 0
        assert req.processed

    def test_priority_use_queues_by_priority(self, sim):
        res = PriorityResource(sim, capacity=1)
        order = []

        def job(name, prio):
            yield from res.use(1.0, priority=prio)
            order.append((name, sim.now))

        sim.process(job("first", 9))
        sim.process(job("low", 5))
        sim.process(job("high", 0))
        sim.run()
        assert order == [("first", 1.0), ("high", 2.0), ("low", 3.0)]


class TestStore:
    def test_put_then_get(self, sim):
        store = Store(sim)
        store.put("x")
        got = store.get()
        assert got.triggered
        sim.run()
        assert got.value == "x"

    def test_get_blocks_until_put(self, sim):
        store = Store(sim)
        results = []

        def consumer(sim, store):
            v = yield store.get()
            results.append((sim.now, v))

        def producer(sim, store):
            yield sim.timeout(3)
            yield store.put("late")

        sim.process(consumer(sim, store))
        sim.process(producer(sim, store))
        sim.run()
        assert results == [(3.0, "late")]

    def test_fifo_ordering(self, sim):
        store = Store(sim)
        for i in range(5):
            store.put(i)
        out = []

        def consumer(sim, store):
            for _ in range(5):
                v = yield store.get()
                out.append(v)

        sim.process(consumer(sim, store))
        sim.run()
        assert out == [0, 1, 2, 3, 4]

    def test_capacity_blocks_putters(self, sim):
        store = Store(sim, capacity=2)
        p1, p2, p3 = store.put(1), store.put(2), store.put(3)
        assert p1.triggered and p2.triggered
        assert not p3.triggered
        g = store.get()
        assert g.triggered
        assert p3.triggered  # freed slot goes to the queued putter
        sim.run()

    def test_try_put_try_get(self, sim):
        store = Store(sim, capacity=1)
        assert store.try_put("a") is True
        assert store.try_put("b") is False
        ok, v = store.try_get()
        assert ok and v == "a"
        ok, v = store.try_get()
        assert not ok and v is None
        sim.run()

    def test_peek(self, sim):
        store = Store(sim)
        store.put("first")
        store.put("second")
        assert store.peek() == "first"
        assert store.size == 2
        sim.run()

    def test_peek_empty_raises(self, sim):
        with pytest.raises(SimulationError):
            Store(sim).peek()

    def test_cancel_get(self, sim):
        store = Store(sim)
        g = store.get()
        store.cancel_get(g)
        store.put("x")
        assert not g.triggered
        assert store.size == 1
        sim.run()

    def test_cancel_put(self, sim):
        store = Store(sim, capacity=1)
        store.put("a")
        p = store.put("b")
        store.cancel_put(p)
        g1 = store.get()
        g2 = store.get()
        assert g1.triggered
        assert not g2.triggered
        sim.run()

    def test_multiple_blocked_getters_fifo(self, sim):
        store = Store(sim)
        results = []

        def consumer(sim, store, name):
            v = yield store.get()
            results.append((name, v))

        for i in range(3):
            sim.process(consumer(sim, store, i))

        def producer(sim, store):
            yield sim.timeout(1)
            for v in "abc":
                yield store.put(v)

        sim.process(producer(sim, store))
        sim.run()
        assert results == [(0, "a"), (1, "b"), (2, "c")]

    def test_invalid_capacity(self, sim):
        with pytest.raises(ValueError):
            Store(sim, capacity=0)


class TestContainer:
    def test_initial_level(self, sim):
        c = Container(sim, capacity=10, init=4)
        assert c.level == 4

    def test_get_blocks_until_enough(self, sim):
        c = Container(sim, capacity=10, init=1)
        done = []

        def taker(sim, c):
            yield c.get(3)
            done.append(sim.now)

        def giver(sim, c):
            yield sim.timeout(1)
            yield c.put(1)
            yield sim.timeout(1)
            yield c.put(1)

        sim.process(taker(sim, c))
        sim.process(giver(sim, c))
        sim.run()
        assert done == [2.0]
        assert c.level == 0

    def test_put_blocks_at_capacity(self, sim):
        c = Container(sim, capacity=2, init=2)
        p = c.put(1)
        assert not p.triggered
        g = c.get(1)
        assert g.triggered
        assert p.triggered
        assert c.level == 2
        sim.run()

    def test_fifo_getters_big_head_blocks_small(self, sim):
        c = Container(sim, capacity=10, init=0)
        order = []

        def taker(sim, c, name, amount):
            yield c.get(amount)
            order.append(name)

        sim.process(taker(sim, c, "big", 5))
        sim.process(taker(sim, c, "small", 1))

        def giver(sim, c):
            yield sim.timeout(1)
            yield c.put(5)
            yield sim.timeout(1)
            yield c.put(1)

        sim.process(giver(sim, c))
        sim.run()
        # The big getter arrived first, so units go to it even though the
        # small one could have been served earlier.
        assert order == ["big", "small"]

    def test_validation(self, sim):
        with pytest.raises(ValueError):
            Container(sim, capacity=0)
        with pytest.raises(ValueError):
            Container(sim, capacity=5, init=6)
        c = Container(sim, capacity=5)
        with pytest.raises(ValueError):
            c.get(0)
        with pytest.raises(ValueError):
            c.put(6)


class TestPutNowait:
    """``put_nowait`` moves items like ``put`` but schedules no event."""

    def test_unobserved_put_nowait_processes_no_events(self, sim):
        store = Store(sim)
        credits = Container(sim, init=0)
        store.put_nowait("x")
        credits.put_nowait(3)
        sim.run()
        assert sim.events_processed == 0
        assert store.size == 1 and credits.level == 3

    def test_put_nowait_to_waiting_getter_is_one_event(self, sim):
        store = Store(sim)
        got = store.get()
        store.put_nowait("x")
        sim.run()
        assert sim.events_processed == 1
        assert got.value == "x"
        assert store.size == 0

    def test_container_put_nowait_to_waiting_getter_is_one_event(self, sim):
        credits = Container(sim, init=0)
        got = credits.get(2)
        credits.put_nowait(2)
        sim.run()
        assert sim.events_processed == 1
        assert got.processed and credits.level == 0

    def test_try_put_try_get_schedule_nothing(self, sim):
        store = Store(sim, capacity=2)
        assert store.try_put("a") and store.try_put("b")
        assert not store.try_put("c")
        assert store.try_get() == (True, "a")
        sim.run()
        assert sim.events_processed == 0
        assert store.size == 1

    def test_full_store_keeps_fifo_with_blocked_putters(self, sim):
        store = Store(sim, capacity=1)
        store.put_nowait("a")
        p_b = store.put("b")
        store.put_nowait("c")
        p_d = store.put("d")
        assert not p_b.triggered and not p_d.triggered
        out = []

        def consumer():
            for _ in range(4):
                out.append((yield store.get()))

        sim.process(consumer())
        sim.run()
        assert out == ["a", "b", "c", "d"]
        assert p_b.processed and p_d.processed

    def test_try_get_admits_blocked_put_nowait(self, sim):
        store = Store(sim, capacity=1)
        store.put_nowait("a")
        store.put_nowait("b")
        assert store.size == 1
        assert store.try_get() == (True, "a")
        assert store.try_get() == (True, "b")
        assert store.try_get() == (False, None)

    def test_full_container_keeps_fifo_with_blocked_putters(self, sim):
        credits = Container(sim, capacity=2, init=2)
        p1 = credits.put(1)
        credits.put_nowait(2)
        p3 = credits.put(1)
        credits.get(1)
        assert p1.triggered and credits.level == 2
        credits.get(2)
        # The event-less 2 is ahead of p3 in the FIFO, so it is admitted
        # first and p3 stays blocked although it alone would fit.
        assert credits.level == 2 and not p3.triggered
        credits.get(1)
        assert p3.triggered and credits.level == 2
        sim.run()

    def test_container_put_nowait_validation(self, sim):
        credits = Container(sim, capacity=5)
        with pytest.raises(ValueError):
            credits.put_nowait(0)
        with pytest.raises(ValueError):
            credits.put_nowait(6)


def _store_script_log(ops, capacity, nowait):
    """Run *ops* against one Store; return the getter log, the buffered
    size after each op, and the event count.

    Every put is unobserved: ``put_nowait`` when *nowait*, else the
    ``put()`` + ``defused`` idiom it replaces.  A final drain with
    ``try_get`` admits any putters still blocked, so every ``put()``
    event fires.
    """
    sim = Simulator()
    store = Store(sim, capacity=capacity)
    log = []
    sizes = []

    def getter():
        value = yield store.get()
        log.append((value, sim.now))

    def driver():
        for op, arg in ops:
            if op == "put":
                if nowait:
                    store.put_nowait(arg)
                else:
                    ev = store.put(arg)
                    ev.defused = True
            elif op == "get":
                sim.process(getter())
            elif op == "try_get":
                ok, value = store.try_get()
                if ok:
                    log.append((value, sim.now))
            else:
                yield sim.timeout(arg)
            sizes.append(store.size)
        while True:
            ok, value = store.try_get()
            if not ok:
                break
            log.append((value, sim.now))

    sim.process(driver())
    sim.run()
    return log, sizes, sim.events_processed


_STORE_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("put"), st.integers(0, 99)),
        st.tuples(st.just("get"), st.none()),
        st.tuples(st.just("try_get"), st.none()),
        st.tuples(st.just("wait"), st.sampled_from([0.0, 0.5, 1.0])),
    ),
    max_size=40,
)


@settings(max_examples=150, deadline=None)
@given(ops=_STORE_OPS, capacity=st.sampled_from([float("inf"), 1, 2, 3]))
def test_put_nowait_matches_defused_put(ops, capacity):
    old_log, old_sizes, old_events = _store_script_log(ops, capacity, nowait=False)
    new_log, new_sizes, new_events = _store_script_log(ops, capacity, nowait=True)
    assert new_log == old_log
    assert new_sizes == old_sizes
    n_puts = sum(1 for op, _ in ops if op == "put")
    assert old_events - new_events == n_puts


def test_no_module_drops_a_put_event():
    """Fire-and-forget producers use ``put_nowait``: a ``put()`` whose
    event is only defused and dropped still costs a heap entry."""
    src = Path(repro.__file__).resolve().parent
    dropped = re.compile(
        r"(\w+)\s*=\s*[^\n]*\.put\([^\n]*\)\s*\n\s*\1\.defused\s*=\s*True"
        r"|\.put\([^\n]*\)\.defused\s*=\s*True"
    )
    offenders = [
        str(path.relative_to(src))
        for path in sorted(src.rglob("*.py"))
        if dropped.search(path.read_text())
    ]
    assert offenders == []


def _two_event_use(res, duration, priority, requests):
    """Reference: ``use`` as a grant event then a separate timeout.

    The earlier implementation, except that a withdrawn waiter cancels
    its request and an interrupted holder cancels its timeout, so that
    it differs from :meth:`Resource.use` only in event count.  Each
    request is appended to *requests*.
    """
    req = res.request(priority)
    requests.append(req)
    timer = None
    try:
        yield req
        timer = res.sim.timeout(duration)
        yield timer
    except BaseException:
        if timer is not None:
            timer.cancel()
        req.cancel()
        raise
    res.release(req)


def _use_script_log(jobs, interrupts, capacity, prioritized, reference):
    """Run *jobs* against one resource; return the ``(name, start, end)``
    log, the events processed and the number of granted holds.

    Each job waits for its arrival, then runs its holds in series; an
    interrupt ends the job.  All waits are scheduled at time 0, before
    any claim, so both ``use`` implementations see the same ties.
    """
    sim = Simulator()
    res = (PriorityResource if prioritized else Resource)(sim, capacity=capacity)
    log = []
    requests = []
    procs = []

    def job(name, arrival, holds):
        try:
            yield sim.timeout(arrival)
            for duration, priority in holds:
                start = sim.now
                if reference:
                    yield from _two_event_use(res, duration, priority, requests)
                else:
                    yield from res.use(duration, priority)
                log.append((name, start, sim.now))
        except Interrupt:
            log.append((name, "interrupted", sim.now))

    def interrupter(target, at):
        yield sim.timeout(at)
        if procs[target].is_alive:
            procs[target].interrupt()

    for i, (arrival, holds) in enumerate(jobs):
        procs.append(sim.process(job(i, arrival, holds)))
    for target, at in interrupts:
        sim.process(interrupter(target % len(jobs), at))
    sim.run()
    assert res.count == 0 and res.queue_length == 0
    return log, sim.events_processed, sum(req.triggered for req in requests)


_TIMES = st.sampled_from([0.0, 0.5, 1.0, 1.5])
_USE_JOBS = st.lists(
    st.tuples(
        _TIMES,
        st.lists(
            st.tuples(st.sampled_from([0.0, 0.5, 1.0]), st.integers(0, 2)),
            min_size=1,
            max_size=3,
        ),
    ),
    min_size=1,
    max_size=6,
)


@settings(max_examples=200, deadline=None)
@given(
    jobs=_USE_JOBS,
    interrupts=st.lists(st.tuples(st.integers(0, 5), _TIMES), max_size=3),
    capacity=st.integers(1, 3),
    prioritized=st.booleans(),
)
def test_one_event_use_matches_two_event_use(jobs, interrupts, capacity, prioritized):
    old_log, old_events, n_granted = _use_script_log(
        jobs, interrupts, capacity, prioritized, reference=True
    )
    new_log, new_events, _ = _use_script_log(
        jobs, interrupts, capacity, prioritized, reference=False
    )
    assert new_log == old_log
    assert old_events - new_events == n_granted
