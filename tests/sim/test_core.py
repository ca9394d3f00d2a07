"""Unit tests for the DES kernel (repro.sim.core)."""

import pytest

from repro.sim import Resource, SimulationError, Simulator, Store


def test_clock_starts_at_zero():
    sim = Simulator()
    assert sim.now == 0.0


def test_timeout_advances_clock():
    sim = Simulator()
    sim.timeout(5.0)
    sim.run()
    assert sim.now == 5.0


def test_run_until_stops_clock_exactly():
    sim = Simulator()
    sim.timeout(100.0)
    sim.run(until=30.0)
    assert sim.now == 30.0


def test_run_until_in_past_raises():
    sim = Simulator()
    sim.timeout(10.0)
    sim.run()
    with pytest.raises(SimulationError):
        sim.run(until=5.0)


def test_negative_timeout_raises():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.timeout(-1.0)


def test_process_sequences_timeouts():
    sim = Simulator()
    trace = []

    def proc():
        trace.append(sim.now)
        yield sim.timeout(2.0)
        trace.append(sim.now)
        yield sim.timeout(3.0)
        trace.append(sim.now)

    sim.process(proc())
    sim.run()
    assert trace == [0.0, 2.0, 5.0]


def test_process_return_value():
    sim = Simulator()

    def proc():
        yield sim.timeout(1.0)
        return 42

    p = sim.process(proc())
    sim.run()
    assert p.triggered and p.value == 42


def test_process_is_waitable():
    sim = Simulator()
    result = []

    def child():
        yield sim.timeout(4.0)
        return "done"

    def parent():
        value = yield sim.process(child())
        result.append((sim.now, value))

    sim.process(parent())
    sim.run()
    assert result == [(4.0, "done")]


def test_timeout_value_passthrough():
    sim = Simulator()
    got = []

    def proc():
        v = yield sim.timeout(1.0, value="payload")
        got.append(v)

    sim.process(proc())
    sim.run()
    assert got == ["payload"]


def test_event_succeed_wakes_waiter():
    sim = Simulator()
    ev = sim.event()
    got = []

    def waiter():
        v = yield ev
        got.append((sim.now, v))

    def trigger():
        yield sim.timeout(7.0)
        ev.succeed("go")

    sim.process(waiter())
    sim.process(trigger())
    sim.run()
    assert got == [(7.0, "go")]


def test_event_triggered_twice_raises():
    sim = Simulator()
    ev = sim.event()
    ev.succeed()
    with pytest.raises(SimulationError):
        ev.succeed()


def test_yielding_a_non_event_raises():
    sim = Simulator()

    def proc():
        yield 5.0

    sim.process(proc())
    with pytest.raises(SimulationError, match="not a SimEvent"):
        sim.run()


def test_yield_already_fired_event_resumes_immediately():
    sim = Simulator()
    ev = sim.event()
    ev.succeed("early")
    got = []

    def proc():
        yield sim.timeout(5.0)  # ev fires (and is processed) before this
        v = yield ev
        got.append((sim.now, v))

    sim.process(proc())
    sim.run()
    assert got == [(5.0, "early")]


def test_fifo_event_ordering_at_same_instant():
    sim = Simulator()
    trace = []

    def proc(i):
        yield sim.timeout(1.0)
        trace.append(i)

    for i in range(5):
        sim.process(proc(i))
    sim.run()
    assert trace == [0, 1, 2, 3, 4]


# ---------------------------------------------------------------------------
# Resource
# ---------------------------------------------------------------------------


def test_resource_serialises_access():
    sim = Simulator()
    trace = []

    res = Resource(sim, capacity=1)

    def worker(name, hold):
        req = res.request()
        yield req
        trace.append((name, "start", sim.now))
        yield sim.timeout(hold)
        res.release(req)
        trace.append((name, "end", sim.now))

    sim.process(worker("a", 3.0))
    sim.process(worker("b", 2.0))
    sim.run()
    assert trace == [
        ("a", "start", 0.0),
        ("a", "end", 3.0),
        ("b", "start", 3.0),
        ("b", "end", 5.0),
    ]


def test_resource_capacity_two_runs_pair_concurrently():
    sim = Simulator()
    res = Resource(sim, capacity=2)
    ends = []

    def worker():
        req = res.request()
        yield req
        yield sim.timeout(5.0)
        res.release(req)
        ends.append(sim.now)

    for _ in range(4):
        sim.process(worker())
    sim.run()
    assert ends == [5.0, 5.0, 10.0, 10.0]


def test_resource_grants_queued_requests_in_fifo_order():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    order = []

    def holder():
        req = res.request()
        yield req
        yield sim.timeout(1.0)
        res.release(req)

    def claimant(name, arrival):
        yield sim.timeout(arrival)
        req = res.request()
        yield req
        order.append(name)
        res.release(req)

    sim.process(holder())
    sim.process(claimant("third", 0.3))
    sim.process(claimant("first", 0.1))
    sim.process(claimant("second", 0.2))
    sim.run()
    assert order == ["first", "second", "third"]


def test_resource_queue_length_and_count():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    r1 = res.request()
    res.request()
    res.request()
    assert res.count == 1
    assert res.queue_length == 2
    res.release(r1)
    assert res.count == 1
    assert res.queue_length == 1


def test_resource_cancel_queued_request():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    r1 = res.request()
    r2 = res.request()
    res.release(r2)  # cancel while still queued
    assert res.queue_length == 0
    res.release(r1)
    assert res.count == 0


def test_resource_bad_capacity():
    sim = Simulator()
    with pytest.raises(SimulationError):
        Resource(sim, capacity=0)


# ---------------------------------------------------------------------------
# Store
# ---------------------------------------------------------------------------


def test_store_put_then_get():
    sim = Simulator()
    store = Store(sim)
    store.put("x")
    got = []

    def proc():
        v = yield store.get()
        got.append(v)

    sim.process(proc())
    sim.run()
    assert got == ["x"]


def test_store_get_blocks_until_put():
    sim = Simulator()
    store = Store(sim)
    got = []

    def consumer():
        v = yield store.get()
        got.append((sim.now, v))

    def producer():
        yield sim.timeout(6.0)
        store.put("late")

    sim.process(consumer())
    sim.process(producer())
    sim.run()
    assert got == [(6.0, "late")]


def test_store_fifo_order():
    sim = Simulator()
    store = Store(sim)
    for i in range(3):
        store.put(i)
    got = []

    def consumer():
        for _ in range(3):
            v = yield store.get()
            got.append(v)

    sim.process(consumer())
    sim.run()
    assert got == [0, 1, 2]


def test_bounded_store_try_put():
    sim = Simulator()
    store = Store(sim, capacity=2)
    assert store.try_put(1)
    assert store.try_put(2)
    assert not store.try_put(3)
    assert len(store) == 2


def test_bounded_store_put_raises_when_full():
    sim = Simulator()
    store = Store(sim, capacity=1)
    store.put(1)
    with pytest.raises(SimulationError):
        store.put(2)


def test_store_waiting_getter_bypasses_buffer():
    sim = Simulator()
    store = Store(sim, capacity=1)
    got = []

    def consumer():
        v = yield store.get()
        got.append(v)

    sim.process(consumer())
    sim.run()
    store.put("direct")
    sim.run()
    assert got == ["direct"]
    assert len(store) == 0


def test_store_len():
    sim = Simulator()
    store = Store(sim)
    assert len(store) == 0
    store.put("a")
    store.put("b")
    assert len(store) == 2


def test_events_processed_counter():
    sim = Simulator()
    for _ in range(10):
        sim.timeout(1.0)
    sim.run()
    assert sim.events_processed == 10


def test_determinism_same_structure_same_trace():
    def build():
        sim = Simulator()
        trace = []

        def proc(i):
            yield sim.timeout(i * 0.5)
            trace.append((i, sim.now))

        for i in range(20):
            sim.process(proc(i))
        sim.run()
        return trace

    assert build() == build()
