"""Unit tests for EventDispatcher routing and the Connector.

The accept side is generated; socket-level tests of generated builds
cover it (accept and wire, O9 postpone, burst drain)."""

import socket
import time

import pytest

from repro.runtime import (
    Connector,
    EventDispatcher,
    EventKind,
    NullEventSource,
    QueueEventSource,
    TimerEvent,
    UserEvent,
)


# -- dispatcher ----------------------------------------------------------------


def make_dispatcher():
    source = QueueEventSource(NullEventSource())
    return source, EventDispatcher(source, poll_timeout=0.01)


def test_routes_by_kind():
    source, dispatcher = make_dispatcher()
    got = {"user": [], "timer": []}
    dispatcher.route(EventKind.USER, lambda e: got["user"].append(e.payload))
    dispatcher.route(EventKind.TIMER, lambda e: got["timer"].append(e.payload))
    source.post(UserEvent(payload="u"))
    source.post(TimerEvent(payload="t"))
    dispatcher.poll_once(timeout=0.0)
    assert got == {"user": ["u"], "timer": ["t"]}
    assert dispatcher.dispatched == 2


def test_unrouted_counted_not_crashing():
    source, dispatcher = make_dispatcher()
    source.post(UserEvent())
    dispatcher.poll_once(timeout=0.0)
    assert dispatcher.unrouted == 1


def test_thread_count_validation():
    with pytest.raises(ValueError):
        EventDispatcher(NullEventSource(), threads=0)


def test_background_loop_dispatches():
    source, dispatcher = make_dispatcher()
    got = []
    dispatcher.route(EventKind.USER, lambda e: got.append(e.payload))
    dispatcher.start()
    try:
        source.post(UserEvent(payload=1))
        deadline = time.monotonic() + 2
        while not got and time.monotonic() < deadline:
            time.sleep(0.01)
        assert got == [1]
    finally:
        dispatcher.stop()
    assert not dispatcher.running


def test_start_stop_idempotent():
    _, dispatcher = make_dispatcher()
    dispatcher.start()
    dispatcher.start()
    dispatcher.stop()
    dispatcher.stop()


# -- connector -----------------------------------------------------------------------


def test_connector_establishes_outbound():
    listener = socket.socket()
    listener.bind(("127.0.0.1", 0))
    listener.listen(1)
    port = listener.getsockname()[1]
    connector = Connector(timeout=2.0)
    handle = connector.connect("127.0.0.1", port)
    try:
        server_side, _ = listener.accept()
        handle.write([b"ping"])
        server_side.settimeout(2)
        assert server_side.recv(4) == b"ping"
        server_side.close()
        assert connector.connected == 1
    finally:
        handle.close()
        listener.close()


def test_connector_refused():
    connector = Connector(timeout=0.5)
    with pytest.raises(OSError):
        connector.connect("127.0.0.1", 1)  # nothing listens there
