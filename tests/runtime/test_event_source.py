"""Tests for the Decorator-pattern event sources."""

import os
import socket
import threading
import time

import pytest

from harness import FakeClock
from repro.runtime import (
    Communicator,
    EventKind,
    ListenHandle,
    NullEventSource,
    QueueEventSource,
    ServerHooks,
    SocketEventSource,
    SocketHandle,
    TimerEventSource,
    UserEvent,
)
from repro.runtime.poller import Poller, make_poller


def poll_until(source, want, timeout=2.0):
    """Poll until at least one event of each wanted kind arrives."""
    found = {}
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline and not all(k in found for k in want):
        for ev in source.poll(0.05):
            found.setdefault(ev.kind, ev)
    return found


# -- SocketEventSource -----------------------------------------------------------


def test_accept_event_on_incoming_connection():
    src = SocketEventSource()
    listen = ListenHandle()
    src.register(listen)
    client = socket.create_connection(("127.0.0.1", listen.port), timeout=2)
    try:
        found = poll_until(src, [EventKind.ACCEPT])
        assert EventKind.ACCEPT in found
        assert found[EventKind.ACCEPT].handle is listen
    finally:
        client.close()
        listen.close()
        src.close()


def test_readable_event_on_data():
    src = SocketEventSource()
    listen = ListenHandle()
    src.register(listen)
    client = socket.create_connection(("127.0.0.1", listen.port), timeout=2)
    try:
        poll_until(src, [EventKind.ACCEPT])
        server_side = listen.try_accept()
        assert server_side is not None
        src.register(server_side)
        client.sendall(b"ping")
        found = poll_until(src, [EventKind.READABLE])
        assert found[EventKind.READABLE].handle is server_side
        assert server_side.try_recv() == b"ping"
    finally:
        client.close()
        listen.close()
        src.close()


def test_writable_only_when_buffered_output():
    src = SocketEventSource()
    listen = ListenHandle()
    src.register(listen)
    client = socket.create_connection(("127.0.0.1", listen.port), timeout=2)
    try:
        poll_until(src, [EventKind.ACCEPT])
        server_side = listen.try_accept()
        src.register(server_side)
        # No output buffered: no writable events.
        events = src.poll(0.05)
        assert not any(e.kind == EventKind.WRITABLE for e in events)
        server_side.out_buffer.append([b"reply"])
        src.update_interest(server_side)
        found = poll_until(src, [EventKind.WRITABLE])
        assert EventKind.WRITABLE in found
    finally:
        client.close()
        listen.close()
        src.close()


def test_pause_suppresses_readable_and_resume_restores():
    src = SocketEventSource()
    listen = ListenHandle()
    src.register(listen)
    client = socket.create_connection(("127.0.0.1", listen.port), timeout=2)
    try:
        poll_until(src, [EventKind.ACCEPT])
        server_side = listen.try_accept()
        src.register(server_side)
        client.sendall(b"data")
        poll_until(src, [EventKind.READABLE])
        src.pause(server_side)
        assert not any(e.kind == EventKind.READABLE for e in src.poll(0.05))
        src.resume(server_side)
        found = poll_until(src, [EventKind.READABLE])
        assert EventKind.READABLE in found
    finally:
        client.close()
        listen.close()
        src.close()


def test_wakeup_interrupts_blocking_poll():
    src = SocketEventSource()
    durations = []
    entered = threading.Event()

    def poller():
        start = time.monotonic()
        entered.set()
        src.poll(2.0)
        durations.append(time.monotonic() - start)

    t = threading.Thread(target=poller)
    t.start()
    # Even if wakeup lands before poll starts, the self-pipe byte makes
    # the poll return immediately — no sleep-and-hope needed.
    entered.wait(1.0)
    src.wakeup()
    t.join(timeout=3.0)
    src.close()
    assert durations and durations[0] < 1.0


def test_deregister_stops_events():
    src = SocketEventSource()
    listen = ListenHandle()
    src.register(listen)
    src.deregister(listen)
    client = None
    try:
        client = socket.create_connection(("127.0.0.1", listen.port), timeout=2)
        events = src.poll(0.1)
        assert not any(e.kind == EventKind.ACCEPT for e in events)
    finally:
        if client:
            client.close()
        listen.close()
        src.close()


def test_register_rejects_non_socket_handle():
    src = SocketEventSource()
    with pytest.raises(TypeError):
        src.register(object())
    src.close()


class EntryRecordingPoller(Poller):
    """A real backend that also remembers which handle each fd's entry
    points at — the cookie ``poll`` would hand back for that fd."""

    def __init__(self, backend):
        self.inner = make_poller(backend)
        self.name = self.inner.name
        self.edge_triggered = self.inner.edge_triggered
        self.entries = {}

    def register(self, fd, mask, data):
        self.inner.register(fd, mask, data)
        self.entries[fd] = data

    def modify(self, fd, mask, data):
        self.inner.modify(fd, mask, data)
        self.entries[fd] = data

    def unregister(self, fd):
        self.entries.pop(fd, None)
        self.inner.unregister(fd)

    def poll(self, timeout=None):
        return self.inner.poll(timeout)

    def close(self):
        self.inner.close()


def test_late_pause_resume_of_closed_handle_spares_fd_reuser(poller_backend):
    """A connection's handle releases its fd before it reads as closed,
    and the kernel may hand that fd number straight to a new connection.
    A late pause/resume of the old handle must not re-point the poller
    entry at it, nor its late deregister drop the entry, or the new
    connection's readiness goes to a handle no Communicator owns (or
    nowhere) and its request is never answered."""
    poller = EntryRecordingPoller(poller_backend)
    src = SocketEventSource(poller=poller)
    a_sock, a_peer = socket.socketpair()
    b_orig, b_peer = socket.socketpair()
    a = SocketHandle(a_sock, name="a")
    src.register(a)
    fd = a.fileno()
    # Release A's fd without marking A closed (the window inside
    # SocketHandle.close), then give the same fd number to B.
    a_sock.close()
    os.dup2(b_orig.fileno(), fd)
    b_orig.close()
    b = SocketHandle(socket.socket(fileno=fd), name="b")
    try:
        assert b.fileno() == fd and not a.closed
        src.register(b)
        src.pause(a)
        src.resume(a)
        src.update_interest(a)
        src.deregister(a)
        assert poller.entries[fd] is b
        assert src._handles[fd] is b
        b_peer.sendall(b"x")
        found = poll_until(src, [EventKind.READABLE])
        assert found[EventKind.READABLE].handle is b
    finally:
        b.close()
        for sock in (a_peer, b_peer):
            sock.close()
        src.close()


def drive(src, timeout=0.3):
    """Poll as the dispatcher does, pausing read interest on every
    ReadableEvent it hands on; returns every event seen in ``timeout``."""
    seen = []
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        for ev in src.poll(0.02):
            if ev.kind == EventKind.READABLE:
                src.pause(ev.handle)
            seen.append(ev)
    return seen


def kinds(events, handle):
    return [ev.kind for ev in events if ev.handle is handle]


def test_late_pause_of_deregistered_handle_leaves_no_state(poller_backend):
    """The dispatcher may pause a handle from a ReadableEvent it polled
    just before the connection's teardown deregistered it (typically
    the client's FIN).  That pause must leave nothing behind: CPython
    gives the next handle the freed one's memory, and so its ``id``,
    and that connection must still register with read interest."""
    src = SocketEventSource(poller=poller_backend)
    pairs = []
    try:
        for _ in range(50):
            old_sock, old_peer = socket.socketpair()
            new_sock, new_peer = socket.socketpair()
            pairs += [old_peer, new_sock, new_peer]
            old = SocketHandle(old_sock, name="old")
            src.register(old)
            src.deregister(old)
            src.pause(old)             # late: the teardown already ran
            old.close()
            freed = id(old)
            del old
            new = SocketHandle(new_sock, name="new")
            if id(new) == freed:
                break
            new.close()
        else:
            pytest.fail("CPython never reused a freed handle's id")
        src.register(new)
        assert src._handles[new.fileno()] is new
        new_peer.sendall(b"x")
        found = poll_until(src, [EventKind.READABLE])
        assert found[EventKind.READABLE].handle is new
    finally:
        for sock in pairs:
            sock.close()
        src.close()


@pytest.fixture
def conn_pair(poller_backend):
    """A registered connection (handle and Communicator wired to the
    event source as a generated build wires them) and its peer."""
    src = SocketEventSource(poller=poller_backend)
    sock, peer = socket.socketpair()
    peer.settimeout(2.0)
    handle = SocketHandle(sock, name="conn")
    conn = Communicator(handle, ServerHooks(),
                        update_interest=src.update_interest,
                        resume_read=src.resume)
    src.register(handle)
    yield src, conn, peer
    conn.close()
    peer.close()
    src.close()


def test_bytes_sent_while_paused_give_one_readable_after_resume(conn_pair):
    src, conn, peer = conn_pair
    handle = conn.handle
    peer.sendall(b"first\n")
    assert kinds(drive(src), handle) == [EventKind.READABLE]
    peer.sendall(b"second\n")       # arrives while the read is paused
    assert kinds(drive(src), handle) == []
    src.resume(handle)
    assert kinds(drive(src), handle) == [EventKind.READABLE]
    conn.on_readable()               # reads both lines, then resumes
    assert bytes(peer.recv(64)) == b"first\nsecond\n"
    assert kinds(drive(src), handle) == []


def queue_output(src, handle):
    """Leave output queued and write interest armed, as a short send
    does; returns once the WritableEvent has been polled."""
    handle.out_buffer.append([b"queued"])
    src.update_interest(handle)
    assert EventKind.WRITABLE in kinds(drive(src, 0.1), handle)


@pytest.mark.parametrize("flushed", [False, True],
                         ids=["to-flush", "already-flushed"])
def test_consumed_writable_leaves_armed_reads_armed(conn_pair, flushed):
    """Under epoll a one-shot delivery of WRITE disarms READ too; the
    Send Reply step's re-sync re-arms it, also when an earlier step
    already flushed the output."""
    src, conn, peer = conn_pair
    handle = conn.handle
    queue_output(src, handle)
    if flushed:
        handle.try_send()
    conn.on_writable()
    assert peer.recv(64) == b"queued"
    peer.sendall(b"ping\n")
    assert kinds(drive(src), handle) == [EventKind.READABLE]


def test_writable_consumed_while_paused_leaves_reads_armed_after_resume(
        conn_pair):
    src, conn, peer = conn_pair
    handle = conn.handle
    peer.sendall(b"ping\n")
    assert kinds(drive(src), handle) == [EventKind.READABLE]
    queue_output(src, handle)        # while the read is paused
    conn.on_writable()
    assert peer.recv(64) == b"queued"
    conn.on_readable()               # echoes the line, then resumes
    assert peer.recv(64) == b"ping\n"
    peer.sendall(b"pong\n")
    assert kinds(drive(src), handle) == [EventKind.READABLE]


# -- TimerEventSource ----------------------------------------------------------


def test_timer_fires_after_delay():
    src = TimerEventSource(NullEventSource())
    src.schedule(0.05, payload="tick")
    found = poll_until(src, [EventKind.TIMER])
    assert found[EventKind.TIMER].payload == "tick"


def test_timer_not_early():
    src = TimerEventSource(NullEventSource())
    src.schedule(0.5, payload="late")
    events = src.poll(0.01)
    assert not any(e.kind == EventKind.TIMER for e in events)


def test_timer_cancel():
    clock = FakeClock()
    src = TimerEventSource(NullEventSource(), clock=clock)
    token = src.schedule(0.05, payload="nope")
    src.cancel(token)
    clock.advance(0.2)  # well past the cancelled deadline
    events = src.poll(0.01)
    assert not any(e.kind == EventKind.TIMER for e in events)


def test_timer_negative_delay_rejected():
    src = TimerEventSource(NullEventSource())
    with pytest.raises(ValueError):
        src.schedule(-1.0)


def test_timer_ordering():
    src = TimerEventSource(NullEventSource())
    src.schedule(0.02, payload="first")
    src.schedule(0.05, payload="second")
    got = []
    deadline = time.monotonic() + 1.0
    while len(got) < 2 and time.monotonic() < deadline:
        got.extend(e.payload for e in src.poll(0.02)
                   if e.kind == EventKind.TIMER)
    assert got == ["first", "second"]


# -- QueueEventSource ------------------------------------------------------------


def test_queue_source_delivers_posted_events():
    src = QueueEventSource(NullEventSource())
    src.post(UserEvent(payload="app-event"))
    events = src.poll(0.01)
    assert [e.payload for e in events if e.kind == EventKind.USER] == ["app-event"]


def test_queue_source_pending_count():
    src = QueueEventSource(NullEventSource())
    src.post(UserEvent())
    src.post(UserEvent())
    assert src.pending() == 2
    src.poll(0.0)
    assert src.pending() == 0


def test_decorator_chain_merges_all_sources():
    chain = QueueEventSource(TimerEventSource(NullEventSource()))
    chain.inner.schedule(0.01, payload="timer")
    chain.post(UserEvent(payload="user"))
    kinds = set()
    deadline = time.monotonic() + 1.0
    while len(kinds) < 2 and time.monotonic() < deadline:
        kinds |= {e.kind for e in chain.poll(0.02)}
    assert EventKind.TIMER in kinds and EventKind.USER in kinds


def test_null_source_rejects_handles():
    with pytest.raises(TypeError):
        NullEventSource().register(object())
