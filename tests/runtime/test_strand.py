"""The connection strand: one thread at a time runs a connection.

Each test parks the owner inside a handle hook (an event it waits on)
and drives a second thread against the same connection, so the
interleaving is fixed by events, not by timing:

* a completion arriving while the hook runs is left to the owner and
  runs after the hook, on the owner's thread;
* a worker-killing ``WorkerCrash`` releases the strand and hands the
  steps still queued to a fresh drain event;
* a close from another thread gives the peer EOF at once, while the
  owner is still blocked, and the owner finishes the teardown;
* a step from a thread that is no event thread (a queue worker
  shedding a stale event) claims the idle strand and runs at once.
"""

import socket
import threading

import pytest

from repro.faults.hooks import WorkerCrash
from repro.runtime import (
    AsynchronousCompletionToken,
    Communicator,
    CompletionEvent,
    PENDING,
    ServerHooks,
    SocketHandle,
    WritableEvent,
)
from repro.runtime.degradation import SojournQueue, rejection_response
from repro.runtime.scheduler import FifoEventQueue

WAIT = 10.0


class BlockingHooks(ServerHooks):
    """A handle hook that parks until released, then goes asynchronous;
    records which thread ran each step."""

    def __init__(self):
        self.in_hook = threading.Event()
        self.release = threading.Event()
        self.hook_done = False
        self.tickets = []
        self.ran_on = {}
        self.encoded_after_hook = None
        self.closed_on = []

    def handle(self, request, conn):
        self.ran_on["handle"] = threading.get_ident()
        self.tickets.append(conn.current_ticket())
        self.in_hook.set()
        assert self.release.wait(WAIT)
        self.finish(request)
        self.hook_done = True
        return PENDING

    def finish(self, request):
        """What the hook does once released (subclasses override)."""

    def encode(self, result, conn):
        self.ran_on["encode"] = threading.get_ident()
        self.encoded_after_hook = self.hook_done
        return result

    def on_close(self, conn):
        self.closed_on.append(threading.get_ident())


class CrashingHooks(BlockingHooks):
    def finish(self, request):
        raise WorkerCrash("injected")


@pytest.fixture
def peer():
    """(server-side socket, client socket)."""
    a, b = socket.socketpair()
    b.settimeout(WAIT)
    yield a, b
    a.close()
    b.close()


def _owner(conn, died=None):
    """Start a thread that reads the connection (the event thread that
    owns it while the hook runs)."""
    def body():
        try:
            conn.on_readable()
        except WorkerCrash as exc:
            died.append(exc)

    thread = threading.Thread(target=body)
    thread.start()
    return thread


def test_a_completion_during_the_hook_runs_after_it_on_the_owner(peer):
    a, b = peer
    hooks = BlockingHooks()
    conn = Communicator(SocketHandle(a, name="strand"), hooks)
    b.sendall(b"req\n")
    owner = _owner(conn)
    assert hooks.in_hook.wait(WAIT)

    # The event thread handling the completion finds the strand owned:
    # it leaves the delivery to the owner and returns at once.
    token = AsynchronousCompletionToken(
        on_complete=lambda event: conn.complete_request(
            b"reply\n", hooks.tickets[0]))
    completer = threading.Thread(target=CompletionEvent(token).complete)
    completer.start()
    completer.join(WAIT)
    assert not completer.is_alive()
    assert "encode" not in hooks.ran_on and not hooks.hook_done

    hooks.release.set()
    owner.join(WAIT)
    assert b.recv(64) == b"reply\n"
    assert hooks.encoded_after_hook is True
    assert hooks.ran_on["encode"] == hooks.ran_on["handle"] == owner.ident


def test_a_worker_crash_releases_the_strand_and_resubmits_the_rest(peer):
    a, b = peer
    hooks = CrashingHooks()
    scheduled = []
    conn = Communicator(SocketHandle(a, name="strand"), hooks,
                        schedule=scheduled.append)
    b.sendall(b"boom\n")
    died = []
    owner = _owner(conn, died)
    assert hooks.in_hook.wait(WAIT)

    conn.send_bytes(b"late\n")   # another thread: queued for the owner
    assert scheduled == []

    hooks.release.set()
    owner.join(WAIT)
    assert len(died) == 1                  # the worker died ...
    [event] = scheduled                    # ... handing the rest on
    assert isinstance(event, WritableEvent) and event.handle is conn.handle
    conn.on_writable(event)                # the drain event, elsewhere
    assert b.recv(64) == b"late\n"
    assert not conn.closed


def test_a_close_from_another_thread_reaches_the_peer_at_once(peer):
    a, b = peer
    hooks = BlockingHooks()
    scheduled = []
    conn = Communicator(SocketHandle(a, name="strand"), hooks,
                        schedule=scheduled.append)
    b.sendall(b"hang\n")
    owner = _owner(conn)
    assert hooks.in_hook.wait(WAIT)

    conn.close()                 # e.g. a deadline monitor's thread
    assert b.recv(64) == b""     # EOF while the owner is still blocked
    assert not hooks.hook_done and hooks.closed_on == []
    assert scheduled == []       # the owner runs the teardown

    hooks.release.set()
    owner.join(WAIT)
    assert hooks.closed_on == [owner.ident]
    assert conn.handle.closed


def test_a_sojourn_drop_rejects_at_once_without_requeueing(peer):
    a, b = peer
    scheduled = []
    conn = Communicator(SocketHandle(a, name="strand"), ServerHooks(),
                        schedule=scheduled.append)
    reject = rejection_response(retry_after=1.0, reason="queue-deadline")
    now = [0.0]
    queue = SojournQueue(
        FifoEventQueue(), deadline=0.5, interval=0.0,
        on_drop=lambda event, sojourn: conn.send_bytes(reject,
                                                       close_after=True),
        clock=lambda: now[0])
    queue.push(WritableEvent(handle=conn.handle))
    queue.push(WritableEvent(handle=conn.handle))
    now[0] = 10.0
    assert queue.try_pop() is not None     # CoDel grace: served late
    # The worker popping the second stale event drops it: the 503 and
    # the close reach the peer before the pop returns, with nothing
    # queued again.
    assert queue.try_pop() is None
    assert queue.dropped == 1 and len(queue) == 0 and scheduled == []
    assert b.recv(len(reject) + 1) == reject
    assert b.recv(64) == b""
    assert conn.closed and conn.handle.closed
