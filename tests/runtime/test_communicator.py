"""Unit tests for the Communicator's pipeline and ticket machinery,
using a fake in-memory handle (no sockets)."""

import threading

from harness import FakeHandle, feed
from repro.runtime import (
    CLOSE,
    Communicator,
    PENDING,
    ServerHooks,
)


def test_sync_pipeline_echo():
    conn = Communicator(FakeHandle(), ServerHooks())
    feed(conn, b"hello\n")
    assert bytes(conn.handle.sent) == b"hello\n"
    assert conn.requests_completed == 1


def test_multiple_framed_requests_in_one_chunk():
    conn = Communicator(FakeHandle(), ServerHooks())
    feed(conn, b"a\nb\nc\n")
    assert bytes(conn.handle.sent) == b"a\nb\nc\n"
    assert conn.requests_completed == 3


def test_partial_frame_waits():
    conn = Communicator(FakeHandle(), ServerHooks())
    feed(conn, b"incompl")
    assert conn.requests_completed == 0
    feed(conn, b"ete\n")
    assert bytes(conn.handle.sent) == b"incomplete\n"


def test_close_sentinel():
    class H(ServerHooks):
        def handle(self, request, conn):
            return CLOSE

    conn = Communicator(FakeHandle(), H())
    feed(conn, b"bye\n")
    assert conn.closed
    assert conn.handle.sent == bytearray()


def test_hook_exception_closes_connection():
    class H(ServerHooks):
        def handle(self, request, conn):
            raise RuntimeError("boom")

    closed = []
    conn = Communicator(FakeHandle(), H(),
                        on_teardown=closed.append)
    feed(conn, b"x\n")
    assert conn.closed and closed == [conn]


def test_pending_then_complete():
    class H(ServerHooks):
        def handle(self, request, conn):
            conn.context["pending_req"] = request
            return PENDING

    conn = Communicator(FakeHandle(), H())
    feed(conn, b"later\n")
    assert conn.handle.sent == bytearray()
    conn.complete_request(b"RESULT\n")
    assert bytes(conn.handle.sent) == b"RESULT\n"
    assert conn.requests_completed == 1


def test_completion_racing_ahead_of_pending_return():
    """Regression: a service thread may deliver complete_request BEFORE
    the handle hook has returned PENDING.  The reply must not be lost."""

    class H(ServerHooks):
        def handle(self, request, conn):
            # Deliver the completion from another thread while we are
            # still inside the hook.
            t = threading.Thread(target=conn.complete_request,
                                 args=(b"EARLY\n",))
            t.start()
            t.join()   # guaranteed: completion arrives before PENDING
            return PENDING

    conn = Communicator(FakeHandle(), H())
    feed(conn, b"race\n")
    assert bytes(conn.handle.sent) == b"EARLY\n"
    assert conn.requests_completed == 1


def test_spurious_completion_ignored():
    conn = Communicator(FakeHandle(), ServerHooks())
    conn.complete_request(b"nobody asked\n")
    assert conn.handle.sent == bytearray()


def test_pending_fifo_order():
    class H(ServerHooks):
        def handle(self, request, conn):
            return PENDING

    conn = Communicator(FakeHandle(), H())
    feed(conn, b"one\ntwo\n")
    conn.complete_request(b"1\n")
    conn.complete_request(b"2\n")
    assert bytes(conn.handle.sent) == b"1\n2\n"


def test_codec_steps_applied():
    class H(ServerHooks):
        def decode(self, raw, conn):
            return raw.strip().decode()

        def handle(self, request, conn):
            return request[::-1]

        def encode(self, result, conn):
            return result.encode() + b"\n"

    conn = Communicator(FakeHandle(), H())
    feed(conn, b"abc\n")
    assert bytes(conn.handle.sent) == b"cba\n"


def test_encode_exception_closes():
    class H(ServerHooks):
        def encode(self, result, conn):
            raise ValueError("bad encode")

    conn = Communicator(FakeHandle(), H())
    feed(conn, b"x\n")
    assert conn.closed


def test_close_idempotent_and_on_close_called_once():
    calls = []

    class H(ServerHooks):
        def on_close(self, conn):
            calls.append(1)

    conn = Communicator(FakeHandle(), H())
    conn.close()
    conn.close()
    assert calls == [1]


def test_send_bytes_close_after_flush():
    conn = Communicator(FakeHandle(), ServerHooks())
    conn.send_bytes(b"goodbye", close_after=True)
    assert conn.closed
    assert bytes(conn.handle.sent) == b"goodbye"


def test_classify_priority_applied_at_connect():
    class H(ServerHooks):
        def classify_priority(self, conn):
            return 7

    conn = Communicator(FakeHandle(), H())
    assert conn.priority == 7


def test_on_connect_hook_runs():
    seen = []

    class H(ServerHooks):
        def on_connect(self, conn):
            seen.append(conn)

    conn = Communicator(FakeHandle(), H())
    assert seen == [conn]
