"""Integration tests: generated N-Server frameworks over real sockets on
localhost.

Each test asks for the option set that emits the feature under test
(O2=No for the inline reactor, O7 for idle reaping, O11 for profiling
counters, ...) and tunes it through ``ServerConfiguration`` overrides.

Synchronization discipline: no ``time.sleep()`` — cross-thread state
(O11 counters, debug-ring events, pending accepts) is awaited with
``harness.wait_until`` and all lifecycles run inside
``harness.ServerFixture``.
"""

import os
import socket
import threading

import pytest

from harness import ServerFixture, generated_server, wait_until
from repro.obs import parse_dump
from repro.runtime import (
    CLOSE,
    PENDING,
    AsynchronousCompletionToken,
    QuotaPriorityQueue,
    ServerHooks,
)

#: synchronous completions: no file-I/O pool the tests never use
SYNC = {"O4": "Synchronous"}
#: ...and no codec steps: the raw request bytes reach ``handle``
RAW = dict(SYNC, O3=False)


@pytest.fixture(autouse=True)
def _every_backend(poller_backend):
    """Run the whole integration suite once per readiness backend
    (select is the oracle; epoll is the O18 fast path)."""


def fixture(hooks, options, **config) -> ServerFixture:
    """A generated server in the O18 shape of the backend under test, so
    the epoll parameter also runs the generated Poller component."""
    options = dict(options, O18=os.environ["REPRO_POLLER"])
    return ServerFixture(generated_server(hooks, options, **config))


class UpperHooks(ServerHooks):
    """Newline-framed uppercase server exercising decode/handle/encode."""

    def decode(self, raw, conn):
        return raw.strip().decode()

    def handle(self, request, conn):
        return request.upper()

    def encode(self, result, conn):
        return result.encode() + b"\n"


def test_echo_roundtrip():
    with fixture(ServerHooks(), RAW) as srv:
        assert srv.request(b"hello\n") == b"hello\n"


def test_codec_pipeline():
    with fixture(UpperHooks(), SYNC) as srv:
        assert srv.request(b"hello\n") == b"HELLO\n"


def test_multiple_requests_one_connection():
    with fixture(UpperHooks(), SYNC) as srv:
        s = srv.connect(timeout=3)
        try:
            for word in (b"one", b"two", b"three"):
                s.sendall(word + b"\n")
                assert srv.read_line(s) == word.upper() + b"\n"
        finally:
            s.close()


def test_concurrent_clients():
    with fixture(UpperHooks(), SYNC, processor_threads=4) as srv:
        results = {}

        def client(i):
            results[i] = srv.request(f"client{i}\n".encode())

        threads = [threading.Thread(target=client, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=5)
        assert all(results[i] == f"CLIENT{i}".upper().encode() + b"\n"
                   for i in range(8))


def test_close_sentinel_drops_connection():
    class QuitHooks(ServerHooks):
        def handle(self, request, conn):
            return CLOSE if request.strip() == b"quit" else request

    with fixture(QuitHooks(), RAW) as srv:
        s = srv.connect(timeout=3)
        s.sendall(b"quit\n")
        assert s.recv(4096) == b""  # orderly close, no reply
        s.close()


def test_pending_async_reply():
    class AsyncHooks(ServerHooks):
        def handle(self, request, conn):
            threading.Timer(0.05, conn.complete_request,
                            args=(request.strip().upper() + b"\n",)).start()
            return PENDING

    with fixture(AsyncHooks(), RAW) as srv:
        assert srv.request(b"later\n") == b"LATER\n"


def test_hook_exception_closes_connection_not_server():
    class Flaky(ServerHooks):
        def handle(self, request, conn):
            if request.strip() == b"die":
                raise RuntimeError("handler bug")
            return request

    with fixture(Flaky(), dict(RAW, O11=True)) as srv:
        # First connection crashes its handler...
        s = srv.connect(timeout=3)
        s.sendall(b"die\n")
        assert s.recv(4096) == b""
        s.close()
        # ... but the server still serves new clients.
        assert srv.request(b"alive\n") == b"alive\n"
        registry = srv.server.reactor.observability.registry
        assert registry.value("server_errors_total") == 1


def test_inline_reactor_without_processor_pool():
    with fixture(ServerHooks(), dict(RAW, O2=False)) as srv:
        assert not hasattr(srv.server.reactor, "processor")
        assert srv.request(b"inline\n") == b"inline\n"


def test_two_dispatcher_threads():
    with fixture(ServerHooks(), dict(RAW, O1="2N")) as srv:
        assert len(srv.server.reactor.dispatcher._threads) >= 2
        assert srv.request(b"dual\n") == b"dual\n"


def test_large_reply_flushes_through_writable_events():
    class BigHooks(ServerHooks):
        def handle(self, request, conn):
            return b"X" * 1_000_000 + b"\n"

    with fixture(BigHooks(), RAW) as srv:
        s = srv.connect(timeout=5)
        s.sendall(b"go\n")
        total = 0
        while total < 1_000_001:
            chunk = s.recv(65536)
            if not chunk:
                break
            total += len(chunk)
        s.close()
        assert total == 1_000_001


def test_max_connections_cap():
    with fixture(ServerHooks(), dict(RAW, O9=True, O11=True),
                 max_connections=1) as srv:
        registry = srv.server.reactor.observability.registry
        s1 = srv.connect(timeout=3)
        s1.sendall(b"first\n")
        assert srv.read_line(s1) == b"first\n"
        # Second connection connects at TCP level (kernel backlog) but
        # the server never accepts it while the first is open.
        s2 = srv.connect(timeout=3)
        s2.settimeout(0.3)
        s2.sendall(b"second\n")
        with pytest.raises(socket.timeout):
            s2.recv(4096)
        s1.close()
        # Once the server notices the close, the pending connection is
        # accepted — no fixed grace period, just the observable event.
        wait_until(lambda: registry.value(
                       "server_connections_accepted_total") >= 2,
                   message="second connection never accepted")
        s2.settimeout(3)
        assert srv.read_line(s2) == b"second\n"
        s2.close()


def test_accepted_sockets_have_nagle_off():
    """Replies are written whole, so the server turns Nagle's algorithm
    off on every accepted TCP socket: a pipelined reply never waits for
    the client's delayed ACK of the one before it."""
    with fixture(ServerHooks(), RAW) as srv:
        s = srv.connect(timeout=3)
        try:
            s.sendall(b"hello\n")
            assert srv.read_line(s) == b"hello\n"
            (conn,) = srv.server.reactor.container.connections()
            assert conn.handle.sock.getsockopt(
                socket.IPPROTO_TCP, socket.TCP_NODELAY) == 1
        finally:
            s.close()


def test_idle_reaper_closes_idle_connections():
    with fixture(ServerHooks(), dict(RAW, O7=True), idle_limit=0.2,
                 idle_scan_interval=0.05) as srv:
        s = srv.connect(timeout=3)
        assert s.recv(4096) == b""  # server reaps us (recv is the wait)
        s.close()
        container = srv.server.reactor.container
        wait_until(lambda: len(container) == 0,
                   message="reaped connection still registered")


def test_profiling_counts_bytes():
    with fixture(ServerHooks(), dict(RAW, O11=True)) as srv:
        value = srv.server.reactor.observability.registry.value
        srv.request(b"12345\n")
        # The sender thread bumps bytes_sent after the flush our read
        # observed; wait for the counter, not a wall-clock guess.
        wait_until(lambda: value("server_bytes_sent_total") >= 6,
                   message="the registry never saw the sent bytes")
        assert value("server_bytes_read_total") == 6
        assert value("server_bytes_sent_total") == 6
        assert value("server_connections_accepted_total") == 1


def test_debug_mode_traces_events():
    with fixture(ServerHooks(), dict(RAW, O10="Debug")) as srv:
        tracer = srv.server.reactor.tracer
        srv.request(b"traced\n")

        def categories():
            return {event.category for event in tracer.events()}

        wait_until(lambda: {"accept", "read-request", "compute"} <= categories(),
                   message=f"tracer saw only {categories()}")


def test_debug_mode_trace_strings():
    """The O10=Debug trace text is pinned: the generated steps trace the
    peer's handle name, the server its port, the dispatcher the event
    type, and the container the removal."""
    with fixture(ServerHooks(), dict(RAW, O10="Debug")) as srv:
        tracer = srv.server.reactor.tracer
        assert srv.request(b"traced\n") == b"traced\n"

        def pairs():
            return [(event.category, event.detail)
                    for event in tracer.events()]

        wait_until(lambda: any(c == "container" for c, _ in pairs()),
                   message=f"tracer saw only {pairs()}")
        records = pairs()
        assert records[0] == ("server", f"open port {srv.server.port}")
        peer = next(d for c, d in records if c == "accept")
        assert peer.startswith("127.0.0.1:")
        assert {(c, d) for c, d in records
                if c not in ("server", "dispatch")} == {
            ("accept", peer), ("read-request", peer), ("compute", peer),
            ("container", f"remove {peer}")}
        assert {d for c, d in records if c == "dispatch"} <= {
            "AcceptEvent", "ReadableEvent", "WritableEvent"}


def test_debug_mode_writes_its_trace_file_on_stop(tmp_path):
    """O10=Debug: internal events are "written into a file" — on stop,
    the debug ring lands at ``debug_trace_path``, one flight-dump line
    per event."""
    path = tmp_path / "debug.trace"
    with fixture(ServerHooks(), dict(RAW, O10="Debug"),
                 debug_trace_path=str(path)) as srv:
        assert srv.request(b"traced\n") == b"traced\n"
        port = srv.server.port
    written = [(event.category, event.detail)
               for event in parse_dump(path.read_text(encoding="utf-8"))]
    assert written == [(event.category, event.detail)
                       for event in srv.server.reactor.tracer.events()]
    assert written[0] == ("server", f"open port {port}")
    assert {"accept", "read-request", "compute", "container"} <= {
        category for category, _ in written}


def test_event_scheduling_config_builds_priority_queue():
    with fixture(ServerHooks(), dict(RAW, O8=True),
                 scheduling_quotas={1: 4, 0: 1}) as srv:
        assert isinstance(srv.server.reactor.processor.queue,
                          QuotaPriorityQueue)
        assert srv.request(b"sched\n") == b"sched\n"


def test_file_cache_async_serving(tmp_path):
    (tmp_path / "page.html").write_bytes(b"<html>cached</html>")

    class FileHooks(ServerHooks):
        def handle(self, request, conn):
            conn.reactor.read_file_async(
                request.strip().decode(),
                AsynchronousCompletionToken(
                    on_complete=lambda ev: conn.complete_request(
                        (ev.payload if ev.ok else b"ERROR") + b"\n")))
            return PENDING

    with fixture(FileHooks(), {"O3": False, "O6": "LRU"},
                 document_root=str(tmp_path)) as srv:
        assert srv.request(b"/page.html\n") == b"<html>cached</html>\n"
        assert srv.request(b"/page.html\n") == b"<html>cached</html>\n"
        assert srv.server.reactor.cache.stats.hits >= 1


def test_stop_is_idempotent():
    srv = fixture(ServerHooks(), SYNC).server
    srv.start()
    srv.stop()
    srv.stop()
