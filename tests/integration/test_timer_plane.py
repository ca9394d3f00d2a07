"""One timer plane: every periodic duty of a generated server runs as a
timer event on its reactor's timer source, on a dispatcher thread.

The O13 deadline monitor and worker supervisor and the O5=Dynamic
Processor Controller start no thread of their own; the Server Event
Handler runs each pass and re-arms its timer.
"""

import threading

import pytest

from harness import ServerFixture, generated_server, wait_until
from repro.co2p3s.nserver.options import COPS_HTTP_OPTIONS
from repro.runtime import ServerHooks
from repro.servers.cops_ftp import build_cops_ftp
from repro.servers.cops_http import build_cops_http

pytestmark = pytest.mark.timeout(60)

#: the names the three duties' private threads used to carry
DUTY_THREADS = {"deadline-monitor", "worker-supervisor",
                "processor-controller"}


def started_thread_names(server):
    """Names of the threads ``server.start()`` adds, read while it runs."""
    before = set(threading.enumerate())
    server.start()
    try:
        return sorted(t.name for t in threading.enumerate()
                      if t not in before)
    finally:
        server.stop()


def test_periodic_duties_start_no_thread_of_their_own(tmp_path):
    http, _, _ = build_cops_http(
        str(tmp_path), options=dict(COPS_HTTP_OPTIONS, O5="Dynamic",
                                    O13=True))
    names = started_thread_names(http)
    assert not DUTY_THREADS & set(names), names
    # dispatcher, one reactive worker (Dynamic starts minimal) and the
    # two file-I/O workers
    assert len(names) == 4, names

    ftp, _, _ = build_cops_ftp()
    names = started_thread_names(ftp)
    assert not DUTY_THREADS & set(names), names
    assert len(names) == 2, names


class BlockingHooks(ServerHooks):
    """Each request's handler waits on ``release``: queued requests
    become the reactive pool's backlog."""

    def __init__(self):
        self.release = threading.Event()

    def decode(self, raw, conn):
        return raw.strip()

    def handle(self, request, conn):
        self.release.wait(10.0)
        return request

    def encode(self, result, conn):
        return result + b"\n"


def test_generated_dynamic_pool_grows_under_backlog_and_shrinks_idle():
    hooks = BlockingHooks()
    server = generated_server(
        hooks, {"O4": "Synchronous", "O5": "Dynamic"},
        processor_threads=4, grow_at=1)
    processor = server.reactor.processor
    clients = []
    with ServerFixture(server) as fixture:
        try:
            assert processor.thread_count == 1
            for _ in range(6):
                sock = fixture.connect()
                sock.sendall(b"ping\n")
                clients.append(sock)
            wait_until(lambda: processor.thread_count == 4,
                       message="controller never grew the pool to its max")
            hooks.release.set()
            for sock in clients:
                assert fixture.read_line(sock) == b"ping\n"
            wait_until(lambda: processor.thread_count == 1,
                       message="controller never shrank the idle pool")
        finally:
            hooks.release.set()
            for sock in clients:
                sock.close()
