"""The one write path, end to end over real sockets.

* a cached body goes to a slow reader straight from the cache entry:
  the queued tail is a range of the cached file body, sent with
  ``os.sendfile``, and serving it allocates less than one body (the
  copying path allocated two or more per reply: ``head + body``, the
  out-buffer copy, a snapshot per send);
* a reply still queued when its cache entry is evicted arrives
  byte-exact, and the body's fd is closed once it has gone;
* replies completed by two threads on one pipelined connection arrive
  whole, exactly once and in request order through a tiny send buffer;
* an outbound ``connect()`` is routed to the Connector Event Handler,
  which registers the connection and sends the client greeting.
"""

import queue
import socket
import sys
import threading
import tracemalloc
import weakref

import pytest

from harness import ServerFixture, generated_framework, wait_until
from repro.runtime import PENDING, FileHandle, ServerHooks
from repro.servers.cops_http import CopsHttpHooks, build_cops_http

BODY = 1 << 20          # 1 MiB
REQUEST = b"GET /big.bin HTTP/1.1\r\nHost: x\r\n\r\n"


def _read_reply(sock, buf, body) -> None:
    """Read one ``GET /big.bin`` reply into the preallocated ``buf`` in
    small chunks, checking the body against ``body`` as it arrives, so
    the reader itself allocates nothing that scales with the body."""
    view = memoryview(buf)
    got = 0
    head_end = -1
    while head_end < 0:
        n = sock.recv_into(view[got:got + 4096])
        assert n, "server closed mid-head"
        got += n
        head_end = buf.find(b"\r\n\r\n", 0, got)
    assert buf.startswith(b"HTTP/1.1 200 OK")
    start = head_end + 4
    expected = memoryview(body)
    while got - start < len(body):
        n = sock.recv_into(view[got:got + 4096])
        assert n, "server closed mid-body"
        got += n
    assert got - start == len(body)
    assert view[start:got] == expected


class SmallSendBufferHooks(CopsHttpHooks):
    """COPS-HTTP with a small kernel send buffer per connection, so a
    reader that stops reading leaves most of a 1 MiB reply queued."""

    def on_connect(self, conn):
        conn.handle.sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF,
                                    16384)
        super().on_connect(conn)


def _serve_big_file(tmp_path, **config):
    body = bytes(range(256)) * (BODY // 256)
    (tmp_path / "big.bin").write_bytes(body)
    server, _fw, _report = build_cops_http(str(tmp_path),
                                           hooks=SmallSendBufferHooks(),
                                           **config)
    with ServerFixture(server) as fixture:
        yield fixture, body


@pytest.fixture
def big_file_server(tmp_path):
    yield from _serve_big_file(tmp_path)


@pytest.fixture
def one_body_cache_server(tmp_path):
    """The same server with room for one 1 MiB body in its cache."""
    yield from _serve_big_file(tmp_path, cache_capacity=BODY + BODY // 2)


def _stall_slow_reader(fixture):
    """A connection whose ``GET /big.bin`` reply stalls with its tail
    queued (the reader is not reading), and that connection's
    Communicator."""
    slow = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    slow.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
    slow.settimeout(10)
    slow.connect(("127.0.0.1", fixture.port))
    slow.sendall(REQUEST)
    container = fixture.server.reactor.container

    def stalled():
        return [c for c in list(container.connections())
                if c.handle.out_buffer]

    wait_until(stalled, message="a reply tail queued behind the slow reader")
    (conn,) = stalled()
    return slow, conn


def test_cached_body_is_sent_without_a_copy(big_file_server):
    fixture, body = big_file_server
    server = fixture.server
    buf = bytearray(BODY + 4096)
    with socket.create_connection(("127.0.0.1", fixture.port),
                                  timeout=10) as warm:
        warm.sendall(REQUEST)
        _read_reply(warm, buf, body)         # loads the cache entry
    payload = server.reactor.cache.file_cache.get_file("/big.bin").payload
    assert payload == body

    # The reader is not reading: the reply stalls with its tail queued,
    # and that tail is a range of the cache entry's own open file.
    slow, conn = _stall_slow_reader(fixture)
    try:
        first = conn.handle.out_buffer.iov(1)[0]
        assert isinstance(first, FileHandle)
        assert first.fileno() == payload.fileno() and first.offset > 0
        _read_reply(slow, buf, body)

        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            for _ in range(4):
                slow.sendall(REQUEST)
                _read_reply(slow, buf, body)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < BODY, f"{peak} bytes allocated serving a cached body"
    finally:
        slow.close()


def test_queued_reply_survives_the_eviction_of_its_entry(
        one_body_cache_server, tmp_path):
    fixture, body = one_body_cache_server
    file_cache = fixture.server.reactor.cache.file_cache
    other = bytes(reversed(body))
    (tmp_path / "other.bin").write_bytes(other)
    buf = bytearray(BODY + 4096)
    slow, conn = _stall_slow_reader(fixture)
    try:
        body_file = weakref.ref(file_cache.lookup("/big.bin").payload)
        conn = None
        # Loading another 1 MiB body evicts /big.bin while its reply is
        # still queued: the queued range keeps the file body open.
        with socket.create_connection(("127.0.0.1", fixture.port),
                                      timeout=10) as fast:
            fast.sendall(b"GET /other.bin HTTP/1.1\r\nHost: x\r\n\r\n")
            _read_reply(fast, buf, other)
        assert file_cache.stats.evictions == 1
        assert not file_cache.contains("/big.bin")
        assert body_file() is not None
        _read_reply(slow, buf, body)
    finally:
        slow.close()
    wait_until(lambda: body_file() is None,
               message="the evicted body's fd closed after its reply")


class PipelinedHooks(ServerHooks):
    """Newline-framed requests answered asynchronously: two completion
    threads resolve alternate requests concurrently, so replies finish
    out of order, are parked, and are flushed by whichever thread
    frees the head of the queue."""

    def __init__(self, sizes):
        self.sizes = sizes
        self.conns = []
        self.lanes = (queue.Queue(), queue.Queue())
        self.threads = [threading.Thread(target=self._complete, args=(q,),
                                         daemon=True) for q in self.lanes]
        for thread in self.threads:
            thread.start()

    @staticmethod
    def reply(index, size) -> bytes:
        return b"<%04d>" % index + bytes([65 + index % 26]) * size + b"\n"

    def on_connect(self, conn):
        conn.handle.sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF,
                                    4096)
        self.conns.append(conn)

    def decode(self, raw, conn):
        return int(raw)

    def handle(self, index, conn):
        self.lanes[index % 2].put((conn, conn.current_ticket(), index))
        return PENDING

    def encode(self, result, conn):
        return result

    def _complete(self, lane):
        while True:
            item = lane.get()
            if item is None:
                return
            conn, ticket, index = item
            conn.complete_request(self.reply(index, self.sizes[index]),
                                  ticket)

    def stop(self):
        for lane in self.lanes:
            lane.put(None)
        for thread in self.threads:
            thread.join(5)
            assert not thread.is_alive()


def test_replies_from_two_threads_arrive_whole_and_in_order():
    sizes = [20000 + 1500 * (i % 7) for i in range(24)]
    hooks = PipelinedHooks(sizes)
    framework = generated_framework({"O4": "Synchronous"})
    server = framework.Server(hooks,
                              configuration=framework.ServerConfiguration())
    expected = b"".join(hooks.reply(i, size) for i, size in enumerate(sizes))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)   # interleave the threads as often as possible
    try:
        with ServerFixture(server) as fixture:
            with socket.create_connection(("127.0.0.1", fixture.port),
                                          timeout=10) as client:
                client.sendall(b"".join(b"%d\n" % i
                                        for i in range(len(sizes))))
                got = bytearray()
                while len(got) < len(expected):
                    chunk = client.recv(8192)
                    assert chunk, "server closed early"
                    got += chunk
                assert bytes(got) == expected
                (conn,) = hooks.conns
                wait_until(lambda: not conn.busy(),
                           message="every reply flushed")
                assert len(conn.handle.out_buffer) == 0
    finally:
        sys.setswitchinterval(interval)
        hooks.stop()


class GreetingHooks(ServerHooks):
    """Client-side hooks whose greeting the Connector Event Handler
    sends once the outbound connection is registered."""

    def client_greeting(self, conn):
        return b"HELO repro\n"


@pytest.mark.parametrize("pool", [True, False], ids=["pool", "inline"])
def test_outbound_connect_is_registered_and_greets(pool):
    framework = generated_framework({"O4": "Synchronous", "O2": pool})
    server = framework.Server(ServerHooks(),
                              configuration=framework.ServerConfiguration())
    with socket.socket() as listener:
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        with ServerFixture(server):
            conn = server.connect(framework.ClientConfiguration(
                "127.0.0.1", listener.getsockname()[1],
                hooks=GreetingHooks()))
            peer, _addr = listener.accept()
            with peer:
                peer.settimeout(10)
                assert peer.recv(64) == b"HELO repro\n"
                reactor = server.reactor
                assert reactor.dispatcher.unrouted == 0
                assert reactor.container.lookup(conn.handle) is conn
