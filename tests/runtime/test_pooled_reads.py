"""The pooled ``recv_into`` read path (O18 plane satellites).

``SocketHandle.try_recv`` used to allocate a fresh ``bytes`` per call;
it now reads into one pooled buffer per live connection.  These tests
pin the reasons that is safe:

* the returned ``memoryview`` aliases the pooled buffer — no copy on
  the hot path — and a copy-out after every read keeps reassembly
  exact under adversarial peer chunking;
* the pool's hit/miss accounting surfaces as the O11 gauge
  ``server_read_pool_hit_rate``;
* a fault-closed fd still leaves the poller's registration set (the
  epoll bookkeeping regression).
"""

import socket

from hypothesis import given, settings, strategies as st

from harness import ServerFixture, generated_server, wait_until
from repro.runtime import BufferPool, ServerHooks, SocketHandle
from repro.runtime.event_source import SocketEventSource


def _pair():
    a, b = socket.socketpair()
    a.setblocking(False)
    return a, b


# -- no-copy + aliasing -------------------------------------------------


def test_try_recv_returns_view_over_pooled_buffer():
    """The no-copy pin: what try_recv returns is a memoryview whose
    backing object IS the handle's pooled read buffer, not a fresh
    ``bytes``."""
    a, b = _pair()
    pool = BufferPool()
    try:
        handle = SocketHandle(a, name="t")
        handle.read_pool = pool
        b.sendall(b"payload")
        chunk = handle.try_recv()
        assert isinstance(chunk, memoryview)
        assert chunk.obj is handle._read_buf
        assert bytes(chunk) == b"payload"
        # the same backing buffer is reused by the next read
        first_buf = handle._read_buf
        b.sendall(b"again")
        chunk2 = handle.try_recv()
        assert chunk2.obj is first_buf
        assert bytes(chunk2) == b"again"
    finally:
        a.close()
        b.close()


def test_release_returns_buffer_to_pool_and_is_idempotent():
    a, b = _pair()
    pool = BufferPool()
    handle = SocketHandle(a, name="t")
    handle.read_pool = pool
    b.sendall(b"x")
    handle.try_recv()
    assert pool.stats.misses == 1  # first checkout: cold pool
    handle.release_read_buffer()
    handle.release_read_buffer()  # idempotent
    assert pool.stats.releases == 1
    handle.close()  # close after release: still no double-release
    assert pool.stats.releases == 1
    b.close()
    # the next connection's first read is now a pool hit
    c, d = _pair()
    try:
        handle2 = SocketHandle(c, name="t2")
        handle2.read_pool = pool
        d.sendall(b"y")
        handle2.try_recv()
        assert pool.stats.hits == 1
        handle2.close()
    finally:
        c.close()
        d.close()


@settings(max_examples=50, deadline=None)
@given(st.binary(min_size=1, max_size=4096),
       st.lists(st.integers(min_value=1, max_value=64), min_size=1,
                max_size=30))
def test_reassembly_survives_adversarial_chunking(payload, cut_sizes):
    """Aliasing/no-corruption property: the peer dribbles the payload
    in arbitrary short writes; reading through ``try_recv`` (which
    reuses ONE buffer for every chunk) and copying out must reassemble the
    exact byte sequence — copy-out has to happen before the next recv
    scribbles over the shared buffer."""
    a, b = _pair()
    pool = BufferPool()
    try:
        handle = SocketHandle(a, name="t")
        handle.read_pool = pool
        sink = bytearray()
        sent = 0
        cuts = iter(cut_sizes)
        while sent < len(payload):
            step = next(cuts, None) or len(payload)
            b.sendall(payload[sent:sent + step])
            sent += step
            # tiny max_bytes forces many partial reads over one buffer
            while True:
                chunk = handle.try_recv(max_bytes=7)
                if not chunk:
                    break
                sink += chunk
        assert bytes(sink) == payload
    finally:
        handle.close()
        a.close()
        b.close()


# -- the O11 gauge ------------------------------------------------------


def test_read_pool_hit_rate_gauge():
    """The read pool's accounting is wired into the O11 sampler as
    ``server_read_pool_hit_rate`` and reports a sane ratio after real
    traffic."""
    server = generated_server(
        ServerHooks(), {"O3": False, "O4": "Synchronous", "O11": True})
    with ServerFixture(server) as srv:
        for _ in range(3):  # sequential connections: later ones hit
            assert srv.request(b"ping\n") == b"ping\n"
        reactor = server.reactor
        stats = reactor.socket_source.read_pool.stats
        wait_until(lambda: stats.acquires >= 3)
        reactor.observability.sample()
        value = reactor.observability.registry.value(
            "server_read_pool_hit_rate")
        assert value is not None
        assert 0.0 <= value <= 1.0
        assert value == stats.hit_rate


# -- fault-closed fd bookkeeping ---------------------------------------


def test_fault_closed_fd_is_unregistered_from_poller(poller_backend):
    """Regression pin: a handle whose socket was closed out from under
    it (``fileno()`` now -1 on a real socket, but the event source
    cached the fd) must still be deregistered from the poller's set —
    a leaked epoll entry would alias the next connection that reuses
    the fd number."""
    source = SocketEventSource(poller=poller_backend)
    a, b = _pair()
    try:
        handle = SocketHandle(a, name="t")
        source.register(handle)
        fd = handle.fileno()
        assert fd in source._handles
        a.close()  # the fault: kernel-level close behind our back
        source.deregister(handle)
        assert fd not in source._handles
        data = getattr(source._poller, "_data", None)
        if data is not None:  # epoll backend bookkeeping
            assert fd not in data
        # and the pooled read buffer went back to the pool
        assert handle._read_buf is None
    finally:
        source.close()
        b.close()
