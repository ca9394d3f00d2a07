"""The ``recv_into`` read path of ``SocketHandle.try_recv``.

``try_recv`` reads into one buffer per connection, allocated on first
use, reused by every later read and dropped at close.  These tests pin
the reasons that is safe:

* the returned ``memoryview`` aliases that buffer — no copy on the hot
  path — and a copy-out after every read keeps reassembly exact under
  adversarial peer chunking;
* a fault-closed fd still leaves the poller's registration set (the
  epoll bookkeeping regression).
"""

import socket

from hypothesis import given, settings, strategies as st

from repro.runtime import SocketHandle
from repro.runtime.event_source import SocketEventSource


def _pair():
    a, b = socket.socketpair()
    a.setblocking(False)
    return a, b


# -- no-copy + aliasing -------------------------------------------------


def test_try_recv_returns_view_over_pooled_buffer():
    """The no-copy pin: what try_recv returns is a memoryview whose
    backing object IS the handle's read buffer, not a fresh ``bytes``;
    close drops the buffer."""
    a, b = _pair()
    try:
        handle = SocketHandle(a, name="t")
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
        handle.close()
        assert handle._read_buf is None
    finally:
        a.close()
        b.close()


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
    try:
        handle = SocketHandle(a, name="t")
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
    finally:
        source.close()
        b.close()
