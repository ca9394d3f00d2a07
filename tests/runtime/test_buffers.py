"""Property-based tests for the segmented out-buffer every SocketHandle
writes through.

* an adversarial short-write socket drains a segmented OutBuffer to
  exactly the concatenated payload, whether the reply went through
  ``write``'s optimistic send or straight onto the queue;
* queuing with a sent prefix skipped matches a bytes model.
"""

from collections import deque

from hypothesis import given, settings, strategies as st

from repro.runtime.handles import OutBuffer, SocketHandle

PAYLOAD = st.binary(max_size=300)
#: segment kind: plain bytes, a memoryview over bytes, or a bytearray
KIND = st.sampled_from(["bytes", "view", "bytearray"])


# -- OutBuffer drain under adversarial short writes -----------------------


class ShortWriteSock:
    """A socket double whose sendmsg accepts an adversarial number of
    bytes per call (then everything, so drains terminate)."""

    def __init__(self, caps):
        self.caps = deque(caps)
        self.sent = bytearray()

    def setblocking(self, flag):
        pass

    def getpeername(self):
        raise OSError("not connected")

    def sendmsg(self, iov):
        total = sum(len(v) for v in iov)
        n = min(self.caps.popleft(), total) if self.caps else total
        remaining = n
        for view in iov:
            take = min(len(view), remaining)
            self.sent += bytes(view[:take])
            remaining -= take
            if not remaining:
                break
        return n

    def close(self):
        pass


def _segments(segments):
    """(kind, payload) pairs as the segment objects a writer passes,
    plus the expected concatenation."""
    kinds = {"bytes": bytes, "view": memoryview, "bytearray": bytearray}
    out = [kinds[kind](payload) for kind, payload in segments]
    return out, b"".join(payload for _kind, payload in segments)


def _queued(out):
    return b"".join(out.iov(max_vecs=len(out) + 1))


@given(segments=st.lists(st.tuples(KIND, PAYLOAD), max_size=12),
       caps=st.lists(st.integers(min_value=0, max_value=97), max_size=40),
       optimistic=st.booleans())
@settings(max_examples=100, deadline=None)
def test_short_write_drain_reproduces_payload_exactly(segments, caps,
                                                      optimistic):
    parts, expected = _segments(segments)
    handle = SocketHandle(ShortWriteSock(caps))
    if optimistic:
        sent = handle.write(parts)
    else:
        handle.out_buffer.append(parts)
        sent = 0
    assert len(handle.out_buffer) == len(expected) - sent
    stalls = 0
    while handle.out_buffer and stalls < len(caps) + 1:
        if handle.try_send() == 0:
            stalls += 1  # a 0-cap call sent nothing; caps are finite
    assert bytes(handle.sock.sent) == expected
    assert len(handle.out_buffer) == 0 and not handle.out_buffer


@given(segments=st.lists(st.tuples(KIND, PAYLOAD), max_size=8),
       skip=st.integers(min_value=0, max_value=2500),
       consumed=st.integers(min_value=0, max_value=2500))
@settings(max_examples=80, deadline=None)
def test_skip_and_advance_match_bytes_model(segments, skip, consumed):
    parts, expected = _segments(segments)
    skip = min(skip, len(expected))
    out = OutBuffer()
    out.append(parts, skip=skip)
    model = expected[skip:]
    assert len(out) == len(model) and bool(out) == bool(model)
    assert _queued(out) == model
    consumed = min(consumed, len(model))
    out.advance(consumed)
    assert _queued(out) == model[consumed:]
    assert len(out) == len(model) - consumed


def test_iov_is_capped_under_iov_max():
    out = OutBuffer()
    out.append([bytes([i]) for i in range(100)])
    assert len(out.iov()) == 64
    assert len(out.iov(max_vecs=3)) == 3
    assert len(out) == 100


def test_mutable_segments_are_snapshotted():
    out = OutBuffer()
    data = bytearray(b"live")
    out.append([data])
    data[:] = b"dead"
    assert _queued(out) == b"live"


def test_immutable_segments_are_referenced_not_copied():
    body = b"x" * 4096
    out = OutBuffer()
    out.append([b"head", memoryview(body)], skip=6)
    (view,) = out.iov()
    assert view.obj is body and len(view) == 4094
