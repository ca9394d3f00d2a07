"""Property-based tests for the Communicator's framing independence:
however the byte stream is chunked by the network, the replies are
byte-identical and in order."""

from hypothesis import given, settings, strategies as st

from repro.runtime import Communicator, ServerHooks


class MemoryHandle:
    def __init__(self):
        self.name = "mem"
        self.out_buffer = bytearray()
        self.sent = bytearray()
        self.last_activity = 0.0
        self.closed = False

    def try_recv(self, max_bytes=65536):
        return None

    def write(self, segments):
        for segment in segments:
            self.out_buffer.extend(segment)
        return self.try_send()

    def try_send(self):
        n = len(self.out_buffer)
        self.sent.extend(self.out_buffer)
        del self.out_buffer[:]
        return n

    @property
    def wants_write(self):
        return bool(self.out_buffer)

    def fileno(self):
        return -1

    def shutdown(self):
        pass

    def close(self):
        self.closed = True


class ReverseHooks(ServerHooks):
    def decode(self, raw, conn):
        return raw.rstrip(b"\n")

    def handle(self, request, conn):
        return request[::-1]

    def encode(self, result, conn):
        return result + b"\n"


LINES = st.lists(
    st.binary(max_size=30).filter(lambda b: b"\n" not in b),
    min_size=1, max_size=10,
)


@st.composite
def chunked_stream(draw):
    lines = draw(LINES)
    stream = b"".join(line + b"\n" for line in lines)
    cuts = draw(st.lists(st.integers(0, len(stream)), max_size=8))
    points = sorted(set([0, len(stream)] + cuts))
    chunks = [stream[a:b] for a, b in zip(points, points[1:])]
    return lines, chunks


@given(data=chunked_stream())
@settings(max_examples=150, deadline=None)
def test_chunking_does_not_change_replies(data):
    lines, chunks = data
    conn = Communicator(MemoryHandle(), ReverseHooks())
    for chunk in chunks:
        conn.in_buffer.extend(chunk)
        conn._pump_requests()
    expected = b"".join(line[::-1] + b"\n" for line in lines)
    assert bytes(conn.handle.sent) == expected
    assert conn.requests_completed == len(lines)


@given(data=chunked_stream())
@settings(max_examples=100, deadline=None)
def test_byte_at_a_time_equivalent_to_bulk(data):
    lines, _ = data
    stream = b"".join(line + b"\n" for line in lines)

    bulk = Communicator(MemoryHandle(), ReverseHooks())
    bulk.in_buffer.extend(stream)
    bulk._pump_requests()

    dribble = Communicator(MemoryHandle(), ReverseHooks())
    for i in range(len(stream)):
        dribble.in_buffer.extend(stream[i:i + 1])
        dribble._pump_requests()

    assert bytes(bulk.handle.sent) == bytes(dribble.handle.sent)
