"""Fault-injecting socket handles over a real socketpair: the wrapper
must surface exactly the syscall outcomes the schedule dictates."""

import socket

import pytest

from repro.faults import FaultSchedule, FaultSpec, faulty_handle_cls

pytestmark = [pytest.mark.faults, pytest.mark.timeout(30)]


@pytest.fixture
def pair():
    a, b = socket.socketpair()
    a.setblocking(False)
    yield a, b
    a.close()
    b.close()


def make_handle(spec, sock, seed=0):
    schedule = FaultSchedule(spec, seed=seed)
    cls = faulty_handle_cls(schedule)
    return cls(sock, name="test"), schedule


def test_injected_eagain_hides_available_data(pair):
    a, b = pair
    handle, _ = make_handle(FaultSpec(recv_eagain=1.0), a)
    b.sendall(b"hello")
    assert handle.try_recv() is None       # data is there; the fault lies
    assert not handle.closed


def test_injected_reset_closes_midstream(pair):
    a, b = pair
    handle, _ = make_handle(FaultSpec(recv_reset=1.0), a)
    b.sendall(b"hello")
    assert handle.try_recv() == b""        # EOF-like: runtime tears down
    assert handle.closed


def test_partial_read_caps_bytes(pair):
    a, b = pair
    handle, _ = make_handle(
        FaultSpec(partial_read=1.0, partial_read_bytes=3), a)
    b.sendall(b"abcdefgh")
    assert handle.try_recv() == b"abc"
    assert handle.try_recv() == b"def"


def test_partial_write_trickles_output(pair):
    a, b = pair
    handle, _ = make_handle(
        FaultSpec(partial_write=1.0, partial_write_bytes=2), a)
    assert handle.write([b"abc", b"def"]) == 2     # the optimistic send
    assert b"".join(handle.out_buffer.iov()) == b"cdef"
    assert handle.try_send() == 2                   # the drain
    assert b"".join(handle.out_buffer.iov()) == b"ef"
    assert b.recv(16) == b"abcd"


def test_send_eagain_makes_no_progress(pair):
    a, b = pair
    handle, _ = make_handle(FaultSpec(send_eagain=1.0), a)
    assert handle.write([b"xyz"]) == 0
    assert handle.try_send() == 0
    assert b"".join(handle.out_buffer.iov()) == b"xyz"


def test_clean_schedule_behaves_like_base(pair):
    a, b = pair
    handle, schedule = make_handle(FaultSpec(), a)
    b.sendall(b"ping")
    assert handle.try_recv() == b"ping"
    assert handle.write([b"pong"]) == 4
    assert not handle.out_buffer
    assert b.recv(16) == b"pong"
    assert schedule.counts() == {}


def test_each_handle_gets_its_own_stream(pair):
    a, b = pair
    schedule = FaultSchedule(FaultSpec(), seed=0)
    cls = faulty_handle_cls(schedule)
    h1 = cls(a, name="one")
    h2 = cls(b, name="two")
    assert h1.fault_stream == "conn-0"
    assert h2.fault_stream == "conn-1"


# -- replies whose body is a file range -----------------------------------------

HEAD = b"HTTP/1.1 200 OK\r\nContent-Length: 20000\r\n\r\n"
BODY = bytes(range(256)) * 78 + b"tail" * 8          # 20,000 bytes


@pytest.fixture
def file_body(tmp_path):
    from repro.runtime import FileHandle

    path = tmp_path / "body.bin"
    path.write_bytes(BODY)
    return FileHandle(str(path))


def drive(handle, reader, replies, rounds=10_000):
    """Write ``replies`` (lists of segments) through ``handle`` and
    flush until done or closed; returns every byte the peer got."""
    for segments in replies:
        handle.write(segments)
    got = bytearray()
    reader.setblocking(False)
    for _ in range(rounds):
        if handle.closed or not handle.out_buffer:
            break
        handle.try_send()
        try:
            got += reader.recv(1 << 16)
        except BlockingIOError:
            pass
    reader.settimeout(0.2)
    try:
        while chunk := reader.recv(1 << 16):
            got += chunk
    except (TimeoutError, socket.timeout):
        pass
    return bytes(got)


@pytest.mark.parametrize("spec", [
    FaultSpec(send_eagain=0.5),
    FaultSpec(partial_write=1.0, partial_write_bytes=700),
    FaultSpec(send_eagain=0.3, partial_write=0.4, partial_write_bytes=333),
], ids=["eagain", "partial", "eagain+partial"])
def test_file_body_replies_arrive_whole_and_in_order(pair, file_body, spec):
    a, b = pair
    handle, schedule = make_handle(spec, a, seed=5)
    replies = [[HEAD + b"%d" % i, file_body] for i in range(3)]
    got = drive(handle, b, replies)
    assert not handle.closed and not handle.out_buffer
    assert got == b"".join(HEAD + b"%d" % i + BODY for i in range(3))
    assert set(schedule.counts()) & {"eagain", "partial"}


def test_file_body_reply_reset_midstream_closes_on_a_prefix(pair, file_body):
    a, b = pair
    handle, schedule = make_handle(
        FaultSpec(send_reset=0.2, partial_write=1.0,
                  partial_write_bytes=1500), a, seed=3)
    replies = [[HEAD + b"%d" % i, file_body] for i in range(3)]
    got = drive(handle, b, replies)
    assert handle.closed and schedule.counts().get("reset")
    expected = b"".join(HEAD + b"%d" % i + BODY for i in range(3))
    assert len(got) < len(expected) and expected.startswith(got)
