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
