"""Unit tests for the pluggable readiness backends.

Everything in the first section runs against *both* backends through
the shared interface; the second section pins epoll-only semantics the
event source depends on (edge re-arm via MOD, the register-vs-poll
publication order, fault-closed fd tolerance).
"""

import select
import socket

import pytest

from repro.runtime import (
    EpollPoller,
    SelectPoller,
    available_pollers,
    make_poller,
)
from repro.runtime.poller import ONESHOT, READ, WRITE


@pytest.fixture
def pair():
    a, b = socket.socketpair()
    a.setblocking(False)
    b.setblocking(False)
    yield a, b
    a.close()
    b.close()


@pytest.fixture
def poller(poller_backend):
    p = make_poller(poller_backend)
    yield p
    p.close()


# -- interface contract, both backends ----------------------------------


def test_read_readiness_carries_data_cookie(poller, pair):
    a, b = pair
    poller.register(a.fileno(), READ, "cookie")
    assert poller.poll(0.0) == []
    b.sendall(b"x")
    assert poller.poll(1.0) == [("cookie", READ)]


def test_write_readiness(poller, pair):
    a, _b = pair
    poller.register(a.fileno(), WRITE, "w")
    data, mask = poller.poll(1.0)[0]
    assert data == "w" and mask & WRITE


def test_modify_switches_interest(poller, pair):
    a, b = pair
    b.sendall(b"x")
    poller.register(a.fileno(), WRITE, "h")
    poller.modify(a.fileno(), READ, "h")
    ready = poller.poll(1.0)
    assert ready and all(mask & READ and not mask & WRITE
                         for _, mask in ready)


def test_zero_mask_parks_fd_silently(poller, pair):
    a, b = pair
    b.sendall(b"x")
    poller.register(a.fileno(), 0, "parked")
    assert poller.poll(0.05) == []
    # unpark: readiness that accrued while parked is reported
    poller.modify(a.fileno(), READ, "parked")
    assert ("parked", READ) in poller.poll(1.0)


def test_unregister_stops_events(poller, pair):
    a, b = pair
    poller.register(a.fileno(), READ, "gone")
    poller.unregister(a.fileno())
    b.sendall(b"x")
    assert poller.poll(0.05) == []


def test_unregister_unknown_fd_raises(poller):
    with pytest.raises(KeyError):
        poller.unregister(999999)


def test_register_already_ready_fd_delivers_event(poller, pair):
    """The lost-edge regression: an fd that is readable *at* register
    time must surface on the next poll — under ET the ADD-time edge is
    the only one the kernel will ever post for those bytes."""
    a, b = pair
    b.sendall(b"early")
    poller.register(a.fileno(), READ, "late-reg")
    assert ("late-reg", READ) in poller.poll(1.0)


def test_oneshot_flag_keeps_interest_semantics(poller, pair):
    """ONESHOT is a flag, not an interest: the first delivery of a
    one-shot registration looks exactly like a plain one."""
    a, b = pair
    poller.register(a.fileno(), READ | ONESHOT, "h")
    assert poller.poll(0.0) == []
    b.sendall(b"x")
    assert poller.poll(1.0) == [("h", READ)]
    poller.modify(a.fileno(), ONESHOT, "h")     # paused: no interest
    assert poller.poll(0.05) == []


# -- backend selection --------------------------------------------------


def test_available_pollers_select_first():
    names = available_pollers()
    assert names[0] == "select"
    assert set(names) <= {"select", "epoll"}


def test_make_poller_explicit_name_beats_env(monkeypatch):
    monkeypatch.setenv("REPRO_POLLER", "epoll")
    assert isinstance(make_poller("select"), SelectPoller)


def test_make_poller_env_fallback(monkeypatch):
    monkeypatch.setenv("REPRO_POLLER", "select")
    assert isinstance(make_poller(), SelectPoller)


def test_make_poller_unknown_name():
    with pytest.raises(ValueError):
        make_poller("kqueue-ish")


def test_select_poller_is_not_secretly_epoll():
    # the oracle must stay the scan-shaped backend on every platform
    p = SelectPoller()
    try:
        assert p.edge_triggered is False
        assert not isinstance(getattr(p, "_selector"),
                              getattr(__import__("selectors"),
                                      "EpollSelector",
                                      ()) or tuple())
    finally:
        p.close()


# -- epoll-only semantics ----------------------------------------------

epoll_only = pytest.mark.skipif("epoll" not in available_pollers(),
                                reason="no select.epoll on this platform")


@epoll_only
def test_epoll_mod_rearms_pending_edge():
    """resume-after-pause: data arrived while interest was off; the
    MOD back to READ must re-post the edge even though no *new* bytes
    arrive afterwards."""
    a, b = socket.socketpair()
    p = EpollPoller()
    try:
        a.setblocking(False)
        p.register(a.fileno(), READ, "h")
        b.sendall(b"x")
        assert p.poll(1.0) == [("h", READ)]  # edge consumed
        assert p.poll(0.05) == []            # ET: not re-posted
        p.modify(a.fileno(), READ, "h")      # re-arm
        assert p.poll(1.0) == [("h", READ)]
    finally:
        p.close()
        a.close()
        b.close()


@epoll_only
def test_epoll_oneshot_disarms_until_modify():
    """The read pause the event source leaves to the kernel: after one
    delivery a one-shot fd reports nothing — not new bytes, not its
    write readiness — until a MOD re-arms it, which re-posts what is
    still pending."""
    a, b = socket.socketpair()
    p = EpollPoller()
    try:
        a.setblocking(False)
        p.register(a.fileno(), READ | ONESHOT, "h")
        b.sendall(b"x")
        assert p.poll(1.0) == [("h", READ)]
        b.sendall(b"y")                          # a new edge, disarmed
        assert p.poll(0.05) == []
        p.modify(a.fileno(), READ | WRITE | ONESHOT, "h")
        assert p.poll(1.0) == [("h", READ | WRITE)]
        assert p.poll(0.05) == []                # disarmed again
    finally:
        p.close()
        a.close()
        b.close()


@epoll_only
def test_epoll_unregister_after_close_is_clean():
    """A fault-closed fd already left the kernel set; unregister must
    still drop the bookkeeping entry without raising, so the event
    source never leaks a dead registration."""
    a, b = socket.socketpair()
    p = EpollPoller()
    try:
        fd = a.fileno()
        p.register(fd, READ, "dead")
        a.close()
        p.unregister(fd)  # kernel beat us to it: no raise
        assert fd not in p._data
        with pytest.raises(KeyError):
            p.unregister(fd)  # and it is really gone
    finally:
        p.close()
        b.close()


@epoll_only
def test_epoll_hup_surfaces_as_read():
    a, b = socket.socketpair()
    p = EpollPoller()
    try:
        a.setblocking(False)
        p.register(a.fileno(), READ, "h")
        b.close()
        ready = p.poll(1.0)
        assert ready and ready[0][1] & READ
    finally:
        p.close()
        a.close()


@epoll_only
def test_epoll_register_publishes_data_before_ctl():
    """Regression pin for the lost-edge race: the fd→data entry must be
    visible the instant the kernel can deliver the ADD-time edge.  We
    can't lose the race deterministically from one thread, so pin the
    ordering instead: a register that fails at epoll_ctl must roll the
    entry back (proving it was inserted first), and a successful one
    must leave it in place."""
    p = EpollPoller()
    try:
        with pytest.raises(OSError):
            p.register(999999, READ, "never")  # EBADF at epoll_ctl
        assert 999999 not in p._data
    finally:
        p.close()
