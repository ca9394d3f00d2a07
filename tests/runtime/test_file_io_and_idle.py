"""Tests for AsyncFileIO (Proactor emulation), the generated O7 idle
reaper and Container."""

import time

import pytest

from harness import IdleConn, idle_container
from repro.cache import FileCache
from repro.runtime import (
    AsyncFileIO,
    AsynchronousCompletionToken,
    Container,
)


def wait_for(predicate, timeout=3.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.005)
    return False


# -- AsyncFileIO ---------------------------------------------------------------


def test_read_file_posts_completion(tmp_path):
    (tmp_path / "f.txt").write_bytes(b"contents")
    got = []
    io_pool = AsyncFileIO(sink=got.append, threads=1, root=str(tmp_path))
    io_pool.start()
    try:
        io_pool.read_file("/f.txt")
        assert wait_for(lambda: got)
        assert got[0].ok and got[0].payload == b"contents"
    finally:
        io_pool.stop()


def test_read_missing_file_posts_error(tmp_path):
    got = []
    io_pool = AsyncFileIO(sink=got.append, threads=1, root=str(tmp_path))
    io_pool.start()
    try:
        io_pool.read_file("/missing.txt")
        assert wait_for(lambda: got)
        assert not got[0].ok and isinstance(got[0].error, OSError)
    finally:
        io_pool.stop()


def test_act_round_trips_context(tmp_path):
    (tmp_path / "f").write_bytes(b"x")
    got = []
    io_pool = AsyncFileIO(sink=got.append, threads=1, root=str(tmp_path))
    io_pool.start()
    try:
        io_pool.read_file("/f", act=AsynchronousCompletionToken(context={"req": 7}))
        assert wait_for(lambda: got)
        assert got[0].token.context == {"req": 7}
    finally:
        io_pool.stop()


def test_cache_hit_completes_without_disk(tmp_path):
    (tmp_path / "f").write_bytes(b"cached")
    cache = FileCache.for_directory(str(tmp_path), capacity=1 << 20)
    got = []
    io_pool = AsyncFileIO(sink=got.append, threads=1, cache=cache)
    io_pool.start()
    try:
        io_pool.read_file("/f")
        assert wait_for(lambda: len(got) == 1)
        io_pool.read_file("/f")   # now a cache hit: completes synchronously
        assert wait_for(lambda: len(got) == 2)
        assert io_pool.cache_hits == 1
        assert got[1].payload == b"cached"
    finally:
        io_pool.stop()


def test_completion_priority_propagates(tmp_path):
    (tmp_path / "f").write_bytes(b"x")
    got = []
    io_pool = AsyncFileIO(sink=got.append, threads=1, root=str(tmp_path))
    io_pool.start()
    try:
        io_pool.read_file("/f", priority=3)
        assert wait_for(lambda: got)
        assert got[0].priority == 3
    finally:
        io_pool.stop()


def test_traversal_outside_root_rejected(tmp_path):
    got = []
    io_pool = AsyncFileIO(sink=got.append, threads=1, root=str(tmp_path))
    io_pool.start()
    try:
        io_pool.read_file("/../../etc/hostname")
        assert wait_for(lambda: got)
        assert not got[0].ok
    finally:
        io_pool.stop()


def test_thread_validation():
    with pytest.raises(ValueError):
        AsyncFileIO(sink=lambda e: None, threads=0)


# -- idle reaper (the generated O7 ContainerComponent.reap_idle) -------------


def test_reaper_closes_only_idle():
    container = idle_container(lambda: 100.0)
    fresh = IdleConn(container, last_activity=95.0)
    stale = IdleConn(container, last_activity=80.0)
    assert container.reap_idle(10.0) == 1
    assert stale.closed and not fresh.closed
    assert container.connections() == [fresh]


def test_reaper_skips_already_closed():
    container = idle_container(lambda: 100.0)
    dead = IdleConn(container, last_activity=0.0)
    dead.closed = True
    assert container.reap_idle(1.0) == 0


def test_reaper_unwatch():
    """A connection already torn down (out of the container) is never
    reaped."""
    container = idle_container(lambda: 100.0)
    conn = IdleConn(container)
    container.remove(conn)
    assert container.reap_idle(1.0) == 0
    assert not conn.closed


def test_reaper_counts():
    container = idle_container(lambda: 100.0)
    for _ in range(3):
        IdleConn(container, last_activity=0.0)
    assert container.reap_idle(1.0) == 3
    assert len(container) == 0


# -- Container ---------------------------------------------------------------------


class FakeCommunicator:
    def __init__(self):
        self.handle = object()
        self.readable_calls = 0
        self.writable_calls = 0
        self.closed = False

    def on_readable(self, event):
        self.readable_calls += 1

    def on_writable(self, event):
        self.writable_calls += 1

    def close(self):
        self.closed = True


class FakeEvent:
    def __init__(self, handle):
        self.handle = handle


def test_container_routes_by_handle():
    cont = Container()
    a, b = FakeCommunicator(), FakeCommunicator()
    cont.add(a)
    cont.add(b)
    cont.route_readable(FakeEvent(a.handle))
    cont.route_writable(FakeEvent(b.handle))
    assert a.readable_calls == 1 and a.writable_calls == 0
    assert b.writable_calls == 1 and b.readable_calls == 0


def test_container_unknown_handle_ignored():
    cont = Container()
    cont.route_readable(FakeEvent(object()))  # must not raise


def test_container_remove_and_len():
    cont = Container()
    a = FakeCommunicator()
    cont.add(a)
    assert len(cont) == 1
    cont.remove(a)
    assert len(cont) == 0
    assert cont.lookup(a.handle) is None


def test_container_close_all():
    cont = Container()
    conns = [FakeCommunicator() for _ in range(3)]
    for c in conns:
        cont.add(c)
    cont.close_all()
    assert all(c.closed for c in conns)
