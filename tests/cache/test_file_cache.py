"""Tests for the read-through FileCache front-end and its docroot
reader."""

import os
import sys
import threading
import weakref

import pytest

from repro.cache import CustomPolicy, FileCache, FileNotCacheable, file_cache
from repro.cache.file_cache import PAGE, read_body
from repro.runtime.handles import FileHandle


def counting_loader(files):
    calls = {"n": 0}

    def loader(path):
        calls["n"] += 1
        if path not in files:
            raise FileNotFoundError(path)
        data = files[path]
        return len(data), data

    return loader, calls


def test_miss_then_hit():
    loader, calls = counting_loader({"/a": b"hello"})
    fc = FileCache(capacity=100, policy="LRU", loader=loader)
    first = fc.get_file("/a")
    second = fc.get_file("/a")
    assert not first.from_cache and second.from_cache
    assert calls["n"] == 1
    assert second.payload == b"hello"


def test_missing_file_propagates():
    loader, _ = counting_loader({})
    fc = FileCache(capacity=100, loader=loader)
    with pytest.raises(FileNotFoundError):
        fc.get_file("/nope")


def test_policy_by_name():
    fc = FileCache(capacity=100, policy="Hyper-G", loader=lambda p: (1, b"x"))
    assert fc.policy_name == "Hyper-G"


def test_threshold_policy_kwargs():
    fc = FileCache(capacity=1000, policy="LRU-Threshold", threshold=10,
                   loader=lambda p: (50, b"x" * 50))
    fc.get_file("/big")
    fc.get_file("/big")
    # 50 > threshold 10: never cached, loader consulted every time
    assert fc.stats.hits == 0


def test_not_cacheable_marker():
    def loader(path):
        raise FileNotCacheable(7, b"dynamic!")

    fc = FileCache(capacity=100, loader=loader)
    got = fc.get_file("/cgi")
    assert got.payload == b"dynamic!" and not got.from_cache
    assert not fc.contains("/cgi")


def test_invalidate():
    loader, calls = counting_loader({"/a": b"v1"})
    fc = FileCache(capacity=100, loader=loader)
    fc.get_file("/a")
    assert fc.invalidate("/a")
    fc.get_file("/a")
    assert calls["n"] == 2


def test_no_loader_raises():
    fc = FileCache(capacity=100)
    with pytest.raises(FileNotFoundError):
        fc.get_file("/anything")


def test_for_directory_reads_real_files(tmp_path):
    (tmp_path / "index.html").write_bytes(b"<html>hi</html>")
    fc = FileCache.for_directory(str(tmp_path), capacity=1 << 20)
    got = fc.get_file("/index.html")
    assert got.payload == b"<html>hi</html>"
    assert fc.get_file("/index.html").from_cache


def test_for_directory_rejects_traversal(tmp_path):
    (tmp_path / "f").write_bytes(b"ok")
    fc = FileCache.for_directory(str(tmp_path), capacity=1 << 20)
    with pytest.raises(FileNotFoundError):
        fc.get_file("/../etc/passwd")


def test_eviction_through_file_cache():
    files = {f"/f{i}": bytes(40) for i in range(5)}
    loader, _ = counting_loader(files)
    fc = FileCache(capacity=100, policy="LRU", loader=loader)
    for p in files:
        fc.get_file(p)
    assert fc.cache.used <= 100
    assert fc.stats.evictions >= 3


# -- file bodies ---------------------------------------------------------------


def test_read_body_rejects_a_sibling_sharing_the_root_prefix(tmp_path):
    (tmp_path / "www").mkdir()
    (tmp_path / "www-secrets").mkdir()
    (tmp_path / "www-secrets" / "key").write_bytes(b"secret")
    with pytest.raises(FileNotFoundError):
        read_body(str(tmp_path / "www"), "/../www-secrets/key")
    with pytest.raises(FileNotFoundError):
        read_body(None, "/key")


def test_bodies_below_one_page_are_bytes_and_above_are_file_bodies(tmp_path):
    small = bytes(range(256)) * ((PAGE - 1) // 256) + b"x" * ((PAGE - 1) % 256)
    (tmp_path / "small").write_bytes(small)
    (tmp_path / "page").write_bytes(b"p" * PAGE)
    (tmp_path / "big").write_bytes(bytes(range(256)) * 40 + b"tail")
    body = read_body(str(tmp_path), "/small")
    assert type(body) is bytes and body == small
    for name in ("page", "big"):
        expected = (tmp_path / name).read_bytes()
        body = read_body(str(tmp_path), "/" + name)
        assert isinstance(body, FileHandle) and not body.closed
        assert len(body) == len(expected) and body == expected
        assert bytes(body) == expected and bytes(body[5:-3]) == expected[5:-3]
        assert body[7:7] == b"" and body[10:20] == expected[10:20]
        with pytest.raises(TypeError):
            body[0] = 0


def test_a_file_body_reads_the_file_as_it_is_now(tmp_path):
    """The body is the open file: an in-place edit shows through, a
    rename-replace leaves it on the old inode, and a shrunk file reads
    short (never padded)."""
    (tmp_path / "f").write_bytes(b"a" * (2 * PAGE))
    body = read_body(str(tmp_path), "/f")
    with open(tmp_path / "f", "r+b") as fh:
        fh.write(b"b" * 10)
    assert bytes(body[:12]) == b"b" * 10 + b"aa"
    os.truncate(tmp_path / "f", PAGE)
    assert len(body) == 2 * PAGE and bytes(body) == b"b" * 10 + b"a" * (PAGE - 10)
    assert body != b"b" * 10 + b"a" * (2 * PAGE - 10)
    (tmp_path / "g").write_bytes(b"c" * (2 * PAGE))
    os.replace(tmp_path / "g", tmp_path / "f")
    assert bytes(body) == b"b" * 10 + b"a" * (PAGE - 10)


def test_evicted_body_closes_its_fd_once_unreferenced(tmp_path):
    (tmp_path / "a").write_bytes(b"a" * (3 * PAGE))
    (tmp_path / "b").write_bytes(b"b" * (3 * PAGE))
    fc = FileCache.for_directory(str(tmp_path), capacity=4 * PAGE)
    held = fc.get_file("/a").payload[PAGE:]    # a range, like a queued tail
    fd = held.fileno()
    owner = weakref.ref(fc.lookup("/a").payload)
    fc.get_file("/b")                       # evicts /a
    assert fc.stats.evictions == 1 and not fc.contains("/a")
    assert owner() is not None and held == b"a" * (2 * PAGE)
    os.fstat(fd)                            # still open under the range
    del held                                # the last reference
    assert owner() is None


def test_the_cache_holds_at_most_its_fd_budget(tmp_path, monkeypatch):
    monkeypatch.setattr(file_cache.resource, "getrlimit",
                        lambda which: (8, 1024))
    for name in "abcdef":
        (tmp_path / name).write_bytes(name.encode() * PAGE)
    (tmp_path / "small").write_bytes(b"s")
    fc = FileCache.for_directory(str(tmp_path), capacity=100 * PAGE)
    assert fc.cache.max_fds == 8 // file_cache.FD_SHARE == 4
    fc.get_file("/small")
    for name in "abcdef":
        assert fc.get_file("/" + name).payload == name.encode() * PAGE
        assert fc.cache.fds <= 4
    # Only file bodies were evicted, oldest first; the small body, which
    # holds no fd, stays although it is the least recently used.
    assert fc.stats.evictions == 2 and fc.cache.fds == 4
    assert [fc.contains(p) for p in ("/small", "/a", "/b", "/c")] == [
        True, False, False, True]


def test_lookup_never_loads_and_counts_one_hit_or_nothing():
    loader, calls = counting_loader({"/a": b"hello"})
    fc = FileCache(capacity=100, loader=loader)
    assert fc.lookup("/a") is None
    assert calls["n"] == 0 and fc.stats.lookups == 0
    fc.get_file("/a")                       # the miss
    got = fc.lookup("/a")
    assert got.from_cache and got.payload == b"hello"
    assert (fc.stats.hits, fc.stats.misses) == (1, 1)


def test_a_load_racing_an_eviction_keeps_the_byte_budget_exact():
    """One thread is parked inside ``_make_room`` (choosing victims for
    its insert) while a second thread loads the same path: the second
    must not interleave its own insert, or ``used`` counts one body
    twice for a single entry."""
    parked, release = threading.Event(), threading.Event()
    first = []

    def victims(entries, needed):
        if not first:
            first.append(True)
            parked.set()
            release.wait(10)
        return [e.key for e in entries]

    files = {"/filler": b"f" * 70, "/hot": b"h" * 40}
    loader, _ = counting_loader(files)
    fc = FileCache(capacity=100, policy=CustomPolicy(victims), loader=loader)
    fc.get_file("/filler")
    threads = [threading.Thread(target=fc.get_file, args=("/hot",))
               for _ in range(2)]
    threads[0].start()
    assert parked.wait(10)
    threads[1].start()
    threads[1].join(0.5)                    # finishes only if unguarded
    release.set()
    for thread in threads:
        thread.join(10)
        assert not thread.is_alive()
    cache = fc.cache
    assert cache.used == sum(e.size for e in cache.entries())
    assert [e.key for e in cache.entries()] == ["/hot"]


def test_threads_sharing_a_small_cache_count_every_request_once():
    """More threads than cores hammer a cache that holds two of its
    five files, every other request through ``lookup`` first (a miss
    there falls back to ``get_file``, as ``AsyncFileIO`` does): each
    request counts exactly one hit or miss, and the byte budget matches
    the entries."""
    files = {f"/f{i}": bytes([i]) * (20 + i) for i in range(5)}
    loader, _ = counting_loader(files)
    fc = FileCache(capacity=50, policy="LRU", loader=loader)
    threads_n, rounds, wrong = 6, 10000, []

    def worker(seed):
        for n in range(rounds):
            path = f"/f{(seed + n * 3) % 5}"
            got = fc.lookup(path) if n % 2 else None
            if got is None:
                got = fc.get_file(path)
            if got.payload != files[path]:
                wrong.append(path)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(threads_n)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert not wrong
    assert fc.stats.hits + fc.stats.misses == threads_n * rounds
    cache = fc.cache
    assert cache.used == sum(e.size for e in cache.entries()) <= 50
