"""Tests for the read-through FileCache front-end and its docroot
reader."""

import mmap
import sys
import threading
import weakref

import pytest

from repro.cache import CustomPolicy, FileCache, FileNotCacheable, file_cache
from repro.cache.file_cache import read_body


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


# -- page-backed bodies -------------------------------------------------------

PAGE = mmap.PAGESIZE


def test_read_body_rejects_a_sibling_sharing_the_root_prefix(tmp_path):
    (tmp_path / "www").mkdir()
    (tmp_path / "www-secrets").mkdir()
    (tmp_path / "www-secrets" / "key").write_bytes(b"secret")
    with pytest.raises(FileNotFoundError):
        read_body(str(tmp_path / "www"), "/../www-secrets/key")
    with pytest.raises(FileNotFoundError):
        read_body(None, "/key")


def test_bodies_below_one_page_are_bytes_and_above_are_mappings(tmp_path):
    small = bytes(range(256)) * ((PAGE - 1) // 256) + b"x" * ((PAGE - 1) % 256)
    (tmp_path / "small").write_bytes(small)
    (tmp_path / "page").write_bytes(b"p" * PAGE)
    (tmp_path / "big").write_bytes(bytes(range(256)) * 40 + b"tail")
    body = read_body(str(tmp_path), "/small")
    assert type(body) is bytes and body == small
    for name in ("page", "big"):
        body = read_body(str(tmp_path), "/" + name)
        assert isinstance(body, memoryview) and body.readonly
        assert isinstance(body.obj, mmap.mmap)
        assert body == (tmp_path / name).read_bytes()
        with pytest.raises(TypeError):
            body[0] = 0


def test_mapping_failure_falls_back_to_bytes(tmp_path, monkeypatch):
    (tmp_path / "big").write_bytes(b"b" * (2 * PAGE))

    def no_mapping(*args, **kwargs):
        raise OSError(12, "Cannot allocate memory")

    monkeypatch.setattr(file_cache.mmap, "mmap", no_mapping)
    body = read_body(str(tmp_path), "/big")
    assert type(body) is bytes and body == b"b" * (2 * PAGE)


def test_evicted_body_returns_its_mapping_once_unreferenced(tmp_path):
    (tmp_path / "a").write_bytes(b"a" * (3 * PAGE))
    (tmp_path / "b").write_bytes(b"b" * (3 * PAGE))
    fc = FileCache.for_directory(str(tmp_path), capacity=4 * PAGE)
    held = fc.get_file("/a").payload
    mapping = weakref.ref(held.obj)
    fc.get_file("/b")                       # evicts /a
    assert fc.stats.evictions == 1 and not fc.contains("/a")
    assert mapping() is not None and held == b"a" * (3 * PAGE)
    del held                                # the last reference
    assert mapping() is None


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
