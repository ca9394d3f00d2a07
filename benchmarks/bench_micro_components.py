"""Micro-benchmarks of the core data structures.

Not a paper figure — performance tracking for the building blocks every
experiment leans on: cache lookups, quota-queue operations, HTTP
parsing, codegen, the DES kernel's event rate, and the observability
hot path (O11 registry counters, span recording).
"""

import threading

from repro.cache import Cache, make_policy
from repro.co2p3s.nserver import COPS_HTTP_OPTIONS, NSERVER
from repro.http import parse_request, split_request
from repro.obs import NULL_METRIC, MetricsRegistry, SpanRecorder
from repro.runtime import QuotaPriorityQueue
from repro.sim import Simulator
from repro.workload import SpecWebFileSet


def test_cache_get_put_rate(benchmark):
    fileset = SpecWebFileSet(50, seed=5)
    accesses = [fileset.sample() for _ in range(5000)]
    cache = Cache(capacity=8 * 1024 * 1024, policy=make_policy("LRU"))

    def run():
        for path, size in accesses:
            if cache.get(path) is None:
                cache.put(path, size)

    benchmark(run)
    assert cache.stats.lookups > 0


def test_quota_queue_throughput(benchmark):
    queue = QuotaPriorityQueue({0: 1, 1: 4})

    def run():
        for i in range(2000):
            queue.push(i, priority=i & 1)
        for _ in range(2000):
            queue.try_pop()

    benchmark(run)
    assert len(queue) == 0


def test_http_parse_rate(benchmark):
    wire = (b"GET /dir/page.html?q=1 HTTP/1.1\r\n"
            b"Host: example.test\r\n"
            b"Accept: text/html\r\n"
            b"User-Agent: bench\r\n\r\n")

    def run():
        for _ in range(1000):
            framed, _ = split_request(wire)
            parse_request(framed)

    benchmark(run)


def test_nserver_codegen_rate(benchmark):
    opts = NSERVER.configure(COPS_HTTP_OPTIONS)
    report = benchmark(lambda: NSERVER.render(opts, package="bench"))
    assert report.files


def test_des_kernel_event_rate(benchmark):
    def run():
        sim = Simulator()

        def ping_pong(n):
            for _ in range(n):
                yield sim.timeout(0.001)

        for _ in range(20):
            sim.process(ping_pong(500))
        sim.run()
        return sim.events_processed

    events = benchmark(run)
    assert events >= 10_000


# -- observability hot path ---------------------------------------------------
#
# The read/send byte-accounting counters are the hottest instrumentation
# sites in the server.  Three variants: the null registry's inert
# counters (O11=No floor), single-lock counters (the pre-registry
# design, kept here as the "before" of the lock-contention fix), and
# registry counters whose per-metric locks let concurrent updates of
# different counters proceed without contending.

#: the counters the Communicator bumps per request
_HOT_COUNTERS = ("server_bytes_read_total", "server_bytes_sent_total",
                 "server_requests_total")


class _SingleLockCounter:
    """The old design: every counter update serialises on one shared
    lock."""

    def __init__(self, lock):
        self._lock = lock
        self.value = 0

    def inc(self, n=1):
        with self._lock:
            self.value += n


def _hammer(counters, threads=4, ops=5_000):
    """The communicator hot path, concurrently: read, send, account."""
    bytes_read, bytes_sent, requests = counters
    barrier = threading.Barrier(threads)

    def worker():
        barrier.wait()
        for _ in range(ops):
            bytes_read.inc(4096)
            bytes_sent.inc(8192)
            requests.inc()

    pool = [threading.Thread(target=worker) for _ in range(threads)]
    for t in pool:
        t.start()
    for t in pool:
        t.join()


def test_profiler_null_baseline(benchmark):
    benchmark(lambda: _hammer([NULL_METRIC for _name in _HOT_COUNTERS]))
    assert NULL_METRIC.value == 0


def test_profiler_single_lock_before(benchmark):
    def run():
        lock = threading.Lock()
        counters = [_SingleLockCounter(lock) for _ in _HOT_COUNTERS]
        _hammer(counters)
        return counters

    counters = benchmark(run)
    assert counters[2].value == 20_000


def test_profiler_registry_after(benchmark):
    def run():
        registry = MetricsRegistry()
        _hammer([registry.counter(name) for name in _HOT_COUNTERS])
        return registry

    registry = benchmark(run)
    assert registry.value("server_requests_total") == 20_000


def test_span_recording_rate(benchmark):
    recorder = SpanRecorder(MetricsRegistry())

    def run():
        for _ in range(2_000):
            span = recorder.start("request")
            with span.stage("decode"):
                pass
            with span.stage("handle"):
                pass
            with span.stage("encode"):
                pass
            span.finish()

    benchmark(run)
    total = recorder.registry.get("server_request_seconds").labels()
    assert total.count >= 2_000
