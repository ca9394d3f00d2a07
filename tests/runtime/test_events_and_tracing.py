"""Tests for the event model, the O11 profiling counters, the O10 debug
event ring and the O12 log."""

import io
import json
import os
import subprocess
import sys

import pytest

from repro.obs import NULL_SPANS, parse_dump
from repro.runtime import (
    AsynchronousCompletionToken,
    CompletionEvent,
    Event,
    EventKind,
    FileReadEvent,
    NULL_LOG,
    ReadableEvent,
    ServerLog,
    TimerEvent,
    UserEvent,
    debug_ring,
)


# -- events -------------------------------------------------------------------


def test_event_kinds():
    assert ReadableEvent().kind == EventKind.READABLE
    assert TimerEvent().kind == EventKind.TIMER
    assert UserEvent().kind == EventKind.USER


def test_event_ids_unique_and_increasing():
    a, b = Event(), Event()
    assert b.event_id > a.event_id


def test_event_priority_default_zero():
    assert Event().priority == 0
    assert Event(priority=7).priority == 7


def test_completion_event_ok_and_error():
    act = AsynchronousCompletionToken()
    good = CompletionEvent(token=act, payload=b"data")
    bad = CompletionEvent(token=act, error=OSError("disk"))
    assert good.ok and not bad.ok


def test_completion_event_invokes_token_callback():
    got = []
    act = AsynchronousCompletionToken(context="ctx",
                                      on_complete=lambda ev: got.append(ev.payload))
    ev = FileReadEvent(token=act, payload=b"bytes")
    ev.complete()
    assert got == [b"bytes"]
    assert ev.token.context == "ctx"


def test_completion_event_without_callback_is_noop():
    CompletionEvent(token=AsynchronousCompletionToken()).complete()


# -- profiler (O11: the span recorder's counters) -----------------------------


def test_profiler_counters():
    """The paper's per-connection statistics are registry counters of
    the span recorder, under the exposition names the status page and
    the Prometheus renderer use."""
    from repro.obs import MetricsRegistry, SpanRecorder

    registry = MetricsRegistry()
    spans = SpanRecorder(registry)
    spans.bytes_read(100, 0.001)
    spans.bytes_sent(250, 0.002)
    spans.request_handled()
    spans.error()
    spans.connection_closed()
    assert {name: registry.value(name) for name in (
        "server_bytes_read_total", "server_bytes_sent_total",
        "server_requests_total", "server_errors_total",
        "server_connections_closed_total")} == {
        "server_bytes_read_total": 100, "server_bytes_sent_total": 250,
        "server_requests_total": 1, "server_errors_total": 1,
        "server_connections_closed_total": 1}
    # one call per socket step: the byte count and the stage timing
    stages = registry.get("server_request_stage_seconds")
    assert stages.labels(stage="read").count == 1
    assert stages.labels(stage="send").count == 1


def test_profiler_cache_hit_rate():
    """An O11 build's Cache publishes its hit rate as a sampled gauge."""
    import importlib
    from types import SimpleNamespace

    from harness import generated_framework
    from repro.obs import MetricsRegistry, PeriodicSampler

    fw = generated_framework({"O4": "Synchronous", "O6": "LRU", "O11": True})
    cache_module = importlib.import_module(fw.__name__ + ".cache")
    cache = cache_module.Cache(SimpleNamespace(
        configuration=fw.ServerConfiguration(),
        hooks=SimpleNamespace(cache_loader=lambda path: (10, b"x" * 10))))
    cache.get_file("a")                     # miss, loaded
    cache.get_file("a")                     # hit
    registry = MetricsRegistry()
    sampler = PeriodicSampler(registry)
    cache.enable_profiling(sampler)
    sampler.sample()
    assert registry.value("server_cache_hit_rate") == pytest.approx(0.5)


def test_null_profiler_is_inert():
    """O11=No: the Communicator's null recorder counts nothing."""
    NULL_SPANS.bytes_read(1000, 0.1)
    NULL_SPANS.bytes_sent(1000, 0.1)
    NULL_SPANS.request_handled()
    NULL_SPANS.error()
    NULL_SPANS.connection_closed()
    assert NULL_SPANS.stage_quantiles() == {}
    assert not NULL_SPANS.enabled


# -- tracer (O10=Debug: the debug event ring) ----------------------------------


def test_tracer_records():
    t = debug_ring()
    t.record("read", "conn1 +10B")
    t.record("send", "conn1 -20B")
    assert len(t.events()) == 2
    assert t.events("read")[0].detail == "conn1 +10B"
    assert t.name == "debug"


def test_tracer_ring_bounded():
    t = debug_ring()
    for i in range(t.capacity + 4):
        t.record("x", str(i))
    events = t.events()
    assert len(events) == t.capacity
    assert events[0].detail == "4"


def test_tracer_dump():
    t = debug_ring()
    t.record("a", "1")
    t.record("b", "2")
    out = io.StringIO()
    assert t.dump(out) == 2
    assert [(e.category, e.detail) for e in parse_dump(out.getvalue())] == [
        ("a", "1"), ("b", "2")]


class FlushCountingSink(io.StringIO):
    def __init__(self):
        super().__init__()
        self.flushes = 0

    def flush(self):
        self.flushes += 1
        super().flush()


def test_tracer_dump_flushes_destination():
    t = debug_ring()
    t.record("a", "1")
    out = FlushCountingSink()
    t.dump(out)
    assert out.flushes >= 1


# -- log --------------------------------------------------------------------------


def test_log_levels_filtered():
    log = ServerLog(level="warning")
    log.debug("hidden")
    log.info("hidden")
    log.warning("shown")
    log.error("shown too")
    assert len(log.lines) == 2


def test_log_to_sink():
    sink = io.StringIO()
    log = ServerLog(sink=sink, level="debug")
    log.info("hello")
    assert "INFO" in sink.getvalue() and "hello" in sink.getvalue()


def test_log_bad_level():
    with pytest.raises(ValueError):
        ServerLog(level="catastrophic")


def test_null_log_is_inert():
    NULL_LOG.error("nothing happens")
    assert NULL_LOG.lines == []


def test_communicator_import_leaves_observability_facades_unloaded():
    """The null objects are standalone: a fresh interpreter importing
    the Communicator loads none of the real log, span recorder or
    metrics registry they stand in for."""
    src = os.path.abspath(os.path.join(os.path.dirname(__file__),
                                       os.pardir, os.pardir, "src"))
    probe = ("import json, sys, repro.runtime.communicator; "
             "print(json.dumps(sorted(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", probe],
                         env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, timeout=60,
                         check=True)
    modules = set(json.loads(out.stdout))
    assert "repro.runtime.nulls" in modules
    for name in ("repro.runtime.tracing", "repro.obs.spans",
                 "repro.obs.registry"):
        assert name not in modules, name
