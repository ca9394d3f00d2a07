"""Tests for the event model, profiler, tracer and log."""

import io
import json
import os
import subprocess
import sys

import pytest

from repro.runtime import (
    AsynchronousCompletionToken,
    CompletionEvent,
    Event,
    EventKind,
    EventTracer,
    FileReadEvent,
    NULL_LOG,
    NULL_PROFILER,
    NULL_TRACER,
    Profiler,
    ReadableEvent,
    ServerLog,
    TimerEvent,
    UserEvent,
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


# -- profiler -------------------------------------------------------------------


def test_profiler_counters():
    p = Profiler()
    p.connection_accepted()
    p.connection_accepted()
    p.connection_closed()
    p.bytes_read(100)
    p.bytes_sent(250)
    p.request_handled()
    p.error()
    p.event_dispatched(3)
    snap = p.snapshot()
    assert snap.connections_accepted == 2
    assert snap.open_connections == 1
    assert snap.bytes_read == 100
    assert snap.bytes_sent == 250
    assert snap.requests_handled == 1
    assert snap.errors == 1
    assert snap.events_dispatched == 3
    assert snap.uptime >= 0.0


def test_profiler_cache_hit_rate():
    from repro.cache import Cache, LRUPolicy

    c = Cache(100, LRUPolicy())
    c.put("a", 10)
    c.get("a")
    c.get("b")
    p = Profiler()
    p.attach_cache(c.stats)
    assert p.snapshot().cache_hit_rate == pytest.approx(0.5)


def test_null_profiler_is_inert():
    NULL_PROFILER.connection_accepted()
    NULL_PROFILER.bytes_read(1000)
    snap = NULL_PROFILER.snapshot()
    assert snap.connections_accepted == 0
    assert not NULL_PROFILER.enabled


def test_profiler_is_a_registry_facade():
    """The Profiler's counters live in its metrics registry, under the
    exposition names the status page and Prometheus renderer use."""
    p = Profiler()
    p.request_handled()
    p.bytes_sent(512)
    assert p.registry.value("server_requests_total") == 1
    assert p.registry.value("server_bytes_sent_total") == 512


def test_profiler_accepts_external_registry():
    from repro.obs import MetricsRegistry

    reg = MetricsRegistry()
    p = Profiler(registry=reg)
    p.connection_accepted()
    assert reg.value("server_connections_accepted_total") == 1


def test_null_profiler_registry_is_null():
    assert NULL_PROFILER.registry.collect() == []


# -- tracer ---------------------------------------------------------------------


def test_tracer_records():
    t = EventTracer(capacity=10)
    t.trace("read", "conn1 +10B")
    t.trace("send", "conn1 -20B")
    assert len(t.records()) == 2
    assert t.records("read")[0].detail == "conn1 +10B"


def test_tracer_ring_bounded():
    t = EventTracer(capacity=5)
    for i in range(20):
        t.trace("x", str(i))
    recs = t.records()
    assert len(recs) == 5
    assert recs[0].detail == "15"


def test_tracer_streams_to_sink():
    sink = io.StringIO()
    t = EventTracer(sink=sink)
    t.trace("close", "conn9")
    assert "[close] conn9" in sink.getvalue()


def test_tracer_dump():
    t = EventTracer()
    t.trace("a", "1")
    t.trace("b", "2")
    out = io.StringIO()
    assert t.dump(out) == 2
    assert out.getvalue().count("\n") == 2


def test_tracer_capacity_validation():
    with pytest.raises(ValueError):
        EventTracer(capacity=0)


def test_null_tracer_is_inert():
    NULL_TRACER.trace("x", "y")
    assert NULL_TRACER.records() == []
    assert not NULL_TRACER.enabled


class FlushCountingSink(io.StringIO):
    def __init__(self):
        super().__init__()
        self.flushes = 0

    def flush(self):
        self.flushes += 1
        super().flush()


def test_tracer_flush_flushes_sink():
    sink = FlushCountingSink()
    t = EventTracer(sink=sink)
    t.trace("x", "1")
    t.flush()
    assert sink.flushes >= 1


def test_tracer_close_flushes_and_detaches_sink():
    sink = FlushCountingSink()
    t = EventTracer(sink=sink)
    t.trace("x", "1")
    t.close()
    assert sink.flushes >= 1
    assert not sink.closed               # caller owns the sink
    streamed = sink.getvalue()
    t.trace("x", "2")                    # after close: ring only
    assert sink.getvalue() == streamed
    assert [r.detail for r in t.records()] == ["1", "2"]
    t.close()                            # idempotent
    t.flush()                            # no sink: no-op


def test_tracer_dump_flushes_destination():
    t = EventTracer()
    t.trace("a", "1")
    out = FlushCountingSink()
    t.dump(out)
    assert out.flushes >= 1


def test_null_tracer_flush_close_noop():
    NULL_TRACER.flush()
    NULL_TRACER.close()


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
    the Communicator loads none of the real profiler, tracer, span
    recorder or metrics registry they stand in for."""
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
    for name in ("repro.runtime.profiling", "repro.runtime.tracing",
                 "repro.obs.spans", "repro.obs.registry"):
        assert name not in modules, name
