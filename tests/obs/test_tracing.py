"""Trace ids, the span exporter, the trace report, and Prometheus
exemplars — the O11=Yes half of the tracing story (the flight recorder
tests cover the always-on half)."""

import threading

import pytest

from repro.obs import (
    MetricsRegistry,
    RingExporter,
    SpanRecorder,
    format_trace_id,
    next_trace_id,
    render_prometheus,
    render_trace_report,
)


# -- trace ids -------------------------------------------------------------

def test_trace_ids_are_monotonic_and_never_zero():
    a, b, c = next_trace_id(), next_trace_id(), next_trace_id()
    assert 0 < a < b < c


def test_trace_ids_unique_across_threads():
    got = []
    def take():
        got.extend(next_trace_id() for _ in range(200))
    threads = [threading.Thread(target=take) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(set(got)) == len(got)


def test_format_trace_id_is_sixteen_hex_digits():
    assert format_trace_id(0x2A) == "000000000000002a"
    assert len(format_trace_id(2 ** 64 - 1)) == 16


# -- exporters -------------------------------------------------------------

def span_record(trace_id, start, name="request"):
    return {"trace_id": trace_id, "parent_id": 0, "name": name,
            "detail": "peer", "start": start, "end": start + 0.5,
            "total": 0.5,
            "stages": [{"stage": "decode", "seconds": 0.1},
                       {"stage": "handle", "seconds": 0.4}]}


def test_ring_exporter_keeps_the_most_recent_records():
    exporter = RingExporter(capacity=2)
    for i in range(4):
        exporter.export(span_record(i, float(i)))
    assert [r["trace_id"] for r in exporter.records()] == [2, 3]
    exporter.records()[0]["trace_id"] = 99        # copies out...
    record = span_record(5, 5.0)
    exporter.export(record)
    record["trace_id"] = 99                       # ...and copies in
    assert [r["trace_id"] for r in exporter.records()] == [3, 5]
    exporter.clear()
    assert exporter.records() == []


def test_ring_exporter_capacity_below_one_is_rejected():
    with pytest.raises(ValueError):
        RingExporter(capacity=0)


# -- the trace report ------------------------------------------------------

def test_render_trace_report_orders_by_start_time():
    report = render_trace_report([span_record(2, 5.0), span_record(1, 1.0)])
    lines = report.splitlines()
    assert lines[0] == "Traces: 2"
    assert lines[1].startswith(f"trace={format_trace_id(1)} request peer")
    assert lines[2].startswith(f"trace={format_trace_id(2)} request peer")
    assert "total=0.500000" in lines[1]
    assert "decode=0.100000" in lines[1]
    assert "handle=0.400000" in lines[1]


# -- exemplars -------------------------------------------------------------

def test_traced_spans_leave_exemplars_in_the_exposition():
    registry = MetricsRegistry()
    clock = iter(i * 0.001 for i in range(100))
    spans = SpanRecorder(registry, clock=lambda: next(clock),
                         exporter=RingExporter())
    span = spans.start("request", "peer", trace_id=0x2A)
    with span.stage("decode"):
        pass
    span.finish()

    exemplars = spans.exemplars()
    value, trace_id = exemplars["server_request_seconds", ()]
    assert trace_id == 0x2A and value > 0
    assert ("server_request_stage_seconds",
            (("stage", "decode"),)) in exemplars

    text = render_prometheus(registry, exemplars=exemplars)
    tagged = [line for line in text.splitlines()
              if '# {trace_id="000000000000002a"}' in line]
    # one exemplar per histogram series, on the first containing bucket
    assert len(tagged) == 2
    assert all("_bucket" in line for line in tagged)


def test_untraced_spans_leave_no_exemplars():
    registry = MetricsRegistry()
    spans = SpanRecorder(registry, exporter=RingExporter())
    span = spans.start("request")
    with span.stage("decode"):
        pass
    span.finish()
    assert spans.exemplars() == {}
    assert "trace_id" not in render_prometheus(
        registry, exemplars=spans.exemplars())
