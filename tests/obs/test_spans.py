"""Tests for request-lifecycle spans (fake clock throughout)."""

import pytest

from repro.obs import (
    NULL_SPAN,
    NULL_SPANS,
    MetricsRegistry,
    SpanRecorder,
)


class FakeClock:
    """Deterministic monotonic clock the tests advance by hand."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


@pytest.fixture
def recorder():
    return SpanRecorder(MetricsRegistry(), clock=FakeClock())


def stage_hist(recorder, stage):
    family = recorder.registry.get("server_request_stage_seconds")
    for labels, hist in family.children():
        if labels["stage"] == stage:
            return hist
    raise AssertionError(f"no samples for stage {stage!r}")


# -- basic lifecycle ----------------------------------------------------------


def test_span_records_total_duration(recorder):
    clock = recorder.clock
    span = recorder.start("request", detail="peer:1")
    clock.advance(0.25)
    span.finish()
    assert span.finished
    assert span.duration == pytest.approx(0.25)
    total = recorder.registry.get("server_request_seconds").labels()
    assert total.count == 1
    assert total.sum == pytest.approx(0.25)


def test_stage_context_manager_times_stage(recorder):
    clock = recorder.clock
    span = recorder.start()
    with span.stage("decode"):
        clock.advance(0.010)
    with span.stage("handle"):
        clock.advance(0.100)
    span.finish()
    assert [path for path, _, _ in span.stages] == ["decode", "handle"]
    assert stage_hist(recorder, "decode").sum == pytest.approx(0.010)
    assert stage_hist(recorder, "handle").sum == pytest.approx(0.100)


def test_nested_stages_get_dotted_paths(recorder):
    clock = recorder.clock
    span = recorder.start()
    span.stage_begin("handle")
    clock.advance(0.01)
    span.stage_begin("cache")
    clock.advance(0.02)
    span.stage_end()                       # ends "cache"
    clock.advance(0.03)
    span.stage_end()                       # ends "handle"
    span.finish()
    paths = {path: end - start for path, start, end in span.stages}
    assert paths["handle.cache"] == pytest.approx(0.02)
    assert paths["handle"] == pytest.approx(0.06)


def test_stage_end_without_open_stage_is_noop(recorder):
    span = recorder.start()
    span.stage_end()
    span.finish()
    assert span.stages == []


def test_finish_closes_open_stages(recorder):
    clock = recorder.clock
    span = recorder.start()
    span.stage_begin("handle")
    clock.advance(0.5)
    span.finish()                          # handle still open
    assert [path for path, _, _ in span.stages] == ["handle"]
    assert stage_hist(recorder, "handle").sum == pytest.approx(0.5)


def test_finish_is_idempotent(recorder):
    clock = recorder.clock
    span = recorder.start()
    clock.advance(0.1)
    span.finish()
    clock.advance(99.0)
    span.finish()                          # second call must not re-record
    total = recorder.registry.get("server_request_seconds").labels()
    assert total.count == 1
    assert span.duration == pytest.approx(0.1)


# -- out-of-span observations -------------------------------------------------


def test_observe_records_socket_stages(recorder):
    recorder.observe("read", 0.002)
    recorder.observe("read", 0.004)
    recorder.observe("send", 0.001)
    assert stage_hist(recorder, "read").count == 2
    assert stage_hist(recorder, "send").count == 1


def test_stage_quantiles_shape(recorder):
    for _ in range(10):
        recorder.observe("read", 0.005)
    q = recorder.stage_quantiles()
    assert set(q) == {"read"}
    assert set(q["read"]) == {0.50, 0.90, 0.99}
    assert q["read"][0.50] == pytest.approx(0.005)


# -- tracer mirroring ---------------------------------------------------------


class FakeTracer:
    """Stands in for the O10=Debug event ring."""

    def __init__(self):
        self.records = []

    def record(self, category, detail):
        self.records.append((category, detail))


def test_span_mirrored_into_tracer():
    tracer = FakeTracer()
    clock = FakeClock()
    recorder = SpanRecorder(MetricsRegistry(), tracer=tracer, clock=clock)
    span = recorder.start("request", detail="127.0.0.1:999")
    with span.stage("decode"):
        clock.advance(0.01)
    clock.advance(0.02)
    span.finish()
    assert len(tracer.records) == 1
    category, detail = tracer.records[0]
    assert category == "span"
    assert "127.0.0.1:999" in detail
    assert "total=0.030000" in detail
    assert "decode=0.010000" in detail


def test_no_tracer_no_mirroring(recorder):
    span = recorder.start()
    span.finish()                          # tracer is None: must not raise


# -- null objects -------------------------------------------------------------


def test_null_recorder_hands_out_null_span():
    span = NULL_SPANS.start("request", detail="x")
    assert span is NULL_SPAN
    with span.stage("decode"):
        pass
    span.stage_begin("handle")
    span.stage_end()
    span.finish()
    assert span.finished
    assert span.duration is None
    assert span.stages == []
    NULL_SPANS.observe("read", 1.0)
    assert NULL_SPANS.stage_quantiles() == {}
    assert not NULL_SPANS.enabled
