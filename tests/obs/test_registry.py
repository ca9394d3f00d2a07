"""Tests for the metrics registry: counters, gauges, histograms and
labeled families."""

import threading

import pytest

from repro.obs import (
    DEFAULT_BUCKETS,
    NULL_METRIC,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)


# -- counter ------------------------------------------------------------------


def test_counter_increments():
    c = Counter()
    c.inc()
    c.inc(5)
    assert c.value == 6


def test_counter_rejects_negative():
    with pytest.raises(ValueError):
        Counter().inc(-1)


def test_counter_thread_safety():
    c = Counter()

    def worker():
        for _ in range(10_000):
            c.inc()

    threads = [threading.Thread(target=worker) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert c.value == 80_000


# -- gauge ---------------------------------------------------------------------


def test_gauge_set_inc_dec():
    g = Gauge()
    g.set(10)
    g.inc(2.5)
    g.dec()
    assert g.value == pytest.approx(11.5)


# -- histogram ------------------------------------------------------------------


def test_histogram_counts_and_sum():
    h = Histogram()
    for v in (0.001, 0.01, 0.1):
        h.observe(v)
    assert h.count == 3
    assert h.sum == pytest.approx(0.111)


def test_histogram_snapshot_buckets_cumulative():
    h = Histogram(buckets=(1.0, 2.0))
    for v in (0.5, 1.5, 5.0):
        h.observe(v)
    snap = h.snapshot()
    assert snap["count"] == 3
    buckets = dict(snap["buckets"])
    assert buckets[1.0] == 1
    assert buckets[2.0] == 2
    assert buckets[float("inf")] == 3


def test_histogram_quantiles_bounded_by_observations():
    h = Histogram()
    for v in (0.002, 0.003, 0.004):
        h.observe(v)
    for q in (0.5, 0.9, 0.99):
        assert 0.002 <= h.quantile(q) <= 0.004


def test_histogram_quantile_empty():
    assert Histogram().quantile(0.5) is None


def test_histogram_overflow_bucket():
    h = Histogram(buckets=(0.1,))
    h.observe(100.0)
    assert h.quantile(0.99) == pytest.approx(100.0)


# -- registry ---------------------------------------------------------------------


def test_registry_creates_and_returns_same_metric():
    reg = MetricsRegistry()
    a = reg.counter("requests_total", "Requests")
    b = reg.counter("requests_total", "Requests")
    assert a is b


def test_registry_rejects_kind_mismatch():
    reg = MetricsRegistry()
    reg.counter("x", "x")
    with pytest.raises(ValueError):
        reg.gauge("x", "x")


def test_registry_labeled_family():
    reg = MetricsRegistry()
    fam = reg.histogram("stage_seconds", "Stage latency", labels=("stage",))
    fam.labels(stage="decode").observe(0.01)
    fam.labels(stage="decode").observe(0.02)
    fam.labels(stage="handle").observe(0.5)
    children = dict((tuple(labels.items()), h) for labels, h in fam.children())
    assert children[(("stage", "decode"),)].count == 2
    assert children[(("stage", "handle"),)].count == 1


def test_registry_labels_validated():
    reg = MetricsRegistry()
    fam = reg.counter("by_code", "By code", labels=("code",))
    with pytest.raises(ValueError):
        fam.labels(status="200")


def test_registry_value_helper():
    reg = MetricsRegistry()
    reg.counter("hits_total", "Hits").inc(7)
    assert reg.value("hits_total") == 7


def test_registry_collect_registration_order():
    reg = MetricsRegistry()
    reg.counter("zzz", "z")
    reg.gauge("aaa", "a")
    assert [f.name for f in reg.collect()] == ["zzz", "aaa"]


def test_default_buckets_strictly_increasing():
    assert list(DEFAULT_BUCKETS) == sorted(set(DEFAULT_BUCKETS))


# -- null objects ----------------------------------------------------------------


def test_null_registry_and_metric_inert():
    NULL_METRIC.inc(100)
    assert NULL_METRIC.value == 0
    NULL_METRIC.observe(1.0)
    NULL_METRIC.set(5)
    assert NULL_METRIC.labels(stage="x") is NULL_METRIC
