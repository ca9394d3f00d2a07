"""Exposition tests: Prometheus golden output and the mod_status page."""

import pytest

from repro.obs import (
    MetricsRegistry,
    merge_status_fields,
    render_prometheus,
    render_status_auto,
    render_status_html,
    status_fields,
)


def make_registry():
    reg = MetricsRegistry()
    reg.counter("server_requests_total", "Requests handled").inc(10)
    reg.counter("server_connections_accepted_total",
                "Connections accepted").inc(4)
    reg.gauge("server_open_connections", "Open connections").set(2)
    reg.counter("server_bytes_sent_total", "Bytes sent").inc(2048)
    hist = reg.histogram("rt_seconds", "Latency", buckets=(0.1, 1.0))
    hist.observe(0.05)
    hist.observe(0.5)
    return reg


# -- Prometheus text format ---------------------------------------------------


def test_prometheus_golden():
    assert render_prometheus(make_registry()) == (
        "# HELP server_requests_total Requests handled\n"
        "# TYPE server_requests_total counter\n"
        "server_requests_total 10\n"
        "# HELP server_connections_accepted_total Connections accepted\n"
        "# TYPE server_connections_accepted_total counter\n"
        "server_connections_accepted_total 4\n"
        "# HELP server_open_connections Open connections\n"
        "# TYPE server_open_connections gauge\n"
        "server_open_connections 2\n"
        "# HELP server_bytes_sent_total Bytes sent\n"
        "# TYPE server_bytes_sent_total counter\n"
        "server_bytes_sent_total 2048\n"
        "# HELP rt_seconds Latency\n"
        "# TYPE rt_seconds histogram\n"
        'rt_seconds_bucket{le="0.1"} 1\n'
        'rt_seconds_bucket{le="1"} 2\n'
        'rt_seconds_bucket{le="+Inf"} 2\n'
        "rt_seconds_sum 0.55\n"
        "rt_seconds_count 2\n"
    )


def test_prometheus_labeled_histogram():
    reg = MetricsRegistry()
    fam = reg.histogram("stage_seconds", "Stage latency",
                        labels=("stage",), buckets=(0.1,))
    fam.labels(stage="decode").observe(0.05)
    text = render_prometheus(reg)
    assert 'stage_seconds_bucket{stage="decode",le="0.1"} 1' in text
    assert 'stage_seconds_bucket{stage="decode",le="+Inf"} 1' in text
    assert 'stage_seconds_count{stage="decode"} 1' in text


def test_prometheus_empty_registry():
    assert render_prometheus(MetricsRegistry()) == "\n"


# -- mod_status fields --------------------------------------------------------


def test_status_fields_apache_block_first():
    fields = status_fields(make_registry(), uptime=10.0)
    keys = [k for k, _ in fields]
    assert keys[:5] == ["Uptime", "Total Accesses", "Total Connections",
                        "BusyWorkers", "Total kBytes"]
    by_key = dict(fields)
    assert by_key["Uptime"] == "10.000"
    assert by_key["Total Accesses"] == "10"
    assert by_key["Total Connections"] == "4"
    assert by_key["BusyWorkers"] == "2"
    assert by_key["Total kBytes"] == "2"          # 2048 bytes
    assert by_key["ReqPerSec"] == "1.000"
    assert by_key["BytesPerSec"] == "204.8"


def test_status_fields_raw_metrics_and_quantiles():
    by_key = dict(status_fields(make_registry(), uptime=10.0))
    assert by_key["server_requests_total"] == "10"
    assert by_key["rt_seconds-count"] == "2"
    for q in ("p50", "p90", "p99"):
        assert 0.05 <= float(by_key[f"rt_seconds-{q}"]) <= 0.5


def test_status_fields_without_uptime():
    keys = [k for k, _ in status_fields(make_registry())]
    assert "Uptime" not in keys
    assert "ReqPerSec" not in keys
    assert "Total Accesses" in keys


def test_render_status_auto_format():
    text = render_status_auto([("Uptime", "10.0"), ("Total Accesses", "10")])
    assert text == "Uptime: 10.0\nTotal Accesses: 10\n"


def test_render_status_html():
    html = render_status_html([("Total Accesses", "10"), ("a<b", "x&y")])
    assert html.startswith("<!DOCTYPE html>")
    assert "<tr><td>Total Accesses</td><td>10</td></tr>" in html
    assert "a&lt;b" in html and "x&amp;y" in html      # escaped
    assert "N-Server Status" in html


# -- one report over several sections (worker processes) -------------------

#: two worker processes' status_fields output, as it arrives over the
#: supervisor's stats channel (worker 7 reports a per-pool gauge)
WORKER_SECTIONS = [
    (7, [("Total Accesses", "10"), ("Total kBytes", "2"),
         ("server_requests_total", "10"),
         ("server_bytes_sent_total", "2048"),
         ("server_cache_hit_rate", "0.5"),
         ('server_errors_total{kind="io"}', "1"),
         ('server_open_connections{pool="0"}', "2"),
         ("server_queue_depth", "3"),
         ("rt_seconds-count", "2"), ("rt_seconds-p50", "0.050000")]),
    (8, [("Total Accesses", "30"),
         ("server_requests_total", "30"),
         ("server_bytes_sent_total", "4096"),
         ("server_cache_hit_rate", "1"),
         ('server_errors_total{kind="io"}', "4"),
         ("server_queue_depth", "NaN"),
         ("server_state", "draining"),
         ("rt_seconds-count", "1"), ("rt_seconds-p50", "0.500000")]),
]


def test_merge_status_fields_golden():
    assert merge_status_fields(WORKER_SECTIONS) == [
        # Apache fields recomputed from the totals, not summed
        ("Total Accesses", "40"),
        ("CacheHitRate", "0.75"),
        ("Total kBytes", "6"),
        # totals: summed, the rate averaged, NaN and text skipped,
        # histogram lines left out
        ("server_requests_total", "40"),
        ("server_bytes_sent_total", "6144"),
        ("server_cache_hit_rate", "0.75"),
        ('server_errors_total{kind="io"}', "5"),
        ('server_open_connections{pool="0"}', "2"),
        ("server_queue_depth", "3"),
        ("Workers", "2"),
        # each section verbatim, re-labelled, derived fields dropped
        ('server_requests_total{worker="7"}', "10"),
        ('server_bytes_sent_total{worker="7"}', "2048"),
        ('server_cache_hit_rate{worker="7"}', "0.5"),
        ('server_errors_total{kind="io",worker="7"}', "1"),
        ('server_open_connections{pool="0",worker="7"}', "2"),
        ('server_queue_depth{worker="7"}', "3"),
        ('rt_seconds{worker="7"}-count', "2"),
        ('rt_seconds{worker="7"}-p50', "0.050000"),
        ('server_requests_total{worker="8"}', "30"),
        ('server_bytes_sent_total{worker="8"}', "4096"),
        ('server_cache_hit_rate{worker="8"}', "1"),
        ('server_errors_total{kind="io",worker="8"}', "4"),
        ('server_queue_depth{worker="8"}', "NaN"),
        ('server_state{worker="8"}', "draining"),
        ('rt_seconds{worker="8"}-count', "1"),
        ('rt_seconds{worker="8"}-p50', "0.500000"),
    ]


@pytest.mark.parametrize("uptime, head", [
    (None, ["Total Accesses"]),
    (0, ["Uptime", "Total Accesses"]),
    (4.0, ["Uptime", "Total Accesses", "CacheHitRate", "Total kBytes",
           "ReqPerSec", "BytesPerSec"]),
])
def test_merge_status_fields_uptime(uptime, head):
    fields = merge_status_fields(WORKER_SECTIONS, uptime=uptime)
    keys = [key for key, _value in fields]
    assert keys[:len(head)] == head
    values = dict(fields)
    if uptime:
        assert values["ReqPerSec"] == "10.000"
        assert values["BytesPerSec"] == "1536.0"
    else:
        assert "ReqPerSec" not in values and "BytesPerSec" not in values


def test_merge_status_fields_of_worker_registries():
    fields = merge_status_fields(
        [(pid, status_fields(make_registry())) for pid in (101, 102)])
    values = dict(fields)
    assert values["Workers"] == "2"
    assert values["Total Accesses"] == "20"
    assert values['rt_seconds{worker="102"}-count'] == "2"
    assert "rt_seconds-count" not in values
