"""Unified observability layer (option O11 and friends).

Four pieces, composable and individually testable:

* :mod:`repro.obs.registry` — thread-safe metrics registry (counters,
  gauges, bucketed histograms with p50/p90/p99 estimation, labeled
  families) with per-metric locking and null objects for the O11=No
  branch-free path;
* :mod:`repro.obs.spans` — request-lifecycle spans bracketing the
  decode/handle/encode steps of the five-step cycle (Fig 1), recorded
  into per-stage latency histograms (and, in an O10=Debug build,
  mirrored into the debug event ring), plus the per-connection
  counters (bytes read/sent, requests, errors, closes);
* :mod:`repro.obs.sampler` — periodic gauge sampling of pull-style state
  (queue depth, pool size, open connections, overload trip state, cache
  hit rate);
* :mod:`repro.obs.exposition` — Prometheus text format (with trace
  exemplars) and the Apache ``mod_status``-style ``/server-status``
  report (HTML + ``?auto`` + ``?trace``);
* :mod:`repro.obs.tracing` — end-to-end trace ids allocated at accept,
  span exporters (in-memory ring, JSONL file) and the trace report;
* :mod:`repro.obs.flight` — the always-on flight recorder: a bounded
  ring of binary-packed lifecycle events, dumped on worker death,
  quarantine or ``SIGUSR2``.

This package deliberately does not import :mod:`repro.runtime` — the
runtime imports *it* (the Communicator records into the flight
recorder and a span recorder),
and the generated frameworks' ``Observability`` component wires the
rest: generated code bumps registry counters and records into flight
recorders directly, with no façade in between.
"""

from repro import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, globals(), {
    "exposition": (
        "merge_status_fields", "render_prometheus", "render_status_auto",
        "render_status_html", "status_fields",
    ),
    "flight": (
        "FlightEvent", "FlightRecorder", "dump_all", "install_signal_dump",
        "parse_dump", "reconstruct_path",
    ),
    "registry": (
        "DEFAULT_BUCKETS", "NULL_METRIC", "Counter", "Gauge", "Histogram",
        "MetricFamily", "MetricsRegistry", "NullMetric",
    ),
    "sampler": ("PeriodicSampler",),
    "spans": (
        "NULL_SPAN", "NULL_SPANS", "NullSpan", "NullSpanRecorder", "Span",
        "SpanRecorder",
    ),
    "tracing": (
        "NULL_EXPORTER", "JsonlExporter", "NullExporter", "RingExporter",
        "format_trace_id", "next_trace_id", "read_jsonl",
        "render_trace_report",
    ),
})
