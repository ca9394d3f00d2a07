"""Exposition surfaces: Prometheus text format and a mod_status page.

Two renderers over a :class:`~repro.obs.registry.MetricsRegistry`:

* :func:`render_prometheus` — the Prometheus text exposition format
  (``# HELP`` / ``# TYPE`` / sample lines, histograms as cumulative
  ``_bucket{le=...}`` series).
* :func:`status_fields` + :func:`render_status_auto` /
  :func:`render_status_html` — an Apache ``mod_status``-style report,
  and :func:`merge_status_fields` for one report over the worker
  processes of a deployment.
  The paper benchmarks COPS-HTTP against Apache 1.3, so the fitting
  inspection surface is Apache's: ``GET /server-status`` renders HTML
  for humans and ``GET /server-status?auto`` the ``Key: value`` lines
  machines scrape.  Well-known server metrics map onto Apache's field
  names (``Total Accesses``, ``Total kBytes``, ``ReqPerSec``, ...);
  everything else is emitted under its registry name, histograms as
  p50/p90/p99 estimates.
"""

from __future__ import annotations

import math
from html import escape
from typing import List, Optional, Tuple

__all__ = [
    "render_prometheus",
    "status_fields",
    "merge_status_fields",
    "render_status_auto",
    "render_status_html",
]


def _fmt(value: float) -> str:
    """Prometheus-style number formatting."""
    if value is None:
        return "NaN"
    if isinstance(value, float):
        if math.isinf(value):
            return "+Inf" if value > 0 else "-Inf"
        if value == int(value) and abs(value) < 1e15:
            return str(int(value))
        return repr(value)
    return str(value)


def _labels_text(labels: dict, extra: Optional[Tuple[str, str]] = None) -> str:
    items = list(labels.items())
    if extra is not None:
        items.append(extra)
    if not items:
        return ""
    inner = ",".join(f'{k}="{v}"' for k, v in items)
    return "{" + inner + "}"


def render_prometheus(registry, exemplars=None) -> str:
    """The registry in Prometheus text exposition format.

    ``exemplars`` (optional) maps ``(family_name, sorted label items)``
    to ``(value, trace_id)`` — the shape
    :meth:`repro.obs.spans.SpanRecorder.exemplars` returns.  Each
    exemplar is attached OpenMetrics-style to the first histogram
    bucket that contains its value::

        server_request_seconds_bucket{le="0.01"} 4 # {trace_id="00..2a"} 0.0031

    so a scrape links latency buckets back to concrete traced requests.
    """
    lines: List[str] = []
    for family in registry.collect():
        if family.help:
            lines.append(f"# HELP {family.name} {family.help}")
        lines.append(f"# TYPE {family.name} {family.kind}")
        for labels, metric in family.children():
            if family.kind == "histogram":
                exemplar = None
                if exemplars:
                    exemplar = exemplars.get(
                        (family.name, tuple(sorted(labels.items()))))
                snap = metric.snapshot()
                for bound, cumulative in snap["buckets"]:
                    line = (f"{family.name}_bucket"
                            f"{_labels_text(labels, ('le', _fmt(bound)))}"
                            f" {cumulative}")
                    if exemplar is not None:
                        value, trace_id = exemplar
                        if value is not None and value <= bound:
                            line += (f' # {{trace_id="{trace_id:016x}"}}'
                                     f" {_fmt(value)}")
                            exemplar = None
                    lines.append(line)
                lines.append(
                    f"{family.name}_sum{_labels_text(labels)} "
                    f"{_fmt(snap['sum'])}")
                lines.append(
                    f"{family.name}_count{_labels_text(labels)} "
                    f"{snap['count']}")
            else:
                lines.append(
                    f"{family.name}{_labels_text(labels)} "
                    f"{_fmt(metric.value)}")
    return "\n".join(lines) + "\n"


#: registry name -> Apache mod_status field name
_APACHE_FIELDS = (
    ("server_requests_total", "Total Accesses"),
    ("server_connections_accepted_total", "Total Connections"),
    ("server_open_connections", "BusyWorkers"),
    ("server_cache_hit_rate", "CacheHitRate"),
)


def _derived_fields(by_name: dict, uptime: Optional[float]
                    ) -> List[Tuple[str, str]]:
    """The Apache ``mod_status`` fields, computed from unlabelled
    metric values by registry name (the server's own, or the totals of
    a merged report)."""
    fields: List[Tuple[str, str]] = []
    if uptime is not None:
        fields.append(("Uptime", f"{uptime:.3f}"))
    for name, apache_key in _APACHE_FIELDS:
        if name in by_name:
            fields.append((apache_key, _fmt(by_name[name])))
    bytes_sent = by_name.get("server_bytes_sent_total")
    if bytes_sent is not None:
        fields.append(("Total kBytes", _fmt(int(bytes_sent) // 1024)))
    requests = by_name.get("server_requests_total")
    if requests is not None and uptime:
        fields.append(("ReqPerSec", f"{requests / uptime:.3f}"))
        if bytes_sent is not None:
            fields.append(("BytesPerSec", f"{bytes_sent / uptime:.1f}"))
    return fields


def status_fields(registry, uptime: Optional[float] = None
                  ) -> List[Tuple[str, str]]:
    """Ordered ``(key, value)`` pairs for the status page.

    Apache-compatible derived fields first (so existing mod_status
    scrapers find what they expect), then every scalar metric by
    registry name, then histogram quantiles as ``name{labels}-pNN``.
    """
    scalars: List[Tuple[str, object]] = []
    histograms: List[Tuple[str, dict]] = []
    by_name = {}
    for family in registry.collect():
        for labels, metric in family.children():
            key = family.name + _labels_text(labels)
            if family.kind == "histogram":
                histograms.append((key, metric.snapshot()))
            else:
                scalars.append((key, metric.value))
                if not labels:
                    by_name[family.name] = metric.value

    fields = _derived_fields(by_name, uptime)
    for key, value in scalars:
        fields.append((key, _fmt(value)))
    for key, snap in histograms:
        fields.append((f"{key}-count", str(snap["count"])))
        for q_label in ("p50", "p90", "p99"):
            estimate = snap[q_label]
            shown = f"{estimate:.6f}" if estimate is not None else "NaN"
            fields.append((f"{key}-{q_label}", shown))
    return fields


#: derived field names that only make sense at the aggregate level
_DERIVED_KEYS = frozenset(
    {apache for _, apache in _APACHE_FIELDS}
    | {"Uptime", "Total kBytes", "ReqPerSec", "BytesPerSec"})

#: key suffixes :func:`status_fields` gives a histogram's lines
_HISTOGRAM_SUFFIXES = ("-count", "-p50", "-p90", "-p99")


def _labelled_key(key: str, label: str) -> str:
    """Weave one ``name="value"`` label into a status-field key, inside
    an existing brace pair if the key already carries labels."""
    if "{" in key:
        close = key.index("}")
        return key[:close] + "," + label + key[close:]
    for suffix in _HISTOGRAM_SUFFIXES:
        if key.endswith(suffix):
            return key[:-len(suffix)] + "{" + label + "}" + suffix
    return key + "{" + label + "}"


def _parse_field(value) -> Optional[float]:
    """A finite number, or None for a value the aggregate must skip."""
    try:
        number = float(value)
    except (TypeError, ValueError):
        return None
    return number if math.isfinite(number) else None


def merge_status_fields(sections, uptime: Optional[float] = None
                        ) -> List[Tuple[str, str]]:
    """One status report over N sections of :func:`status_fields` output.

    ``sections`` is a sequence of ``(pid, fields)`` pairs, one per
    worker process of a deployment (fields that arrived as JSON).  The
    report is the aggregate section first — scalars summed across
    sections (``*rate*`` metrics averaged), non-numeric values skipped,
    the Apache-derived fields recomputed over the totals — then a
    ``Workers`` count, then every section's own fields re-labelled with
    ``worker="pid"``.  Histogram lines (``-count``/``-pNN``) do not
    merge, so they appear per section only.
    """
    sums: dict = {}
    counts: dict = {}
    for _value, fields in sections:
        for key, value in fields:
            if key in _DERIVED_KEYS or key.endswith(_HISTOGRAM_SUFFIXES):
                continue
            number = _parse_field(value)
            if number is None:
                continue
            sums[key] = sums.get(key, 0.0) + number
            counts[key] = counts.get(key, 0) + 1
    totals = {key: total / counts[key] if "rate" in key.partition("{")[0]
              else total for key, total in sums.items()}

    merged = _derived_fields(
        {key: total for key, total in totals.items() if "{" not in key},
        uptime)
    merged.extend((key, _fmt(total)) for key, total in totals.items())
    merged.append(("Workers", str(len(sections))))
    for pid, fields in sections:
        tag = f'worker="{pid}"'
        merged.extend((_labelled_key(key, tag), shown)
                      for key, shown in fields if key not in _DERIVED_KEYS)
    return merged


def render_status_auto(fields: List[Tuple[str, str]]) -> str:
    """The ``?auto`` machine-readable mode: one ``Key: value`` per line."""
    return "".join(f"{key}: {value}\n" for key, value in fields)


def render_status_html(fields: List[Tuple[str, str]],
                       title: str = "N-Server Status") -> str:
    """The human mode: a minimal HTML table, Apache-status flavoured."""
    rows = "\n".join(
        f"<tr><td>{escape(key)}</td><td>{escape(value)}</td></tr>"
        for key, value in fields)
    return (
        "<!DOCTYPE html>\n"
        f"<html><head><title>{escape(title)}</title></head>\n"
        f"<body><h1>{escape(title)}</h1>\n"
        "<table border=\"1\">\n"
        "<tr><th>Metric</th><th>Value</th></tr>\n"
        f"{rows}\n"
        "</table></body></html>\n")
