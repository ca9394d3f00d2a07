"""Performance profiling (N-Server option O11).

"Important statistical information of the server application can be
automatically gathered, if the N-Server is configured to enable
performance profiling.  This information includes: the number of
connections accepted, the number of bytes read, the number of bytes
sent, the file cache hit rate, etc."

:class:`Profiler` keeps the recording API the generated Read-Request /
Send-Reply / Acceptor handlers call (the `+` cells of the O11 column in
Table 2), but is now a thin façade over a
:class:`~repro.obs.registry.MetricsRegistry`: every recorder maps to a
registry counter with its *own* lock.  The old implementation serialised
every byte-count update on a single ``threading.Lock`` — on the hot
read/send path, with several processor threads, that one lock was the
contention point (see ``benchmarks/bench_micro_components.py`` for the
before/after numbers).

When O11=No those call sites are simply not generated and the
:data:`NULL_PROFILER` singleton (a standalone stub in
:mod:`repro.runtime.nulls`, re-exported here) keeps the library code
branch-free.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

from repro.obs.registry import MetricsRegistry
from repro.runtime.nulls import NULL_PROFILER, NullProfiler

__all__ = ["ServerProfile", "Profiler", "NullProfiler", "NULL_PROFILER"]


@dataclass
class ServerProfile:
    """Immutable snapshot returned by :meth:`Profiler.snapshot`."""

    connections_accepted: int = 0
    connections_closed: int = 0
    bytes_read: int = 0
    bytes_sent: int = 0
    requests_handled: int = 0
    errors: int = 0
    events_dispatched: int = 0
    cache_hit_rate: Optional[float] = None
    uptime: float = 0.0

    @property
    def open_connections(self) -> int:
        return self.connections_accepted - self.connections_closed


class Profiler:
    """Façade over the metrics registry keeping the paper's statistics.

    Pass a shared ``registry`` to co-locate the profiler's counters with
    span histograms and sampler gauges (the generated ``Observability``
    component does); by default the profiler owns a private registry.
    """

    enabled = True

    def __init__(self, clock=time.monotonic, registry=None):
        self._clock = clock
        self._start = clock()
        self.registry = registry if registry is not None else MetricsRegistry()
        reg = self.registry
        self._connections_accepted = reg.counter(
            "server_connections_accepted_total", "Connections accepted")
        self._connections_closed = reg.counter(
            "server_connections_closed_total", "Connections closed")
        self._bytes_read = reg.counter(
            "server_bytes_read_total", "Bytes read from sockets")
        self._bytes_sent = reg.counter(
            "server_bytes_sent_total", "Bytes sent to sockets")
        self._requests_handled = reg.counter(
            "server_requests_total", "Requests handled to completion")
        self._errors = reg.counter(
            "server_errors_total", "Pipeline/handler errors")
        self._events_dispatched = reg.counter(
            "server_events_dispatched_total", "Events routed by dispatchers")
        self._accept_errors = reg.counter(
            "server_accept_errors_total", "OSErrors survived by the accept loop")
        self._cache_stats = None  # optional CacheStats to sample

    def attach_cache(self, stats) -> None:
        """Point the profiler at a ``CacheStats`` for hit-rate sampling."""
        self._cache_stats = stats

    @property
    def uptime(self) -> float:
        return self._clock() - self._start

    def connection_accepted(self) -> None:
        self._connections_accepted.inc()

    def connection_closed(self) -> None:
        self._connections_closed.inc()

    def bytes_read(self, n: int) -> None:
        self._bytes_read.inc(n)

    def bytes_sent(self, n: int) -> None:
        self._bytes_sent.inc(n)

    def request_handled(self) -> None:
        self._requests_handled.inc()

    def error(self) -> None:
        self._errors.inc()

    def event_dispatched(self, n: int = 1) -> None:
        self._events_dispatched.inc(n)

    def accept_error(self) -> None:
        self._accept_errors.inc()

    def snapshot(self) -> ServerProfile:
        return ServerProfile(
            connections_accepted=self._connections_accepted.value,
            connections_closed=self._connections_closed.value,
            bytes_read=self._bytes_read.value,
            bytes_sent=self._bytes_sent.value,
            requests_handled=self._requests_handled.value,
            errors=self._errors.value,
            events_dispatched=self._events_dispatched.value,
            cache_hit_rate=(self._cache_stats.hit_rate
                            if self._cache_stats is not None else None),
            uptime=self._clock() - self._start,
        )
