"""Debug-mode event tracing and application logging (options O10, O12).

O10=Debug: "all internal events that are triggered in the server are
written into a file.  The user can trace this file to get a snapshot of
what happened during the time an error condition occurred."
:class:`EventTracer` keeps a bounded in-memory ring (cheap enough to be
always-on in debug builds) and can stream to a file.

Since the always-on flight recorder landed
(:mod:`repro.obs.flight`), the tracer is a thin adapter over a
:class:`~repro.obs.flight.FlightRecorder`: one event vocabulary, one
ring implementation, one flush/close path.  The tracer keeps its
historical surface — :class:`TraceRecord` objects, ``[category]``
formatting without trace ids, a streaming text sink — but new code
should record into a flight recorder directly; ``EventTracer`` exists
for O10=Debug builds and for callers of the old API.

O12: application-level logging.  :class:`ServerLog` is a minimal
severity-tagged logger; the generated handlers call it only when the
template generated those call sites.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import IO, Optional

from repro.obs.flight import FlightRecorder
from repro.runtime.nulls import NULL_LOG, NULL_TRACER, NullLog, NullTracer

__all__ = ["TraceRecord", "EventTracer", "NullTracer", "NULL_TRACER",
           "ServerLog", "NullLog", "NULL_LOG"]


@dataclass
class TraceRecord:
    timestamp: float
    category: str
    detail: str

    def format(self) -> str:
        return f"{self.timestamp:.6f} [{self.category}] {self.detail}"


class EventTracer:
    """Bounded ring of internal-event trace records (debug mode).

    .. deprecated:: backed by :class:`repro.obs.flight.FlightRecorder`
       — use a flight recorder directly in new code.  Details are
       capped at the recorder's 512-byte limit.
    """

    enabled = True

    def __init__(self, capacity: int = 4096, sink: Optional[IO[str]] = None,
                 clock=time.monotonic, flight: Optional[FlightRecorder] = None):
        self._flight = (flight if flight is not None
                        else FlightRecorder(capacity=capacity, name="tracer",
                                            clock=clock))
        self._sink = sink
        self._lock = threading.Lock()

    @property
    def flight(self) -> FlightRecorder:
        """The backing flight recorder (shared event ring)."""
        return self._flight

    def trace(self, category: str, detail: str, trace_id: int = 0) -> None:
        timestamp = self._flight.record(category, detail, trace_id)
        with self._lock:
            if self._sink is not None:
                self._sink.write(
                    f"{timestamp:.6f} [{category}] {detail}\n")

    def records(self, category: Optional[str] = None) -> list:
        return [TraceRecord(event.timestamp, event.category, event.detail)
                for event in self._flight.events(category=category)]

    def dump(self, sink: IO[str]) -> int:
        """Write the current ring to ``sink``; returns record count."""
        recs = self.records()
        for rec in recs:
            sink.write(rec.format() + "\n")
        if hasattr(sink, "flush"):
            sink.flush()
        return len(recs)

    def flush(self) -> None:
        """Flush the streaming sink (if any and if it supports it)."""
        with self._lock:
            sink = self._sink
        if sink is not None and hasattr(sink, "flush"):
            sink.flush()

    def close(self) -> None:
        """Flush and detach the streaming sink.

        Called from server teardown so buffered file-sink writes are not
        lost on shutdown.  The ring stays readable; further traces only
        land in the ring.  The sink itself is not closed — the tracer
        does not own it (callers pass open files / StringIO in).
        """
        with self._lock:
            sink, self._sink = self._sink, None
        if sink is not None and hasattr(sink, "flush"):
            sink.flush()


class ServerLog:
    """Tiny severity logger (option O12)."""

    enabled = True
    LEVELS = ("debug", "info", "warning", "error")

    def __init__(self, sink: Optional[IO[str]] = None, level: str = "info",
                 clock=time.monotonic):
        if level not in self.LEVELS:
            raise ValueError(f"unknown level {level!r}")
        self._sink = sink
        self._threshold = self.LEVELS.index(level)
        self._clock = clock
        self._lock = threading.Lock()
        self.lines: list = []

    def log(self, level: str, message: str) -> None:
        if self.LEVELS.index(level) < self._threshold:
            return
        line = f"{self._clock():.3f} {level.upper():8s} {message}"
        with self._lock:
            self.lines.append(line)
            if self._sink is not None:
                self._sink.write(line + "\n")

    def debug(self, message: str) -> None:
        self.log("debug", message)

    def info(self, message: str) -> None:
        self.log("info", message)

    def warning(self, message: str) -> None:
        self.log("warning", message)

    def error(self, message: str) -> None:
        self.log("error", message)
