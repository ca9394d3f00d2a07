"""Debug-mode event tracing and application logging (options O10, O12).

O10=Debug: "all internal events that are triggered in the server are
written into a file.  The user can trace this file to get a snapshot of
what happened during the time an error condition occurred."  A Debug
build records its internal events into the ring :func:`debug_ring`
builds — a :class:`~repro.obs.flight.FlightRecorder`, so there is one
event vocabulary and one ring implementation — and writes it to the
configured ``debug_trace_path`` when it stops.

O12: application-level logging.  :class:`ServerLog` is a minimal
severity-tagged logger; the generated handlers call it only when the
template generated those call sites.
"""

from __future__ import annotations

import threading
import time
from typing import IO, Optional

from repro.obs.flight import FlightRecorder
from repro.runtime.nulls import NULL_LOG, NullLog

__all__ = ["debug_ring", "ServerLog", "NullLog", "NULL_LOG"]


def debug_ring() -> FlightRecorder:
    """The O10=Debug internal-event ring: a plain flight recorder named
    ``debug``, separate from the process-wide lifecycle ring."""
    return FlightRecorder(name="debug")


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
