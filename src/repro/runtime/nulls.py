"""The disabled-observability null objects.

Library code that takes a log (O12) or a span recorder (O11) defaults
to one of these singletons, so the recording call sites stay
branch-free when the option is off.  They are standalone on purpose: a
default build (O10=Production, O11=No) holds them without importing
the real :class:`~repro.runtime.tracing.ServerLog` or
:class:`~repro.obs.spans.SpanRecorder` — nor the metrics registry
behind them.  Each stub mirrors the public surface of its real
counterpart; the owning modules re-export them under their historical
names.
"""

from __future__ import annotations

from typing import List, Tuple

__all__ = ["NullLog", "NullSpan", "NullSpanRecorder", "NULL_LOG",
           "NULL_SPAN", "NULL_SPANS"]


class NullLog:
    """O12=No: a log that drops every message and keeps no lines."""

    enabled = False
    LEVELS = ("debug", "info", "warning", "error")

    def __init__(self):
        self.lines: list = []

    def log(self, level: str, message: str) -> None:
        pass

    def debug(self, message: str) -> None:
        pass

    def info(self, message: str) -> None:
        pass

    def warning(self, message: str) -> None:
        pass

    def error(self, message: str) -> None:
        pass


class NullSpan:
    """The O11=No span: every method is a pass, every context manager a
    no-op.  A singleton — allocation-free on the disabled path."""

    __slots__ = ()
    finished = True
    duration = None
    trace_id = 0
    parent_id = 0
    stages: List[Tuple[str, float, float]] = []

    def stage(self, name: str) -> "NullSpan":
        """``with span.stage(...)`` on the null span: itself."""
        return self

    def stage_begin(self, name: str) -> None:
        pass

    def stage_end(self) -> None:
        pass

    def __enter__(self) -> "NullSpan":
        return self

    def __exit__(self, *exc_info) -> bool:
        return False

    def finish(self) -> None:
        pass


NULL_SPAN = NullSpan()


class NullSpanRecorder:
    """O11=No recorder: hands out the null span, absorbs observations."""

    __slots__ = ()
    enabled = False
    tracer = None
    exporter = None

    def start(self, name: str = "request", detail: str = "",
              trace_id: int = 0, parent_id: int = 0) -> NullSpan:
        """The shared :data:`NULL_SPAN`, whatever is asked for."""
        return NULL_SPAN

    def observe(self, stage: str, seconds: float) -> None:
        pass

    def bytes_read(self, n: int, seconds: float) -> None:
        pass

    def bytes_sent(self, n: int, seconds: float) -> None:
        pass

    def request_handled(self) -> None:
        pass

    def error(self) -> None:
        pass

    def connection_closed(self) -> None:
        pass

    def stage_quantiles(self, quantiles=(0.50, 0.90, 0.99)) -> dict:
        """Always empty: no samples are kept."""
        return {}

    def exemplars(self) -> dict:
        """Always empty: no exemplars are kept."""
        return {}


NULL_LOG = NullLog()
NULL_SPANS = NullSpanRecorder()
