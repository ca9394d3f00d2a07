"""HTTP response builder."""

from __future__ import annotations

import math
import time
from typing import Optional

from repro.http.headers import Headers
from repro.http.status import reason_phrase

__all__ = ["HttpResponse", "error_response", "http_date"]

SERVER_TOKEN = "COPS-HTTP/1.0 (repro)"

_DAYS = ("Mon", "Tue", "Wed", "Thu", "Fri", "Sat", "Sun")
_MONTHS = ("Jan", "Feb", "Mar", "Apr", "May", "Jun",
           "Jul", "Aug", "Sep", "Oct", "Nov", "Dec")


def http_date(timestamp: float) -> str:
    """The IMF-fixdate for a POSIX ``timestamp`` (RFC 7231 7.1.1.1),
    e.g. ``Sun, 06 Nov 1994 08:49:37 GMT``.

    Byte-identical to ``email.utils.formatdate(timestamp, usegmt=True)``
    without importing :mod:`email`: the fraction is rounded to whole
    microseconds half-to-even and carried into the seconds exactly as
    ``datetime.fromtimestamp`` does, so a timestamp a hair below a
    second boundary lands on the same second.
    """
    fraction, whole = math.modf(timestamp)
    micros = round(fraction * 1e6)
    if micros >= 1_000_000:
        whole += 1
    elif micros < 0:
        whole -= 1
    t = time.gmtime(whole)
    return "%s, %02d %s %04d %02d:%02d:%02d GMT" % (
        _DAYS[t.tm_wday], t.tm_mday, _MONTHS[t.tm_mon - 1], t.tm_year,
        t.tm_hour, t.tm_min, t.tm_sec)


class HttpResponse:
    """A response ready for serialisation.

    ``encode`` fills in Content-Length, Server and Date when absent, so
    hook code can stay minimal.  ``head_only`` suppresses the body on
    the wire (HEAD requests keep Content-Length).
    """

    __slots__ = ("status", "headers", "body", "version", "head_only",
                 "_close_after")

    def __init__(self, status: int = 200, headers: Optional[Headers] = None,
                 body: bytes = b"", version: str = "HTTP/1.1",
                 head_only: bool = False):
        self.status = status
        self.headers = headers if headers is not None else Headers()
        self.body = body
        self.version = version
        self.head_only = head_only
        #: the application asks the connection to close after this reply
        self._close_after = False

    def _wire_headers(self, date: Optional[str]) -> Headers:
        """The headers as they go on the wire: defaults filled in
        set-if-absent, and a handler-set ``Content-Length`` never
        duplicated (RFC 7230 forbids multiple occurrences — a split
        response is a request-smuggling hazard)."""
        headers = Headers(list(self.headers))
        if "Content-Length" not in headers:
            headers.set("Content-Length", str(len(self.body)))
        elif len(headers.get_all("Content-Length")) > 1:
            headers.set("Content-Length", headers.get("Content-Length"))
        if "Server" not in headers:
            headers.set("Server", SERVER_TOKEN)
        if "Date" not in headers:
            headers.set("Date", date if date is not None
                        else http_date(time.time()))
        return headers

    def encode_head(self, date: Optional[str] = None) -> bytes:
        """Status line + headers + blank line (everything but the body)."""
        status_line = (f"{self.version} {self.status} "
                       f"{reason_phrase(self.status)}\r\n").encode("latin-1")
        return status_line + self._wire_headers(date).encode() + b"\r\n"

    def encode(self, date: Optional[str] = None) -> bytes:
        wire = self.encode_head(date)
        if not self.head_only:
            wire += bytes(self.body)
        return wire

    def encode_segments(self, date: Optional[str] = None) -> list:
        """The wire bytes as segments whose concatenation equals
        :meth:`encode` byte-for-byte: the head as ``bytes``, then the
        body as given — a cached body (``bytes``, or a file range that
        ``os.sendfile`` sends from the page cache) goes to the socket
        without being copied (``Communicator.send_bytes``)."""
        segments = [self.encode_head(date)]
        if not self.head_only and self.body:
            segments.append(self.body)
        return segments


def error_response(status: int, version: str = "HTTP/1.1",
                   close: bool = False,
                   head_only: bool = False) -> HttpResponse:
    """A minimal HTML error page for ``status``.  ``head_only`` keeps
    the page's Content-Length but suppresses the body on the wire — an
    error answering a HEAD request must not carry one."""
    reason = reason_phrase(status)
    body = (f"<html><head><title>{status} {reason}</title></head>"
            f"<body><h1>{status} {reason}</h1></body></html>").encode()
    headers = Headers([("Content-Type", "text/html")])
    if close:
        headers.set("Connection", "close")
    return HttpResponse(status=status, headers=headers, body=body,
                        version=version, head_only=head_only)
