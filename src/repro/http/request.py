"""HTTP request model."""

from __future__ import annotations

from typing import Optional
from urllib.parse import unquote

from repro.http.headers import Headers

__all__ = ["HttpRequest", "BadRequest"]

SUPPORTED_METHODS = ("GET", "HEAD", "POST", "PUT", "DELETE", "OPTIONS", "TRACE")


class BadRequest(ValueError):
    """Malformed request; carries the HTTP status code to answer with."""

    def __init__(self, message: str, status: int = 400):
        super().__init__(message)
        self.status = status


class HttpRequest:
    """A parsed request line + headers + body."""

    __slots__ = ("method", "target", "version", "headers", "body")

    def __init__(self, method: str, target: str, version: str,
                 headers: Optional[Headers] = None, body: bytes = b""):
        self.method = method
        self.target = target
        self.version = version
        self.headers = headers if headers is not None else Headers()
        self.body = body

    @property
    def path(self) -> str:
        """Decoded path component of the request target (no query)."""
        raw = self.target.split("?", 1)[0]
        return unquote(raw)

    @property
    def query(self) -> str:
        parts = self.target.split("?", 1)
        return parts[1] if len(parts) == 2 else ""

    @property
    def keep_alive(self) -> bool:
        """HTTP/1.1 defaults to persistent connections; HTTP/1.0 requires
        an explicit ``Connection: keep-alive``."""
        conn = (self.headers.get("Connection") or "").lower()
        if self.version == "HTTP/1.1":
            return conn != "close"
        return conn == "keep-alive"

    def validate(self) -> None:
        """Raise :class:`BadRequest` on protocol violations."""
        if self.method not in SUPPORTED_METHODS:
            raise BadRequest(f"method {self.method!r}", status=501)
        if self.version not in ("HTTP/1.0", "HTTP/1.1"):
            raise BadRequest(f"version {self.version!r}", status=505)
        if self.version == "HTTP/1.1" and "Host" not in self.headers:
            raise BadRequest("HTTP/1.1 requires Host header", status=400)
        if not self.target.startswith("/") and self.target != "*":
            raise BadRequest(f"target {self.target!r}", status=400)
