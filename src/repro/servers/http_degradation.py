"""The O17 application surface of COPS-HTTP.

:mod:`repro.servers.cops_http` is Table 4's "other application code" —
the hand-written part of the *paper's* COPS-HTTP, measured against the
paper's NCSS counts.  The graceful-degradation extension (template
option O17) adds an application surface of its own — building shed
responses, serving stale under brownout, reporting in ``?auto`` — that
no base build ever executes, exactly as O17=No emits zero generated
code.  It lives here so the extension stays out of the paper-comparison
measurement the same way it stays out of the generated base framework;
the hooks in ``cops_http`` find the plane and import this module only
when one exists.
"""

from __future__ import annotations

from repro import http
from repro.runtime.handles import FileHandle

__all__ = [
    "bound_payload",
    "degradation_report",
    "shed_response",
    "stale_payload",
]


def shed_response(request, decision):
    """A well-formed 503 with ``Retry-After`` for one shed request."""
    headers = http.Headers([
        ("Content-Type", "text/plain; charset=utf-8"),
        ("Retry-After", str(max(1, int(round(decision.retry_after))))),
        ("Connection", "close"),
    ])
    if decision.reason:
        headers.set("X-Shed-Reason", decision.reason)
    response = http.HttpResponse(
        status=503, headers=headers,
        body=b"503 Service Unavailable\r\n",
        version=request.version,
        head_only=request.method == "HEAD")
    response._close_after = True
    return response


def stale_payload(conn, path):
    """The cache plane's current payload for ``path`` (no loader, no
    revalidation; a found entry counts as a cache hit), or None when
    nothing is cached."""
    cache = getattr(conn.reactor, "cache", None)
    if cache is None:
        return None
    got = cache.file_cache.lookup(path)
    return got.payload if got is not None else None


def bound_payload(payload, brownout):
    """Apply the brownout response cap to ``payload`` (a bytes-like or
    a file body) when one is active, accounting the truncation on the
    controller.  A file body is cut to a shorter range, not copied."""
    if (brownout is not None and payload
            and isinstance(payload, (bytes, bytearray, memoryview,
                                     FileHandle))):
        cap = brownout.response_cap()
        if cap is not None and len(payload) > cap:
            payload = payload[:cap]
            brownout.bounded()
    return payload


def degradation_report(plane) -> str:
    """Extra ``?auto`` lines for the O17 plane, in the same
    ``Key: value`` shape ``mod_status`` consumers parse."""
    lines = []
    shedding = getattr(plane, "shedding", None)
    if shedding is not None:
        status = shedding.status()
        lines.append(f"ShedTotal: {status['shed_total']}")
        for reason, count in sorted(status["shed_by_reason"].items()):
            lines.append(f"Shed_{reason}: {count}")
    brownout = getattr(plane, "brownout", None)
    if brownout is not None:
        lines.append(f"BrownoutLevel: {brownout.level:.2f}")
        lines.append(f"BrownoutStaleServed: {brownout.stale_served}")
        lines.append(f"BrownoutBounded: {brownout.responses_bounded}")
    breaker = getattr(plane, "breaker", None)
    if breaker is not None:
        lines.append(f"BreakerState: {breaker.state}")
        lines.append(f"BreakerTrips: {breaker.trips}")
    adaptive = getattr(plane, "adaptive", None)
    if adaptive is not None:
        status = adaptive.status()
        lines.append(f"AdaptiveHigh: {status['high']}")
        lines.append(f"AdaptiveAdjustments: {status['adjustments']}")
    return "".join(line + "\n" for line in lines)
