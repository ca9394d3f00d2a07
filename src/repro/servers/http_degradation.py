"""The O17 application surface of COPS-HTTP.

:mod:`repro.servers.cops_http` is Table 4's "other application code" —
the hand-written part of the *paper's* COPS-HTTP, measured against the
paper's NCSS counts.  The graceful-degradation extension (template
option O17) adds an application surface of its own — the plane's
lines in ``?auto`` — that no base build ever executes, exactly as
O17=No emits zero generated code.  It lives here so the extension stays
out of the paper-comparison measurement the same way it stays out of
the generated base framework; ``cops_http`` imports this module only
when a build has the plane.
"""

from __future__ import annotations

__all__ = ["degradation_report"]


def degradation_report(plane) -> str:
    """Extra ``?auto`` lines for the O17 plane, in the same
    ``Key: value`` shape ``mod_status`` consumers parse."""
    status = plane.status()
    shed, breaker = status["shed"], status["breaker"]
    lines = [f"ShedTotal: {shed['shed_total']}"]
    for reason, count in sorted(shed["shed_by_reason"].items()):
        lines.append(f"Shed_{reason}: {count}")
    lines.append(f"BreakerState: {breaker['state']}")
    lines.append(f"BreakerTrips: {breaker['trips']}")
    return "".join(line + "\n" for line in lines)
