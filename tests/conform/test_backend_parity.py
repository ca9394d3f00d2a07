"""Backend-parity plane: select (oracle) vs epoll (the fast path).

The edge-triggered epoll backend and its listener re-posts must be
*behaviourally invisible*: a generated server built on either backend,
fed the identical seeded session set, must produce byte-identical
response streams and the identical divergence set under the
conformance model.  The portable ``select`` backend is
the oracle — it is the paper-shaped O(n)-scan reactor the model was
validated against.

Only the ``Date`` header is canonicalised before the byte comparison:
it is the one wall-clock field on the wire and the two replays
necessarily run a moment apart.
"""

import re

import pytest

from repro.conform.checker import (
    DEFAULT_FILES,
    DEFAULT_PATHS,
    _build_corner_server,
    check_session,
    corner_matrix,
    replay_session,
)
from repro.conform.model import ModelVFS
from repro.conform.sessions import directed_sessions, generate_sessions
from repro.runtime import available_pollers

pytestmark = pytest.mark.skipif(
    "epoll" not in available_pollers(),
    reason="epoll poller unavailable on this platform")

_DATE = re.compile(rb"^Date: [^\r\n]*\r\n", re.MULTILINE)

#: smoke corners whose replies are deterministic under sequential
#: replay (the fault corner's byte stream depends on injection timing,
#: and the admission-stateful O17 corners on arrival spacing)
PARITY_CORNERS = ("base", "obs")


def _sessions():
    return directed_sessions(DEFAULT_PATHS) + generate_sessions(
        4177, DEFAULT_PATHS, 6)


def _canon(stream: bytes) -> bytes:
    return _DATE.sub(b"Date: -\r\n", stream)


def _replay(corner, backend, sessions, tmp_path, monkeypatch):
    """Replay ``sessions`` sequentially against a fresh server generated
    and run on ``backend``; return (streams, divergence idents)."""
    monkeypatch.setenv("REPRO_POLLER", backend)
    server, _plane = _build_corner_server(
        corner, str(tmp_path / backend), DEFAULT_FILES)
    server.start()
    try:
        streams = [replay_session("127.0.0.1", server.port, s)
                   for s in sessions]
    finally:
        server.stop()
    vfs = ModelVFS(DEFAULT_FILES)
    divergences = set()
    for session, stream in zip(sessions, streams):
        for d in check_session(session, stream, vfs, corner.model,
                               corner.freedoms, corner.name):
            divergences.add((d.session, d.kind))
    return streams, divergences


@pytest.mark.parametrize("name", PARITY_CORNERS)
def test_backends_byte_identical(name, tmp_path, monkeypatch):
    corner = {c.name: c for c in corner_matrix("smoke")}[name]
    sessions = _sessions()
    oracle, oracle_div = _replay(corner, "select", sessions, tmp_path,
                                 monkeypatch)
    fast, fast_div = _replay(corner, "epoll", sessions, tmp_path,
                             monkeypatch)
    for session, a, b in zip(sessions, oracle, fast):
        if b"/server-status" in session.payload:
            # the status body is live telemetry (uptime, counters) —
            # not byte-stable even across two runs on one backend; the
            # divergence-set comparison below still judges it
            continue
        assert _canon(a) == _canon(b), (
            f"corner {name}, session {session.name}: epoll stream "
            f"diverged from the select oracle")
    assert fast_div == oracle_div, (
        f"corner {name}: backends disagree on the divergence set")
