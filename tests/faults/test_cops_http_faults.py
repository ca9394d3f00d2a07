"""Acceptance: COPS-HTTP generated with O11+O13 survives a seeded fault
schedule combining slow-peer trickle, mid-stream resets and injected
handler exceptions — while still serving healthy connections — with the
resilience counters visible on ``/server-status?auto`` and a graceful
drain through the generated facade.

Synchronization discipline: no ``time.sleep()`` — cross-thread state is
awaited with ``harness.wait_until`` and lifecycles run inside
``harness.ServerFixture``."""

import socket
import time

import pytest

from harness import ServerFixture, wait_until
from repro.co2p3s.nserver import COPS_HTTP_RESILIENCE_OPTIONS
from repro.faults import FaultPlane, FaultSpec, abrupt_reset, trickle_send
from repro.servers.cops_http import CopsHttpHooks, build_cops_http

pytestmark = [pytest.mark.faults, pytest.mark.timeout(120)]

SEED = 11


@pytest.fixture
def faulted_server(tmp_path):
    docroot = tmp_path / "docroot"
    docroot.mkdir()
    (docroot / "index.html").write_text("<html>hello fault plane</html>")

    plane = FaultPlane(FaultSpec(handler_error=0.35), seed=SEED)
    server, fw, _report = build_cops_http(
        str(docroot),
        options=COPS_HTTP_RESILIENCE_OPTIONS,
        hooks=plane.wrap_hooks(CopsHttpHooks()),
        dest=str(tmp_path),
        package="cops_http_faults_fw",
        header_timeout=0.4,
        deadline_interval=0.02,
        drain_timeout=5.0,
    )
    plane.install(server)
    with ServerFixture(server) as fixture:
        yield fixture, fw, plane


def test_cops_http_serves_through_seeded_fault_storm(faulted_server):
    fixture, fw, plane = faulted_server
    server = fixture.server
    resilience = server.reactor.resilience

    # -- phase 1: normal traffic with injected handler exceptions --------
    outcomes = [fixture.http_get("/index.html") for _ in range(8)]
    oks = [r for r in outcomes if r.startswith(b"HTTP/1.1 200")]
    drops = [r for r in outcomes if not r]
    assert oks, "every request failed — the server is not serving"
    assert b"hello fault plane" in oks[0]
    assert drops, f"seed {SEED} injected no handler fault in 8 requests"
    assert plane.counts().get("error", 0) >= 1

    # -- phase 2: slow-loris trickle hits the header deadline -------------
    loris = fixture.connect()
    trickle_send(loris, b"GET /index.html HTTP/1.1\r\nHost: t\r\n\r\n",
                 chunk=1, delay=0.05,
                 deadline=time.monotonic() + 5.0)
    loris.close()
    wait_until(lambda: resilience.deadlines.timed_out >= 1,
               message="deadline monitor never closed the trickling peer")
    assert resilience.deadlines.reasons["header"] >= 1

    # -- phase 3: mid-stream RST must not wedge anything -------------------
    rst = fixture.connect()
    rst.sendall(b"GET /index")          # incomplete request...
    abrupt_reset(rst)                   # ...then a genuine ECONNRESET

    # -- phase 4: the server still serves healthy connections --------------
    assert b"hello fault plane" in fixture.http_get_until_ok("/index.html")

    # -- phase 5: resilience counters on /server-status?auto ----------------
    status = fixture.http_get_until_ok("/server-status?auto")
    body = status.split(b"\r\n\r\n", 1)[1].decode()
    fields = dict(line.split(": ", 1) for line in body.splitlines()
                  if ": " in line)
    assert float(fields["server_deadline_timeouts_total"]) >= 1
    # Registered at construction, so present even while still zero.
    assert "server_worker_restarts_total" in fields
    assert "server_quarantined_events_total" in fields

    # -- phase 6: graceful drain through the generated facade ---------------
    assert fw.Server.drain is not None
    assert server.drain() is True
    fixture.mark_stopped()


def test_fault_log_is_replayable(tmp_path):
    """Two runs with the same seed inject the same handler-fault pattern
    — the property that makes a failing fault run reproducible."""
    patterns = []
    for run in range(2):
        docroot = tmp_path / f"docroot{run}"
        docroot.mkdir()
        (docroot / "index.html").write_text("x")
        plane = FaultPlane(FaultSpec(handler_error=0.35), seed=SEED)
        server, _fw, _report = build_cops_http(
            str(docroot),
            options=COPS_HTTP_RESILIENCE_OPTIONS,
            hooks=plane.wrap_hooks(CopsHttpHooks()),
            dest=str(tmp_path / f"build{run}"),
            package=f"cops_http_replay{run}_fw",
        )
        plane.install(server)
        with ServerFixture(server) as fixture:
            outcomes = [bool(fixture.http_get("/index.html"))
                        for _ in range(10)]
        patterns.append((outcomes,
                         [a.kind for a in plane.schedule.actions("handler")]))
    assert patterns[0] == patterns[1]


def _replies(data: bytes):
    """Split a keep-alive byte stream into (status line, body) pairs;
    a reply cut short by a close comes last with its partial body."""
    out = []
    while data:
        head, sep, rest = data.partition(b"\r\n\r\n")
        if not sep:
            out.append((head.split(b"\r\n", 1)[0], None))
            break
        length = next(int(line.split(b":", 1)[1])
                      for line in head.split(b"\r\n")
                      if line.lower().startswith(b"content-length:"))
        out.append((head.split(b"\r\n", 1)[0], rest[:length]))
        data = rest[length:]
    return out


def test_file_body_replies_end_byte_exact_or_closed(tmp_path):
    """EAGAIN storms, partial sends and resets hit replies whose bodies
    go out with ``os.sendfile``: every reply arrives whole and in
    request order, or the connection closes after a prefix of it —
    never a duplicate, a reorder or a pad."""
    from repro.cache.file_cache import PAGE

    docroot = tmp_path / "docroot"
    docroot.mkdir()
    bodies = {f"/f{i}.bin": bytes([65 + i]) * (PAGE * (i + 1) + 37 * i)
              for i in range(4)}
    for path, body in bodies.items():
        (docroot / path.lstrip("/")).write_bytes(body)
    plane = FaultPlane(FaultSpec(send_eagain=0.3, partial_write=0.3,
                                 partial_write_bytes=1500, send_reset=0.03),
                       seed=SEED)
    server, _fw, _report = build_cops_http(
        str(docroot), dest=str(tmp_path / "build"),
        package="cops_http_file_faults_fw")
    plane.install(server)
    order = [f"/f{i % 4}.bin" for i in (0, 1, 2, 3, 2, 1, 0, 3)]
    request = b"".join(f"GET {p} HTTP/1.1\r\nHost: x\r\n\r\n".encode()
                       for p in order)
    closed = whole = 0
    with ServerFixture(server) as fixture:
        for _ in range(12):
            sock = fixture.connect()
            sock.settimeout(10)
            sock.sendall(request)
            data = b""
            replies = []
            while len(replies) < len(order) or replies[-1][1] is None \
                    or len(replies[-1][1]) < len(bodies[order[-1]]):
                chunk = sock.recv(1 << 16)
                if not chunk:
                    break
                data += chunk
                replies = _replies(data)
            sock.close()
            assert len(replies) <= len(order)
            for i, (status, body) in enumerate(replies):
                assert status == b"HTTP/1.1 200 OK"
                expected = bodies[order[i]]
                if i < len(replies) - 1:
                    assert body == expected
                else:
                    assert body is None or expected.startswith(body)
            if len(replies) == len(order) and replies[-1][1] == \
                    bodies[order[-1]]:
                whole += 1
            else:
                closed += 1
    # Every reply write consults its stream's schedule, so each stream's
    # first eight decisions are always drawn: the seed fixes a reset.
    counts = plane.counts()
    assert counts.get("eagain") and counts.get("partial")
    assert whole, "no connection got all its replies"
    assert closed and counts.get("reset", 0) >= closed
