"""The overload storm: a generated server (O9+O11+O13+O17) at its
connection cap under a seeded fault schedule, hammered with more
connections than it will take.

Acceptance criteria for the O17 degradation plane (the robustness
counterpart of test_fault_storm_trace's crash storm):

* every admitted request completes, with bounded latency;
* every connection over capacity gets a *well-formed* 503 with a
  ``Retry-After`` header — cheap explicit rejection, not a silent stall
  in the kernel backlog — and is counted under the reason that bound,
  the connection cap;
* zero worker deaths: shedding happens in the accept loop, before a
  Communicator exists, so the storm never touches the Event Processors;
* the evidence is on the record: shed decisions (with reason codes and
  trace ids) in the flight ring, and the span exporters knowing exactly
  the admitted — and none of the shed — connections.
"""

import os
import socket
import time

import pytest

from harness import ServerFixture, generated_server, wait_until
from repro.faults import FaultPlane, FaultSpec
from repro.obs.flight import GLOBAL as GLOBAL_FLIGHT
from repro.obs.flight import parse_dump
from repro.runtime import ServerHooks

pytestmark = [pytest.mark.faults, pytest.mark.timeout(120)]

SEED = 11
CAPACITY = 4
STORM = 15          # rejected connections on top of a full house
AFTERMATH = 20      # admitted requests once the storm clears
OPTIONS = {"O4": "Synchronous", "O9": True, "O11": True, "O13": True,
           "O17": True}


class PingHooks(ServerHooks):
    def decode(self, raw, conn):
        return raw.strip().decode()

    def handle(self, request, conn):
        return request.upper()

    def encode(self, result, conn):
        return result.encode() + b"\n"


def drain(sock, timeout=5.0) -> bytes:
    """Read until EOF (the rejection path always closes)."""
    sock.settimeout(timeout)
    chunks = []
    while True:
        chunk = sock.recv(4096)
        if not chunk:
            return b"".join(chunks)
        chunks.append(chunk)


def parse_http(payload: bytes):
    head, _, body = payload.partition(b"\r\n\r\n")
    lines = head.split(b"\r\n")
    headers = {}
    for line in lines[1:]:
        name, _, value = line.partition(b": ")
        headers[name.decode().lower()] = value.decode()
    return lines[0], headers, body


def test_overload_storm_sheds_gracefully(tmp_path):
    probe_dir = tmp_path / "probe"
    probe_dir.mkdir()
    GLOBAL_FLIGHT.clear()

    # Seeded socket-level noise (fragmented reads, spurious readiness)
    # keeps the admitted path honest; no handler or send faults, so
    # every admission decision — and every 503 — stays deterministic.
    plane = FaultPlane(FaultSpec(partial_read=0.2, recv_eagain=0.1),
                       seed=SEED)
    server = generated_server(
        plane.wrap_hooks(PingHooks()), OPTIONS,
        supervision_interval=0.02, processor_threads=2,
        max_connections=CAPACITY,
        shed_retry_after=2.0,
        # the whole storm comes from 127.0.0.1 — keep the per-client
        # limiter out of the way so the connection cap decides alone
        shed_rate=1e6, shed_burst=1e6,
    )
    plane.install(server)
    reactor = server.reactor
    degradation = reactor.degradation

    with ServerFixture(server) as fixture:
        # -- fill the house: CAPACITY held connections, one request each
        occupiers = []
        for _ in range(CAPACITY):
            sock = fixture.connect()
            sock.sendall(b"ping\n")
            assert fixture.read_line(sock) == b"PING\n"
            occupiers.append(sock)
        wait_until(reactor.overload.at_connection_limit,
                   message="server never reached the connection cap")

        # -- the storm: every connection over capacity is rejected with
        # a complete, parseable 503 and then closed by the server
        for _ in range(STORM):
            with socket.create_connection(("127.0.0.1", fixture.port)) as sock:
                status, headers, body = parse_http(drain(sock))
            assert status == b"HTTP/1.1 503 Service Unavailable"
            assert headers["retry-after"] == "2"
            assert headers["connection"] == "close"
            assert int(headers["content-length"]) == len(body)
            assert body == b"503 Service Unavailable\r\n"

        assert degradation.shedding.shed_total == STORM
        status = degradation.status()
        assert status["shed"]["shed_total"] == STORM
        assert status["shed"]["shed_by_reason"] == {"max-connections": STORM}

        # -- storm over: release the house and the server recovers
        for sock in occupiers:
            sock.close()
        wait_until(lambda: reactor.overload.open_connections == 0,
                   message="closed connections never drained")

        latencies = []
        for _ in range(AFTERMATH):
            started = time.monotonic()
            assert fixture.request(b"ping\n", timeout=5.0) == b"PING\n"
            latencies.append(time.monotonic() - started)
        latencies.sort()
        p99 = latencies[int(0.99 * (len(latencies) - 1))]
        assert p99 < 2.0, f"admitted p99 {p99:.3f}s not bounded"

        # -- zero worker deaths: the storm never reached a worker
        assert reactor.resilience.supervisor.restarts == 0

        GLOBAL_FLIGHT.snapshot("probe", directory=str(probe_dir))
        exported = reactor.observability.exporter.records()

    # -- reconstruction from the dump alone ------------------------------
    (dump,) = os.listdir(probe_dir)
    with open(probe_dir / dump, encoding="utf-8") as fh:
        events = parse_dump(fh.read())

    sheds = [e for e in events if e.category == "shed"]
    assert len(sheds) == STORM
    assert all("reason=max-connections" in e.detail for e in sheds)
    assert all("client=127.0.0.1" in e.detail for e in sheds)

    accepts = {e.trace_id for e in events if e.category == "accept"}
    shed_ids = {e.trace_id for e in sheds}
    assert len(accepts) == CAPACITY + STORM + AFTERMATH
    assert shed_ids <= accepts
    assert all(trace_id != 0 for trace_id in shed_ids)

    # The exporter knows every admitted connection and no shed one: a
    # rejected connection costs one canned write — never a span.
    exported_ids = {record["trace_id"] for record in exported}
    assert exported_ids == accepts - shed_ids
    assert not (exported_ids & shed_ids)
    for record in exported:
        assert [s["stage"] for s in record["stages"]] == \
            ["decode", "handle", "encode"]
