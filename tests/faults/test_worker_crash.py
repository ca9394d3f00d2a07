"""Fault storm against a generated single-reactor build (O11+O13): a
seeded WorkerCrash kills one Event Processor worker mid-event; the O13
supervisor respawns it while the rest of the pool keeps serving — a
worker death costs the one reply it was computing, not the server."""

import pytest

from harness import ServerFixture, generated_server, wait_until
from repro.faults import FaultPlane, FaultSpec
from repro.runtime import ServerHooks

pytestmark = [pytest.mark.faults, pytest.mark.timeout(120)]

#: with handler_crash=0.3, seed 4 injects exactly one crash in twelve
#: handle() calls — at call index 3
SEED = 4
CRASH_INDEX = 3
OPTIONS = {"O4": "Synchronous", "O11": True, "O13": True}


class PingHooks(ServerHooks):
    def decode(self, raw, conn):
        return raw.strip().decode()

    def handle(self, request, conn):
        return request.upper()

    def encode(self, result, conn):
        return result.encode() + b"\n"


def attempt(fixture, timeout=1.0) -> bytes:
    """One request; b'' when the injected crash eats the reply."""
    try:
        return fixture.request(b"ping\n", timeout=timeout)
    except OSError:
        return b""


def test_worker_crash_costs_one_reply(tmp_path):
    plane = FaultPlane(FaultSpec(handler_crash=0.3), seed=SEED)
    server = generated_server(plane.wrap_hooks(PingHooks()), OPTIONS,
                              supervision_interval=0.02,
                              processor_threads=2)
    plane.install(server)
    reactor = server.reactor
    with ServerFixture(server) as fixture:
        outcomes = [attempt(fixture) for _ in range(12)]

        # The seeded crash ate exactly one reply; every other request —
        # including the ones after the crash — was served.
        assert outcomes[CRASH_INDEX] == b""
        assert all(outcomes[i] == b"PING\n"
                   for i in range(12) if i != CRASH_INDEX), outcomes
        assert [a.kind for a in plane.schedule.actions("handler")
                ].count("crash") == 1

        # The supervisor replaced the dead worker exactly once,
        # restoring the pool to full strength.
        wait_until(lambda: reactor.resilience.supervisor.restarts >= 1,
                   message="supervisor never replaced the dead worker")
        assert reactor.resilience.supervisor.restarts == 1
        wait_until(lambda: reactor.processor.thread_count == 2,
                   message="worker pool never restored to full strength")

        # The restart counter surfaces in the status report.
        status = reactor.observability.status_report(auto=True)
        fields = dict(line.split(": ", 1) for line in status.splitlines())
        assert float(fields["server_worker_restarts_total"]) == 1
