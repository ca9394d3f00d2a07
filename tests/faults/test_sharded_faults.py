"""Fault storm against the generated sharded shape (O13+O14): a seeded
WorkerCrash kills one shard's Event Processor worker mid-event; that
shard's O13 supervisor respawns it while the other shard keeps serving
— the blast radius of a worker death is one shard, not the server."""

import pytest

from harness import ServerFixture, generated_server, wait_until
from repro.faults import FaultPlane, FaultSpec
from repro.runtime import ServerHooks

pytestmark = [pytest.mark.faults, pytest.mark.timeout(120)]

#: with handler_crash=0.3, seed 4 injects exactly one crash in twelve
#: handle() calls — at call index 3, which round-robin over two shards
#: places on shard 1 (its second connection)
SEED = 4
CRASH_INDEX = 3
SHARDS = 2
OPTIONS = {"O4": "Synchronous", "O11": True, "O13": True, "O14": SHARDS}


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


def test_worker_crash_stays_inside_one_shard(tmp_path):
    plane = FaultPlane(FaultSpec(handler_crash=0.3), seed=SEED)
    server = generated_server(plane.wrap_hooks(PingHooks()), OPTIONS,
                              supervision_interval=0.02,
                              processor_threads=2)
    plane.install(server)
    shards = server.sharding.shards
    victim = CRASH_INDEX % SHARDS
    with ServerFixture(server) as fixture:
        outcomes = [attempt(fixture) for _ in range(12)]

        # The seeded crash ate exactly one reply; every other request —
        # including later ones on the crashed shard — was served.
        assert outcomes[CRASH_INDEX] == b""
        assert all(outcomes[i] == b"PING\n"
                   for i in range(12) if i != CRASH_INDEX), outcomes
        assert [a.kind for a in plane.schedule.actions("handler")
                ].count("crash") == 1

        # Round-robin spread the twelve connections evenly — the other
        # shard was serving while the victim took the hit.
        assert server.sharding.accepted_per_shard == [6, 6]

        # The supervisor on the crashed shard — and only that shard —
        # replaced the dead worker, restoring the pool to full strength.
        wait_until(
            lambda: shards[victim].resilience.supervisor.restarts >= 1,
            message="supervisor never replaced the dead worker")
        assert [s.resilience.supervisor.restarts for s in shards] == \
            [int(index == victim) for index in range(SHARDS)]
        wait_until(lambda: shards[victim].processor.thread_count == 2,
                   message="worker pool never restored to full strength")

        # Restart counters surface in the aggregated status report.
        fields = dict(server.sharding.status_fields())
        assert float(fields["server_worker_restarts_total"]) == 1
        assert float(fields[
            f'server_worker_restarts_total{{shard="{victim}"}}']) == 1
