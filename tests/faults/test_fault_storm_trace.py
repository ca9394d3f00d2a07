"""The acceptance storm: a seeded fault against a generated sharded
server (O11+O13+O14), then the full per-request path — accept, shard
placement, worker dispatch, stage bracketing, the injected fault, reply
completion — reconstructed *purely* from flight-recorder dump files plus
the trace exporter's records, never from live server state."""

import os

import pytest

from harness import ServerFixture, generated_server, wait_until
from repro.faults import FaultPlane, FaultSpec
from repro.obs.flight import GLOBAL as GLOBAL_FLIGHT
from repro.obs.flight import parse_dump, reconstruct_path
from repro.runtime import ServerHooks

pytestmark = [pytest.mark.faults, pytest.mark.timeout(120)]

#: the seeded schedule of test_sharded_faults: handler_crash=0.3 under
#: seed 4 crashes exactly one handle() call — request index 3, which
#: round-robin places on shard 1
SEED = 4
CRASH_INDEX = 3
REQUESTS = 12
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
    try:
        return fixture.request(b"ping\n", timeout=timeout)
    except OSError:
        return b""


def load_events(directory):
    """Every flight event in every dump file under ``directory``."""
    events = []
    for filename in sorted(os.listdir(directory)):
        with open(os.path.join(directory, filename),
                  encoding="utf-8") as fh:
            events.extend(parse_dump(fh.read()))
    return events


def test_fault_storm_path_reconstructed_from_dumps(tmp_path, monkeypatch):
    auto_dir = tmp_path / "auto"        # where crash-triggered dumps land
    probe_dir = tmp_path / "probe"      # the explicit end-of-run snapshot
    auto_dir.mkdir()
    probe_dir.mkdir()
    # Generated builds record to the process-global ring, which dumps
    # to $REPRO_FLIGHT_DIR on its own.
    monkeypatch.setenv("REPRO_FLIGHT_DIR", str(auto_dir))
    GLOBAL_FLIGHT.clear()

    plane = FaultPlane(FaultSpec(handler_crash=0.3), seed=SEED)
    server = generated_server(plane.wrap_hooks(PingHooks()), OPTIONS,
                              supervision_interval=0.02,
                              processor_threads=2)
    plane.install(server)
    shards = server.sharding.shards
    victim_shard = shards[CRASH_INDEX % SHARDS]
    with ServerFixture(server) as fixture:
        outcomes = [attempt(fixture) for _ in range(REQUESTS)]
        assert outcomes[CRASH_INDEX] == b""
        assert all(outcomes[i] == b"PING\n"
                   for i in range(REQUESTS) if i != CRASH_INDEX), outcomes

        # The worker death dumped the ring on its own — the always-on
        # story: the evidence hits disk before anyone asks.
        wait_until(
            lambda: victim_shard.resilience.supervisor.restarts >= 1,
            message="supervisor never replaced the dead worker")
        auto_dumps = [name for name in os.listdir(auto_dir)
                      if "worker-death" in name]
        assert auto_dumps, "worker death produced no flight dump"

        # A client can read its reply before the write-complete event
        # lands in the ring, so snapshot only once the server is
        # quiescent: every survivor's completion is on the record.
        wait_until(lambda: len({e.trace_id for e
                                in GLOBAL_FLIGHT.events("write-complete")})
                   >= REQUESTS - 1,
                   message="survivors' write-complete events never landed")

        # One snapshot, then stop looking at the server: the
        # reconstruction below reads only files and the exporters'
        # record lists.
        GLOBAL_FLIGHT.snapshot("probe", directory=str(probe_dir))
        exported = [record for shard in shards
                    for record in shard.observability.exporter.records()]

    events = load_events(probe_dir)

    # The injected fault is on the record, naming its victim trace.
    faults = [e for e in events if e.category == "fault"]
    assert len(faults) == 1
    assert "handle" in faults[0].detail and "crash" in faults[0].detail
    victim = faults[0].trace_id
    assert victim != 0

    accepts = {e.trace_id for e in events if e.category == "accept"}
    completed = {e.trace_id for e in events
                 if e.category == "write-complete"}
    assert len(accepts) == REQUESTS
    assert victim in accepts and victim not in completed
    assert len(completed) == REQUESTS - 1

    # The victim's reconstructed path: accepted, placed on a shard,
    # dispatched to a worker, through decode, into handle — where the
    # fault fired — and never out.
    path = reconstruct_path(victim, events)
    assert [e.category for e in path] == [
        "accept", "adopt", "dispatch",
        "stage-enter", "stage-exit",      # decode
        "stage-enter",                    # handle...
        "fault"]                          # ...which crashed the worker
    assert path[3].detail == "decode" and path[5].detail == "handle"
    assert path[1].detail.startswith("shard=")

    # A survivor's path tells the whole five-step story through to the
    # flushed reply — on the same shard the adopt event names.
    survivor = sorted(completed)[0]
    path = reconstruct_path(survivor, events)
    assert [e.category for e in path] == [
        "accept", "adopt", "dispatch",
        "stage-enter", "stage-exit",      # decode
        "stage-enter", "stage-exit",      # handle
        "stage-enter", "stage-exit",      # encode
        "write-complete"]
    assert [e.detail for e in path[3:9]] == [
        "decode", "decode", "handle", "handle", "encode", "encode"]

    # The exporter agrees: one finished span per accepted request, the
    # victim's span cut short before encode, the survivors' complete.
    assert {record["trace_id"] for record in exported} == accepts
    by_trace = {record["trace_id"]: record for record in exported}
    victim_stages = [s["stage"] for s in by_trace[victim]["stages"]]
    assert "encode" not in victim_stages and "handle" in victim_stages
    survivor_stages = [s["stage"] for s in by_trace[survivor]["stages"]]
    assert survivor_stages == ["decode", "handle", "encode"]
