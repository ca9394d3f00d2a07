"""The multi-reactor sharding layer: placement policies (unit),
placement totality (property), and generated O14>1 servers end-to-end
over real sockets — including the cross-shard drain barrier."""

import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from harness import ServerFixture, generated_server, wait_until
from repro import obs
from repro.obs.flight import GLOBAL as GLOBAL_FLIGHT
from repro.runtime import (
    ConnectionHashPolicy,
    LeastConnectionsPolicy,
    RoundRobinPolicy,
    ServerHooks,
    make_shard_policy,
)

#: synchronous completions: no file-I/O pool the tests never use
SYNC = {"O4": "Synchronous"}


class FakeHandle:
    """The only part of a handle a policy may look at: the peer name."""

    def __init__(self, name=""):
        self.name = name


class UpperHooks(ServerHooks):
    def decode(self, raw, conn):
        return raw.strip().decode()

    def handle(self, request, conn):
        return request.upper()

    def encode(self, result, conn):
        return result.encode() + b"\n"


# -- policy units ----------------------------------------------------------

def test_round_robin_strict_rotation():
    policy = RoundRobinPolicy(4)
    picks = [policy.pick(FakeHandle()) for _ in range(10)]
    assert picks == [0, 1, 2, 3, 0, 1, 2, 3, 0, 1]


def test_connection_hash_affinity_is_stable():
    policy = ConnectionHashPolicy(4)
    expected = zlib.crc32(b"10.0.0.7") % 4
    # Same client host, different ephemeral ports: same shard, and the
    # shard is the CRC32 bucket (stable across processes, unlike hash()).
    assert policy.pick(FakeHandle("10.0.0.7:1234")) == expected
    assert policy.pick(FakeHandle("10.0.0.7:9999")) == expected
    # A handle with no peer name still lands on exactly one shard.
    assert 0 <= policy.pick(FakeHandle("")) < 4


def test_least_connections_tracks_churn():
    counts = [3, 1, 2]
    policy = LeastConnectionsPolicy(
        3, loads=[lambda i=i: counts[i] for i in range(3)])
    assert policy.pick(FakeHandle()) == 1
    counts[1] = 5                        # shard 1 fills up...
    assert policy.pick(FakeHandle()) == 2
    counts[0] = counts[2] = 0            # ...ties go to the lowest id
    assert policy.pick(FakeHandle()) == 0


def test_make_shard_policy_factory():
    assert isinstance(make_shard_policy("round-robin", 2), RoundRobinPolicy)
    assert isinstance(make_shard_policy("hash", 2), ConnectionHashPolicy)
    assert isinstance(
        make_shard_policy("least-connections", 2, loads=[int, int]),
        LeastConnectionsPolicy)
    with pytest.raises(ValueError):
        make_shard_policy("least-connections", 2)   # needs load probes
    with pytest.raises(ValueError):
        make_shard_policy("power-of-two", 2)


# -- placement totality (property) -----------------------------------------

@settings(deadline=None)
@given(
    shard_count=st.integers(min_value=1, max_value=8),
    peers=st.lists(st.from_regex(r"[0-9]{1,3}\.[0-9]{1,3}\.[0-9]{1,3}"
                                 r"\.[0-9]{1,3}:[0-9]{1,5}", fullmatch=True),
                   max_size=50),
    policy_name=st.sampled_from(["round-robin", "least-connections",
                                 "connection-hash"]),
)
def test_every_connection_lands_on_exactly_one_shard(shard_count, peers,
                                                     policy_name):
    """The placement invariant behind ``accepted_per_shard``: each pick
    is one in-range index, so the per-shard counts always sum to the
    number of connections — under churn, for every policy."""
    counts = [0] * shard_count
    policy = make_shard_policy(
        policy_name, shard_count,
        loads=[lambda i=i: counts[i] for i in range(shard_count)])
    for peer in peers:
        index = policy.pick(FakeHandle(peer))
        assert isinstance(index, int) and 0 <= index < shard_count
        counts[index] += 1
    assert sum(counts) == len(peers)
    if policy_name == "round-robin":
        assert max(counts) - min(counts) <= 1


# -- the generated sharded server over real sockets -------------------------

def test_sharded_server_round_robin_placement_and_serving():
    GLOBAL_FLIGHT.clear()
    server = generated_server(UpperHooks(), dict(SYNC, O11=True, O14=4))
    with ServerFixture(server) as srv:
        for i in range(8):
            assert srv.request(f"word{i}\n".encode()) == \
                f"WORD{i}\n".encode().upper()
        sharding = server.sharding
        wait_until(lambda: sum(sharding.accepted_per_shard) == 8,
                   message=f"placed {sharding.accepted_per_shard}")
        # Sequential connections under round-robin: perfectly uniform,
        # and the adopt events on the flight record agree with the
        # accept loop's own bookkeeping.
        assert sharding.accepted_per_shard == [2, 2, 2, 2]
        adopted = [0] * 4
        for event in GLOBAL_FLIGHT.events("adopt"):
            adopted[int(event.detail.split()[0].split("=")[1])] += 1
        assert adopted == [2, 2, 2, 2]
        assert [shard.shard_id for shard in sharding.shards] == [0, 1, 2, 3]


def test_connection_hash_sends_one_client_to_one_shard():
    server = generated_server(UpperHooks(), dict(SYNC, O14=4),
                              shard_policy="connection-hash")
    with ServerFixture(server) as srv:
        for i in range(6):
            assert srv.request(b"hi\n") == b"HI\n"
        sharding = server.sharding
        wait_until(lambda: sum(sharding.accepted_per_shard) == 6,
                   message=f"placed {sharding.accepted_per_shard}")
        # All connections come from 127.0.0.1 — affinity puts every one
        # of them on the same single shard.
        assert sorted(sharding.accepted_per_shard) == [0, 0, 0, 6]


def test_drain_quiesces_every_shard():
    server = generated_server(UpperHooks(), dict(SYNC, O13=True, O14=2),
                              drain_timeout=5.0)
    with ServerFixture(server) as srv:
        for _ in range(6):
            assert srv.request(b"x\n") == b"X\n"
        assert server.drain() is True
        srv.mark_stopped()
        shards = server.sharding.shards
        assert all(shard.resilience.quiescent() for shard in shards)
        assert sum(len(shard.container) for shard in shards) == 0


def test_sharded_status_fields_are_complete_and_aggregate_once():
    """The ?auto completeness contract: every scalar a shard registers
    appears exactly once in the aggregate section (summed — averaged
    for rates) and once per shard under a ``shard="i"`` label,
    including the O15 buffer-pool hit-rate gauge."""
    import math

    #: Apache-style fields derived from the aggregates; a shard's own
    #: copy of these must NOT leak into the per-shard section
    derived = {"Total Accesses", "Total Connections", "BusyWorkers",
               "CacheHitRate", "Uptime", "Total kBytes", "ReqPerSec",
               "BytesPerSec"}
    # status_fields() samples every shard itself; a timer tick between
    # the aggregate and the per-shard reads would skew the comparison
    server = generated_server(
        UpperHooks(), dict(SYNC, O11=True, O14=2, O15="zerocopy"),
        obs_sample_interval=3600.0)
    with ServerFixture(server) as srv:
        for _ in range(4):
            assert srv.request(b"z\n") == b"Z\n"
        sharding = server.sharding
        wait_until(lambda: sum(sharding.accepted_per_shard) == 4,
                   message=f"placed {sharding.accepted_per_shard}")
        wait_until(lambda: sum(len(shard.container)
                               for shard in sharding.shards) == 0,
                   message="connections still closing")

        fields = sharding.status_fields()
        keys = [key for key, _value in fields]
        assert len(keys) == len(set(keys)), "duplicate status keys"
        field_map = dict(fields)

        per_shard = [dict(obs.status_fields(shard.observability.registry))
                     for shard in sharding.shards]
        scalar_keys = [key for key in per_shard[0]
                       if key not in derived
                       and not key.rsplit("-", 1)[-1] in
                       ("count", "p50", "p90", "p99")]
        assert "server_buffer_pool_hit_rate" in scalar_keys

        for key in scalar_keys:
            # once per shard, re-labelled...
            for index in range(len(sharding.shards)):
                if "{" in key:
                    close = key.index("}")
                    labelled = (key[:close] + f',shard="{index}"'
                                + key[close:])
                else:
                    labelled = key + f'{{shard="{index}"}}'
                assert labelled in field_map, labelled
            # ...and exactly once at the aggregate level: the sum of
            # the per-shard values, except rates, which average.
            values = [float(shard_fields[key])
                      for shard_fields in per_shard]
            expected = (sum(values) / len(values) if "rate" in key
                        else sum(values))
            assert math.isclose(float(field_map[key]), expected,
                                rel_tol=1e-6, abs_tol=1e-9), key

        # Histogram quantiles stay per-shard only (they do not merge).
        for index in range(len(sharding.shards)):
            assert (f'server_request_seconds{{shard="{index}"}}-count'
                    in field_map)
        assert "server_request_seconds-count" not in field_map
        # The pool hit rate is a rate: averaged, so still within [0, 1].
        assert 0.0 <= float(
            field_map["server_buffer_pool_hit_rate"]) <= 1.0


def test_sharded_status_fields_aggregate_per_shard():
    server = generated_server(UpperHooks(), dict(SYNC, O11=True, O14=2))
    with ServerFixture(server) as srv:
        for _ in range(4):
            assert srv.request(b"y\n") == b"Y\n"
        sharding = server.sharding
        wait_until(lambda: sum(sharding.accepted_per_shard) == 4,
                   message=f"placed {sharding.accepted_per_shard}")
        fields = dict(sharding.status_fields())
        assert fields["Shards"] == "2"
        assert float(fields["server_connections_accepted_total"]) == 4
        per_shard = [k for k in fields if 'shard="' in k]
        assert per_shard, "no per-shard labelled fields in the report"
        report = server.reactor.observability.status_report(auto=True)
        assert "Shards: 2" in report
