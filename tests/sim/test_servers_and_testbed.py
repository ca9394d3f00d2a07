"""Tests for the simulated server models and the testbed harness.

These use short simulated durations — behaviour and invariants, not the
full calibrated sweeps (those are the benchmarks' job).
"""

import pytest

from repro.sim.testbed import TestbedConfig, run_testbed


def quick(server, clients=16, **kw):
    defaults = dict(duration=8.0, warmup=2.0, start_stagger=1.0)
    defaults.update(kw)
    return run_testbed(TestbedConfig(server=server, clients=clients,
                                     **defaults))


@pytest.mark.parametrize("server", ["cops", "apache"])
def test_every_model_serves_requests(server):
    r = quick(server)
    assert r.total_responses > 0
    assert r.throughput > 0


def test_unknown_server_rejected():
    for server in ("iis", "sped", "mped", "seda", "cluster"):
        with pytest.raises(ValueError, match="unknown server model"):
            run_testbed(TestbedConfig(server=server))


def test_throughput_grows_with_clients_under_light_load():
    r4 = quick("cops", clients=4)
    r16 = quick("cops", clients=16)
    assert r16.throughput > 2.5 * r4.throughput


def test_closed_loop_light_load_rate():
    """At light load a client completes ~1/(think+wan+latency) req/s."""
    r = quick("cops", clients=2, duration=10.0)
    per_client = r.throughput / 2
    assert 4.0 < per_client < 7.5


def test_fairness_is_one_when_unsaturated():
    r = quick("apache", clients=8)
    assert r.fairness > 0.98


def test_apache_worker_cap_limits_concurrency():
    r = quick("apache", clients=64, apache_workers=2, duration=10.0)
    r_full = quick("apache", clients=64, duration=10.0)
    assert r.throughput < r_full.throughput * 0.6


def test_apache_unfair_when_clients_exceed_capacity():
    r = quick("apache", clients=96, apache_workers=4, backlog=4,
              duration=20.0, warmup=4.0)
    assert r.syn_drops > 0
    assert r.fairness < 0.9


def test_cops_accepts_everyone():
    r = quick("cops", clients=96, duration=15.0)
    assert r.syn_drops == 0
    assert r.fairness > 0.95


def test_cops_cache_hits_accumulate():
    r = quick("cops", clients=16)
    assert r.cache_hit_rate is not None and r.cache_hit_rate > 0.1


def test_cache_disabled_when_policy_none():
    r = quick("cops", clients=8, cache_policy=None)
    assert r.cache_hit_rate is None
    assert r.total_responses > 0


def test_os_buffer_hit_rate_reported():
    r = quick("apache", clients=16)
    assert 0.0 <= r.os_buffer_hit_rate <= 1.0


def test_scheduling_quotas_shift_throughput():
    classes = {i: ("portal" if i < 16 else "home") for i in range(32)}
    cfg = TestbedConfig(
        server="cops", clients=32, duration=10.0, warmup=2.0,
        start_stagger=1.0, cache_policy=None,
        processor_threads=1, decode_extra_cpu=0.02,  # queue is the bottleneck
        client_classes=classes,
        class_priorities={"portal": 1, "home": 0},
        scheduling_quotas={1: 4, 0: 1},
    )
    r = run_testbed(cfg)
    portal = r.class_throughput.get("portal", 0)
    home = r.class_throughput.get("home", 0)
    assert portal > 1.8 * home


def test_overload_control_bounds_response_time():
    base = dict(duration=12.0, warmup=3.0, start_stagger=1.0,
                decode_extra_cpu=0.05, clients=64)
    no_ctl = run_testbed(TestbedConfig(server="cops", overload=False, **base))
    ctl = run_testbed(TestbedConfig(server="cops", overload=True, **base))
    assert ctl.response_mean < 0.75 * no_ctl.response_mean
    assert ctl.throughput > 0.85 * no_ctl.throughput  # not degraded


def test_determinism_same_seed_same_result():
    a = quick("cops", clients=12, seed=7)
    b = quick("cops", clients=12, seed=7)
    assert a.total_responses == b.total_responses
    assert a.throughput == b.throughput


def test_different_seed_different_trace():
    a = quick("cops", clients=12, seed=7)
    b = quick("cops", clients=12, seed=8)
    assert a.total_responses != b.total_responses or \
        a.response_mean != b.response_mean


def test_decode_sleep_caps_throughput():
    r = quick("cops", clients=64, decode_extra_cpu=0.05, duration=10.0)
    # 4 processor threads x 50 ms decode -> ~80 requests/s ceiling
    assert r.throughput < 95

