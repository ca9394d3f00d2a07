"""Simulation-level tests for the O17 degradation plane.

The sim's event-driven server runs the *real* runtime classes
(SheddingPolicy, ClientRateLimiter, SojournQueue) on the simulated
clock — these tests drive small deterministic overload scenarios and
check the explicit-rejection plumbing end to end: server decisions,
client-visible markers, and testbed accounting.
"""

import pytest

from repro.sim.testbed import TestbedConfig, TestbedResult, run_testbed


def _overload_config(**overrides):
    base = dict(
        server="cops", clients=64,
        duration=6.0, warmup=2.0,
        decode_extra_cpu=0.050,       # the Fig 6 CPU bottleneck
        overload=True, overload_high=20, overload_low=5,
        degradation=True,
        goodput_deadline=0.5,
    )
    base.update(overrides)
    return TestbedConfig(**base)


def test_degradation_requires_overload_control():
    """The template's option constraint (O17 -> O9) holds in the sim."""
    with pytest.raises(ValueError, match="overload"):
        run_testbed(_overload_config(overload=False))


def test_degradation_only_modelled_for_event_driven():
    with pytest.raises(ValueError, match="event-driven"):
        run_testbed(_overload_config(server="apache"))


def test_sheds_are_explicit_and_accounted():
    result = run_testbed(_overload_config())
    # deep overload: the plane made explicit decisions...
    assert result.shed_total > 0
    assert result.rejected_connections > 0
    # ...and each rejection is consistent accounting, not silence:
    # every shed the policy recorded maps to a rejected connection or
    # a sojourn-dropped request
    assert result.shed_total >= (result.rejected_connections
                                 + result.rejected_requests)
    # goodput can never exceed throughput (it is the subset of
    # responses that met the client deadline)
    assert 0.0 < result.goodput <= result.throughput + 1e-9


def test_explicit_rejection_beats_silent_postpone():
    """At the same deep overload, O17's cheap 503s keep clients inside
    the deadline where O9's silent postpone strands them (the cliff)."""
    shedding = run_testbed(_overload_config())
    postponing = run_testbed(_overload_config(degradation=False))
    assert shedding.goodput > 2.0 * postponing.goodput
    # throughput itself is NOT sacrificed (Fig 6's observation)
    assert shedding.throughput > 0.8 * postponing.throughput
    # the postpone build waits in the kernel backlog instead
    assert postponing.connect_wait_mean > shedding.connect_wait_mean


def test_light_load_sheds_nothing():
    """Below the watermarks the plane is invisible: no rejections, and
    goodput equals throughput because every response is fast."""
    result = run_testbed(_overload_config(
        clients=2, decode_extra_cpu=0.0, duration=4.0, warmup=1.0))
    assert result.shed_total == 0
    assert result.rejected_connections == 0
    assert result.rejected_requests == 0
    assert result.goodput == pytest.approx(result.throughput)


def test_result_fields_round_trip():
    result = run_testbed(_overload_config(duration=3.0, warmup=1.0))
    assert isinstance(result, TestbedResult)
    assert result.config.degradation
    assert result.shed_total >= 0 and result.syn_drops >= 0
