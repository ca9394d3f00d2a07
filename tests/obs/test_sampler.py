"""Tests for the periodic gauge sampler."""

import pytest

from repro.obs import MetricsRegistry, PeriodicSampler


def test_interval_must_be_positive():
    with pytest.raises(ValueError):
        PeriodicSampler(MetricsRegistry(), interval=0)


def test_sample_copies_probe_values():
    reg = MetricsRegistry()
    sampler = PeriodicSampler(reg)
    depth = {"n": 3}
    gauge = sampler.add_probe("queue_depth", lambda: depth["n"])
    sampler.sample()
    assert gauge.value == 3.0
    depth["n"] = 7
    sampler.sample()
    assert reg.value("queue_depth") == 7.0


def test_probe_exception_keeps_last_value():
    reg = MetricsRegistry()
    sampler = PeriodicSampler(reg)
    state = {"boom": False}

    def probe():
        if state["boom"]:
            raise RuntimeError("probe died")
        return 5

    sampler.add_probe("g", probe)
    sampler.sample()
    state["boom"] = True
    sampler.sample()                       # must not raise
    assert reg.value("g") == 5.0


def test_none_return_skips_tick():
    reg = MetricsRegistry()
    sampler = PeriodicSampler(reg)
    value = {"v": 9}
    sampler.add_probe("g", lambda: value["v"])
    sampler.sample()
    value["v"] = None
    sampler.sample()
    assert reg.value("g") == 9.0


def test_ticks_counter_increments():
    reg = MetricsRegistry()
    sampler = PeriodicSampler(reg)
    sampler.sample()
    sampler.sample()
    assert reg.value("server_sampler_ticks_total") == 2
