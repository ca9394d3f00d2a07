"""The harness tested on itself: FakeClock driving real deadline logic
(the generated O7 idle reaper) without any wall-clock waiting,
wait_until's timeout/message contract, and the once-per-option-set
generation cache behind generated_server."""

import pytest

from harness import (FakeClock, IdleConn, generated_framework,
                     idle_container, wait_until)


def test_fake_clock_advances_only_on_demand(fake_clock):
    assert fake_clock() == 0.0
    fake_clock.advance(1.5)
    assert fake_clock.monotonic() == 1.5
    fake_clock.sleep(0.25)
    assert fake_clock() == 1.75
    assert fake_clock.sleeps == [0.25]
    with pytest.raises(ValueError):
        fake_clock.advance(-1)


def test_idle_reaper_deadline_logic_under_fake_clock(fake_clock):
    """The reaper's deadline arithmetic, tested in zero real time: a
    connection idles past the limit exactly when the fake clock says
    so — no scan threads, no sleeps, no tolerance windows."""
    container = idle_container(fake_clock)
    fresh, stale = IdleConn(container), IdleConn(container)

    fake_clock.advance(29.0)
    fresh.handle.last_activity = fake_clock()   # fresh keeps talking
    assert container.reap_idle(30.0) == 0       # 29s idle: under the limit

    fake_clock.advance(1.5)                     # stale is now 30.5s idle
    assert container.reap_idle(30.0) == 1
    assert stale.closed and not fresh.closed
    assert container.connections() == [fresh]   # fresh is still held


def test_wait_until_returns_and_raises():
    assert wait_until(lambda: True, timeout=0.1) is True
    assert wait_until(lambda: False, timeout=0.05) is False
    with pytest.raises(AssertionError, match="never happened"):
        wait_until(lambda: False, timeout=0.05, message="never happened")


def test_generated_framework_generates_each_option_set_once():
    first = generated_framework({"O4": "Synchronous", "O3": False})
    # the same option set — spelled with defaults made explicit — is
    # the same loaded package, not a regeneration
    assert generated_framework(
        {"O3": False, "O4": "Synchronous", "O13": False}) is first
    other = generated_framework({"O4": "Synchronous"})
    assert other is not first
    assert other.GENERATED_OPTIONS["O3"] is True
    assert first.GENERATED_OPTIONS["O3"] is False
