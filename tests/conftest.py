"""Shared pytest wiring for the test tree.

Puts ``tests/`` itself on ``sys.path`` so every test file can import
the deterministic concurrency harness as ``harness`` (see
``tests/harness/__init__.py``), and exposes its :class:`FakeClock`
as a fixture.
"""

import os
import sys

sys.path.insert(0, os.path.dirname(__file__))

import pytest  # noqa: E402
from hypothesis import settings  # noqa: E402

from harness import FakeClock  # noqa: E402

# Reproducible property tests in CI: derandomize makes hypothesis
# derive examples from the test body alone (fixed seed), so a red CI
# run is replayable locally with HYPOTHESIS_PROFILE=ci.
settings.register_profile("ci", deadline=None, derandomize=True,
                          print_blob=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture
def fake_clock():
    """A manually advanced monotonic clock (see ``harness.FakeClock``)."""
    return FakeClock()


def _poller_params():
    from repro.runtime import available_pollers
    have = available_pollers()
    return [
        pytest.param(name, marks=() if name in have else pytest.mark.skip(
            reason=f"{name} poller unavailable on this platform"))
        for name in ("select", "epoll")
    ]


@pytest.fixture(params=_poller_params())
def poller_backend(request, monkeypatch):
    """Parametrize a test over both readiness backends.

    Sets ``REPRO_POLLER`` so every ``SocketEventSource`` built while the
    test runs — including ones inside generated frameworks — picks the
    requested backend.  The ``epoll`` parameter is skipped on platforms
    without ``select.epoll``; ``select`` always runs and is the oracle.
    """
    monkeypatch.setenv("REPRO_POLLER", request.param)
    return request.param


@pytest.fixture(autouse=True)
def race_detector():
    """Ambient Eraser lockset detector, gated on ``REPRO_RACE_DETECTOR``.

    With ``REPRO_RACE_DETECTOR=1`` (the dedicated CI job) every test
    runs under an installed :class:`repro.lint.locks.RaceDetector`:
    the runtime's annotated shared fields feed the Eraser state machine
    and any candidate race not suppressed by ``lint-baseline.toml``
    fails the test with both conflicting stacks.  Without the variable
    the fixture yields ``None`` and the suite pays one env lookup.
    """
    if not os.environ.get("REPRO_RACE_DETECTOR"):
        yield None
        return
    from repro.lint.baseline import find_baseline
    from repro.lint.locks import RaceDetector, active_detector
    if active_detector() is not None:
        # a test (or nested fixture) manages its own detector
        yield None
        return
    detector = RaceDetector()
    detector.install()
    try:
        yield detector
    finally:
        detector.uninstall()
        findings = detector.findings(baseline=find_baseline())
        if findings:
            pytest.fail(
                "race detector found unsuppressed candidate races:\n"
                + "\n".join(f.render() for f in findings))
