"""Unit tests for the resilience runtime: per-stage deadlines, worker
supervision, poison-event quarantine, hardened accept, idle-reaper
snapshot."""

import errno
import threading
import time
import types

import pytest

from harness import IdleConn, ServerFixture, generated_server, idle_container
from repro.faults import WorkerCrash
from repro.runtime import (
    DeadlineMonitor,
    DeadlinePolicy,
    EventProcessor,
    EventQuarantine,
    ServerHooks,
    UserEvent,
    WorkerSupervisor,
    available_pollers,
    is_transient_accept_error,
)

pytestmark = [pytest.mark.faults, pytest.mark.timeout(30)]


def wait_for(predicate, timeout=5.0, interval=0.005):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


# -- DeadlineMonitor ------------------------------------------------------------


class FakeConn:
    def __init__(self, name="c"):
        self.closed = False
        self.read_started = None
        self.write_blocked_since = None
        self.oldest = None
        self.handle = types.SimpleNamespace(name=name)

    def oldest_pending_started(self):
        return self.oldest

    def close(self):
        self.closed = True


def monitor_for(conns, now, **policy):
    """A monitor on the injected clock, watching every conn."""
    mon = DeadlineMonitor(DeadlinePolicy(**policy), clock=lambda: now[0])
    for conn in conns:
        mon.watch(conn)
    return mon


def test_header_deadline_closes_trickling_peer():
    now = [100.0]
    conn = FakeConn("slow")
    conn.read_started = 99.0      # first partial byte buffered at t=99
    mon = monitor_for([conn], now, header=2.0)
    assert mon.tick() == 0        # within budget
    now[0] = 101.5
    assert mon.tick() == 1
    assert conn.closed
    assert mon.reasons == {"header": 1, "request": 0, "write": 0}
    assert mon.timed_out == 1


def test_request_deadline_closes_stuck_handler():
    now = [10.0]
    conn = FakeConn("stuck")
    conn.oldest = 1.0             # request in flight since t=1
    mon = monitor_for([conn], now, request=5.0)
    now[0] += mon.wheel.tick      # already overdue: due on the next tick
    assert mon.tick() == 1
    assert mon.reasons["request"] == 1


def test_write_deadline_closes_non_reading_peer():
    now = [50.0]
    conn = FakeConn("deaf")
    conn.write_blocked_since = 10.0
    mon = monitor_for([conn], now, write=30.0)
    now[0] += mon.wheel.tick
    assert mon.tick() == 1
    assert mon.reasons["write"] == 1


def test_none_disables_a_stage():
    now = [1000.0]
    conn = FakeConn()
    conn.read_started = 0.0
    conn.write_blocked_since = 0.0
    conn.oldest = 0.0
    mon = monitor_for([conn], now, header=None, request=None, write=None)
    now[0] += mon.park_interval   # the parked recheck fires
    assert mon.tick() == 0
    assert not conn.closed


def test_healthy_and_closed_connections_untouched():
    now = [100.0]
    healthy = FakeConn("ok")                 # no stage stamps set
    gone = FakeConn("gone")
    gone.closed = True
    gone.read_started = 0.0                  # would violate if still open
    mon = monitor_for([healthy, gone], now, header=1.0)
    now[0] += mon.park_interval   # both timers fire
    assert mon.tick() == 0
    assert mon.timed_out == 0


# -- WorkerSupervisor -----------------------------------------------------------


def test_worker_crash_is_detected_and_replaced():
    processed = []

    def handler(event):
        if event.payload == "poison":
            raise WorkerCrash("injected")
        processed.append(event.payload)

    proc = EventProcessor(handler, threads=2, name="pool")
    proc.start()
    try:
        proc.submit(UserEvent(payload="poison"))
        assert wait_for(lambda: proc.worker_deaths == 1)
        assert wait_for(lambda: proc.thread_count == 1)

        sup = WorkerSupervisor(proc)
        assert sup.check() == 1               # pruned + replaced
        assert sup.restarts == 1
        assert proc.thread_count == 2
        assert isinstance(proc.last_death, WorkerCrash)

        proc.submit(UserEvent(payload="alive"))
        assert wait_for(lambda: processed == ["alive"])
    finally:
        proc.stop()


def test_supervisor_is_noop_after_stop():
    proc = EventProcessor(lambda e: None, threads=1)
    proc.start()
    proc.stop()
    sup = WorkerSupervisor(proc)
    assert sup.check() == 0
    assert sup.restarts == 0


# -- EventQuarantine ------------------------------------------------------------


def test_poison_event_retried_then_quarantined():
    attempts = []

    def handler(event):
        attempts.append(event.event_id)
        raise ValueError("still broken")

    proc = EventProcessor(handler, threads=1)
    quarantine = EventQuarantine.attach(proc, max_retries=2)
    proc.start()
    try:
        proc.submit(UserEvent(payload="poison"))
        assert wait_for(lambda: len(quarantine.quarantined) == 1)
        # Initial attempt + two retries, then quarantined — not forever.
        assert len(attempts) == 3
        assert quarantine.retries == 2
        event, exc = quarantine.quarantined[0]
        assert isinstance(exc, ValueError)
        time.sleep(0.05)
        assert len(attempts) == 3            # no further resubmission
    finally:
        proc.stop()


def test_attach_chains_existing_error_hook():
    seen = []

    def tracer_hook(event, exc):
        seen.append((event.payload, type(exc).__name__))

    proc = EventProcessor(
        lambda e: (_ for _ in ()).throw(ValueError("no")),
        threads=1, error_hook=tracer_hook)
    quarantine = EventQuarantine.attach(proc, max_retries=1)
    assert proc.error_hook is quarantine
    assert quarantine.fallback is tracer_hook
    proc.start()
    try:
        proc.submit(UserEvent(payload="p"))
        assert wait_for(lambda: len(quarantine.quarantined) == 1)
        # The chained hook saw the initial failure and the retry.
        assert seen == [("p", "ValueError"), ("p", "ValueError")]
    finally:
        proc.stop()


def test_distinct_events_tracked_separately():
    quarantine = EventQuarantine(max_retries=1, resubmit=lambda e: None)
    a, b = UserEvent(payload="a"), UserEvent(payload="b")
    boom = RuntimeError("x")
    quarantine(a, boom)
    quarantine(b, boom)
    assert quarantine.retries == 2 and not quarantine.quarantined
    quarantine(a, boom)
    assert [e.payload for e, _ in quarantine.quarantined] == ["a"]


# -- hardened accept loop --------------------------------------------------------


class FlakyListen:
    def __init__(self, errnos):
        self.errnos = list(errnos)
        self.calls = 0

    def fileno(self):
        # never registered: an EMFILE backoff's listener re-post
        # finds nothing to re-arm
        return -1

    def try_accept(self):
        self.calls += 1
        if self.errnos:
            raise OSError(self.errnos.pop(0), "injected")
        return None


def resilient_server():
    """A generated O13 echo server (no codec steps, synchronous
    completions) whose accept backoff is short enough for a test."""
    return generated_server(
        ServerHooks(), {"O3": False, "O4": "Synchronous", "O13": True},
        accept_backoff=0.01)


def test_transient_accept_error_classification():
    assert is_transient_accept_error(OSError(errno.ECONNABORTED, ""))
    assert is_transient_accept_error(OSError(errno.EINTR, ""))
    assert not is_transient_accept_error(OSError(errno.EMFILE, ""))
    assert not is_transient_accept_error(OSError(errno.ENFILE, ""))
    assert not is_transient_accept_error(ValueError())


def test_acceptor_survives_econnaborted_and_keeps_draining():
    with ServerFixture(resilient_server()) as srv:
        resilience = srv.server.reactor.resilience
        listen = FlakyListen([errno.ECONNABORTED, errno.ECONNABORTED])
        assert resilience.safe_accept(listen) is None   # must not raise
        assert resilience.accept_errors == 2
        assert listen.calls == 3   # two aborted retries + the final None


def test_acceptor_backs_off_on_emfile():
    with ServerFixture(resilient_server()) as srv:
        resilience = srv.server.reactor.resilience
        listen = FlakyListen([errno.EMFILE])
        assert resilience.safe_accept(listen) is None
        assert resilience.accept_errors == 1
        assert listen.calls == 1   # shed: no immediate retry
        resilience.safe_accept(listen)   # the next event drains normally
        assert listen.calls == 2


@pytest.mark.skipif("epoll" not in available_pollers(),
                    reason="epoll poller unavailable on this platform")
def test_emfile_backoff_reposts_listener_on_edge_triggered_build(
        monkeypatch):
    """On the epoll backend the accept edge is consumed by the failed
    accept(); without a re-post the queued client would wait for some
    *other* connection to arrive."""
    monkeypatch.setenv("REPRO_POLLER", "epoll")
    with ServerFixture(resilient_server()) as srv:
        assert srv.server.reactor.socket_source.edge_triggered
        listen = srv.server.reactor.server_component.listen
        accept = listen.try_accept
        failures = [errno.EMFILE]

        def flaky_accept():
            if failures:
                raise OSError(failures.pop(), "injected")
            return accept()

        listen.try_accept = flaky_accept
        client = srv.connect(timeout=3)
        try:
            client.sendall(b"ping\n")
            assert client.recv(4096) == b"ping\n"
        finally:
            client.close()
        assert not failures
        assert srv.server.reactor.resilience.accept_errors == 1


# -- idle reaper snapshot ---------------------------------------------------------


def test_reaper_scan_survives_concurrent_watch_unwatch():
    """reap_idle walks a snapshot of the container, so connections
    added and removed while it runs can never raise
    dictionary-changed-during-iteration."""
    container = idle_container(time.monotonic)
    for _ in range(50):
        IdleConn(container, last_activity=0.0)

    stop = threading.Event()
    errors = []

    def churn():
        try:
            while not stop.is_set():
                conn = IdleConn(container,
                                last_activity=time.monotonic() + 60)
                container.remove(conn)
        except Exception as exc:  # noqa: BLE001
            errors.append(exc)

    churner = threading.Thread(target=churn)
    churner.start()
    try:
        total = 0
        for _ in range(20):
            total += container.reap_idle(0.001)
    finally:
        stop.set()
        churner.join(timeout=5)
    assert not churner.is_alive()
    assert not errors
    assert total == 50


def test_reaper_on_idle_can_reenter_registry():
    """Closing a reaped connection tears it down, which removes it from
    the container mid-scan — reap_idle must tolerate the re-entry."""
    container = idle_container(time.monotonic)
    for _ in range(10):
        IdleConn(container, last_activity=0.0)
    assert container.reap_idle(0.001) == 10
    assert len(container) == 0
