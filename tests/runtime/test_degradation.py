"""Unit tests for the O17 graceful-degradation primitives.

The classes under test are exactly what both the generated O17
``Degradation`` component and the simulation testbed run — everything
is clock-injectable, so these tests drive them deterministically with a
hand-rolled fake clock.
"""

import pytest

from repro.obs.flight import FlightRecorder
from repro.runtime.degradation import (
    REASON_MAX_CONNECTIONS,
    REASON_OVERLOAD,
    REASON_RATE_LIMIT,
    CircuitBreaker,
    CircuitOpenError,
    ClientRateLimiter,
    RetryBudget,
    ShedDecision,
    SheddingPolicy,
    SojournQueue,
    hill_climb,
    reject_handle,
    rejection_response,
)
from repro.runtime.overload import OverloadController, Watermark
from repro.runtime.scheduler import FifoEventQueue


class Clock:
    def __init__(self, now=0.0):
        self.now = now

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


# -- the cheap rejection write path ---------------------------------------

def test_rejection_response_shape():
    payload = rejection_response(retry_after=2.4, reason="rate-limit")
    head, _, body = payload.partition(b"\r\n\r\n")
    lines = head.split(b"\r\n")
    assert lines[0] == b"HTTP/1.1 503 Service Unavailable"
    assert b"Retry-After: 2" in lines
    assert b"Connection: close" in lines
    assert b"X-Shed-Reason: rate-limit" in lines
    assert b"Content-Length: %d" % len(body) in lines


def test_rejection_response_retry_after_floor():
    # sub-second retry hints still render a valid non-zero header
    assert b"Retry-After: 1\r\n" in rejection_response(retry_after=0.05)
    # no reason -> no X-Shed-Reason header at all
    assert b"X-Shed-Reason" not in rejection_response()


class FakeHandle:
    def __init__(self):
        self.out_buffer = b""
        self.sends = 0
        self.closed = False

    def write(self, segments):
        self.out_buffer += b"".join(segments)
        self.sends += 1

    def close(self):
        self.closed = True


def test_reject_handle_flushes_and_closes():
    handle = FakeHandle()
    reject_handle(handle, b"503!")
    assert handle.out_buffer == b"503!"
    assert handle.sends == 1 and handle.closed


def test_reject_handle_empty_payload_closes_silently():
    handle = FakeHandle()
    reject_handle(handle, b"")
    assert handle.sends == 0 and handle.closed


# -- per-client rate limiting ---------------------------------------------

def test_rate_limiter_is_per_client():
    clock = Clock()
    limiter = ClientRateLimiter(rate=1.0, burst=2.0, clock=clock)
    assert limiter.allow("a") and limiter.allow("a")
    assert not limiter.allow("a")        # a's burst is spent
    assert limiter.allow("b")            # b starts with a full burst
    clock.advance(1.0)
    assert limiter.allow("a")            # one token refilled
    assert limiter.allowed == 4 and limiter.rejected == 1


def test_rate_limiter_lru_bound():
    limiter = ClientRateLimiter(rate=1.0, burst=1.0, max_clients=3,
                                clock=Clock())
    for i in range(10):
        limiter.allow(f"client-{i}")
    assert limiter.clients == 3
    # a forgotten client comes back with a fresh burst, not its old
    # (empty) bucket
    assert limiter.allow("client-0")


# -- the shedding policy --------------------------------------------------

def _tripped_overload(max_connections=None):
    """An OverloadController with its single watermark latched."""
    length = {"n": 100}
    controller = OverloadController(max_connections=max_connections)
    controller.watch("reactive", lambda: length["n"],
                     Watermark(high=20, low=5))
    assert not controller.accepting()    # trips the latch
    return controller, length


def test_shedding_admits_when_unconstrained():
    policy = SheddingPolicy(flight=FlightRecorder(capacity=16))
    assert policy.admit_accept().admitted
    assert policy.admit_client("anyone").admitted
    assert policy.shed_total == 0


def test_shedding_rejects_on_overload_with_reason():
    controller, _ = _tripped_overload()
    flight = FlightRecorder(capacity=16)
    policy = SheddingPolicy(overload=controller, retry_after=3.0,
                            flight=flight)
    decision = policy.admit_accept()
    assert decision.action == "reject"
    assert decision.reason == REASON_OVERLOAD
    assert decision.retry_after == 3.0
    # the caller accounts the rejection once the accept happened
    policy.record_rejection(decision, "client=1.2.3.4", trace_id=7)
    assert policy.shed_total == 1
    assert policy.shed_by_reason() == {REASON_OVERLOAD: 1}
    (event,) = flight.events(category="shed")
    assert "reason=overload" in event.detail
    assert "client=1.2.3.4" in event.detail
    assert event.trace_id == 7


def test_shedding_reason_prefers_connection_cap():
    controller = OverloadController(max_connections=1)
    controller.connection_opened()
    policy = SheddingPolicy(overload=controller,
                            flight=FlightRecorder(capacity=16))
    assert policy.admit_accept().reason == REASON_MAX_CONNECTIONS


def test_shedding_postpone_mode_keeps_paper_behaviour():
    controller, _ = _tripped_overload()
    policy = SheddingPolicy(overload=controller, on_overload="postpone",
                            flight=FlightRecorder(capacity=16))
    decision = policy.admit_accept()
    assert decision.action == "postpone" and not decision.admitted
    # postpone decisions self-account (there is no later accept)
    assert policy.shed_total == 1


def test_shedding_rejects_invalid_mode():
    with pytest.raises(ValueError):
        SheddingPolicy(on_overload="drop-on-floor")


def test_shedding_rate_limit_gate():
    policy = SheddingPolicy(
        limiter=ClientRateLimiter(rate=1.0, burst=1.0, clock=Clock()),
        flight=FlightRecorder(capacity=16))
    assert policy.admit_client("1.2.3.4").admitted
    decision = policy.admit_client("1.2.3.4")
    assert decision.action == "reject"
    assert decision.reason == REASON_RATE_LIMIT
    assert policy.shed_by_reason() == {REASON_RATE_LIMIT: 1}
    assert policy.admit_client("5.6.7.8").admitted  # fairness


def test_shedding_status_snapshot():
    policy = SheddingPolicy(
        limiter=ClientRateLimiter(rate=1.0, burst=1.0, clock=Clock()),
        flight=FlightRecorder(capacity=16))
    policy.admit_client("a")
    policy.admit_client("a")
    status = policy.status()
    assert status["shed_total"] == 1
    assert status["rate_limited_clients"] == 1
    assert status["rate_limit_rejections"] == 1
    assert status["on_overload"] == "reject"


# -- CoDel-style sojourn dropping -----------------------------------------

def test_sojourn_queue_passes_fresh_work():
    clock = Clock()
    q = SojournQueue(FifoEventQueue(), deadline=0.5, interval=0.1,
                     clock=clock)
    q.push("a")
    q.push("b")
    assert len(q) == 2
    assert q.try_pop() == "a"
    assert q.pop(timeout=0.01) == "b"
    assert q.dropped == 0


def test_sojourn_queue_interval_grace_then_drops():
    clock = Clock()
    dropped = []
    q = SojournQueue(FifoEventQueue(), deadline=0.5, interval=0.1,
                     on_drop=lambda item, sojourn: dropped.append(item),
                     clock=clock)
    for item in ("a", "b", "c"):
        q.push(item)
    clock.advance(1.0)                   # all three are now stale
    # CoDel grace: the first stale pop only starts the interval timer
    assert q.try_pop() == "a"
    # still inside the interval: stale work continues to pass
    clock.advance(0.05)
    assert q.try_pop() == "b"
    # interval expired with sojourn still above deadline: drop begins;
    # the drop is consumed internally and the pop returns queue-empty
    clock.advance(0.1)
    assert q.try_pop() is None
    assert dropped == ["c"] and q.dropped == 1


def test_sojourn_queue_fresh_item_resets_control_law():
    clock = Clock()
    q = SojournQueue(FifoEventQueue(), deadline=0.5, interval=0.1,
                     clock=clock)
    q.push("stale")
    clock.advance(1.0)
    assert q.try_pop() == "stale"        # starts the interval
    q.push("fresh")
    clock.advance(0.2)                   # interval long expired...
    assert q.try_pop() == "fresh"        # ...but this item is young
    q.push("stale-2")
    clock.advance(1.0)
    assert q.try_pop() == "stale-2"      # law restarted: grace again


def test_sojourn_queue_droppable_filter_protects_control_items():
    clock = Clock()
    dropped = []
    q = SojournQueue(
        FifoEventQueue(), deadline=0.5, interval=0.0,
        on_drop=lambda item, sojourn: dropped.append(item),
        droppable=lambda item: item != "retire-pill",
        clock=clock)
    q.push("retire-pill")
    q.push("doomed-a")
    q.push("doomed-b")
    clock.advance(10.0)
    # the control message passes however stale; request work drops
    # (interval=0 means the grace period is a single pop)
    assert q.pop(timeout=0.01) == "retire-pill"
    assert q.pop(timeout=0.01) == "doomed-a"   # grace pop
    assert q.pop(timeout=0.01) is None
    assert dropped == ["doomed-b"]


def test_sojourn_queue_validates_deadline_and_forwards_lifecycle():
    with pytest.raises(ValueError):
        SojournQueue(FifoEventQueue(), deadline=0.0)
    q = SojournQueue(FifoEventQueue(), deadline=1.0)
    assert not q.closed
    q.close()
    assert q.closed


# -- circuit breaker / retry budget ---------------------------------------

def test_breaker_call_wraps_success_and_failure():
    clock = Clock()
    breaker = CircuitBreaker(failure_threshold=2, recovery_time=1.0,
                             clock=clock)
    assert breaker.call(lambda: "ok") == "ok"
    for _ in range(2):
        with pytest.raises(KeyError):
            breaker.call(lambda: (_ for _ in ()).throw(KeyError("x")))
    assert breaker.state == CircuitBreaker.OPEN
    with pytest.raises(CircuitOpenError):
        breaker.call(lambda: "ok")
    assert breaker.trips == 1 and breaker.rejected == 1
    clock.advance(1.0)
    assert breaker.call(lambda: "ok") == "ok"    # the probe
    assert breaker.state == CircuitBreaker.CLOSED


def test_breaker_success_resets_consecutive_failures():
    breaker = CircuitBreaker(failure_threshold=3, clock=Clock())
    breaker.record_failure()
    breaker.record_failure()
    breaker.record_success()             # streak broken
    breaker.record_failure()
    breaker.record_failure()
    assert breaker.state == CircuitBreaker.CLOSED
    assert breaker.status()["failures"] == 2


def test_retry_budget_bounds_amplification():
    budget = RetryBudget(ratio=0.25, min_retries=1.0, cap=5.0)
    assert budget.can_retry()            # the cold-start allowance
    assert not budget.can_retry()        # now empty
    for _ in range(4):
        budget.record_request()          # deposits 4 * 0.25 = 1 token
    assert budget.can_retry()
    assert not budget.can_retry()
    assert budget.withdrawals == 2 and budget.refusals == 2
    for _ in range(200):
        budget.record_request()
    assert budget.balance == 5.0         # capped


def test_retry_budget_validates_ratio():
    with pytest.raises(ValueError):
        RetryBudget(ratio=1.5)


# -- offline watermark search ---------------------------------------------

def test_hill_climb_finds_concave_peak():
    evaluations = []

    def evaluate(x):
        evaluations.append(x)
        return -(x - 37) ** 2

    best, score = hill_climb(evaluate, initial=20, lo=4, hi=128,
                             budget=32)
    assert best == 37 and score == 0
    assert len(set(evaluations)) == len(evaluations)  # cache: no repeats


def test_hill_climb_validates_initial():
    with pytest.raises(ValueError):
        hill_climb(lambda x: 0.0, initial=0, lo=4, hi=8)
