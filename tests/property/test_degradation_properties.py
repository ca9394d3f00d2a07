"""Property-based tests for the O17 degradation plane.

Invariants:

* token-bucket conformance: over any timing of requests, the number of
  allows never exceeds burst + rate * elapsed (the bucket's contract);
* watermark hysteresis never flaps: the controller's accept/postpone
  answer always matches a reference two-state latch;
* a half-open circuit breaker admits *exactly* its probe quota, closes
  only when every probe succeeds, and re-opens with a fresh recovery
  timer on any probe failure.
"""

from hypothesis import given, settings, strategies as st

from repro.runtime.degradation import CircuitBreaker, TokenBucket
from repro.runtime.overload import OverloadController, Watermark


# -- token bucket ---------------------------------------------------------

RATES = st.floats(min_value=0.1, max_value=50.0,
                  allow_nan=False, allow_infinity=False)
BURSTS = st.floats(min_value=1.0, max_value=40.0,
                   allow_nan=False, allow_infinity=False)
GAPS = st.lists(st.floats(min_value=0.0, max_value=2.0,
                          allow_nan=False, allow_infinity=False),
                min_size=1, max_size=200)


@given(rate=RATES, burst=BURSTS, gaps=GAPS)
@settings(max_examples=100, deadline=None)
def test_token_bucket_conformance(rate, burst, gaps):
    """Allows over any request timing stay within burst + rate * T."""
    bucket = TokenBucket(rate, burst, now=0.0)
    now = 0.0
    allowed = 0
    for gap in gaps:
        now += gap
        if bucket.allow(now):
            allowed += 1
    # Conservation: every allow spends one token; tokens only come from
    # the initial burst plus refill at `rate` over the elapsed time.
    assert allowed <= burst + rate * now + 1e-6
    # The bucket never goes negative and never exceeds its burst.
    assert -1e-9 <= bucket.tokens <= burst + 1e-9


@given(burst=st.integers(min_value=1, max_value=30))
@settings(max_examples=30, deadline=None)
def test_token_bucket_initial_burst_exact(burst):
    """With no time passing, exactly `burst` requests are admitted."""
    bucket = TokenBucket(rate=1.0, burst=float(burst), now=0.0)
    allows = [bucket.allow(0.0) for _ in range(burst + 5)]
    assert allows == [True] * burst + [False] * 5


# -- watermark hysteresis -------------------------------------------------

LENGTHS = st.lists(st.integers(min_value=0, max_value=60),
                   min_size=1, max_size=150)
MARKS = st.tuples(st.integers(min_value=0, max_value=20),
                  st.integers(min_value=1, max_value=30)).map(
    lambda pair: (pair[0], pair[0] + pair[1]))  # (low, high), low < high


@given(initial=MARKS, lengths=LENGTHS)
@settings(max_examples=100, deadline=None)
def test_hysteresis_matches_reference_latch(initial, lengths):
    """accepting() is exactly the two-state hysteresis latch."""
    low, high = initial
    queue_length = {"n": 0}
    controller = OverloadController()
    controller.watch("q", lambda: queue_length["n"],
                     Watermark(high=high, low=low))

    tripped = False  # the reference model's latch
    for length in lengths:
        queue_length["n"] = length
        accepted = controller.accepting()
        # reference: trip on length > high, clear on length < low,
        # hold state anywhere inside the band
        if tripped:
            if length < low:
                tripped = False
        elif length > high:
            tripped = True
        assert accepted == (not tripped)
        assert controller.overloaded_queues() == (["q"] if tripped else [])


@given(initial=MARKS, band_length=st.integers(min_value=0, max_value=60),
       checks=st.integers(min_value=1, max_value=20))
@settings(max_examples=60, deadline=None)
def test_hysteresis_no_flap_inside_band(initial, band_length, checks):
    """A length held anywhere in [low, high] never changes the answer."""
    low, high = initial
    length = max(low, min(high, band_length))  # clamp into the band
    queue_length = {"n": length}
    controller = OverloadController()
    controller.watch("q", lambda: queue_length["n"],
                     Watermark(high=high, low=low))
    first = controller.accepting()
    for _ in range(checks):
        assert controller.accepting() == first


# -- circuit breaker half-open probe quota --------------------------------

@given(threshold=st.integers(min_value=1, max_value=6),
       quota=st.integers(min_value=1, max_value=5),
       probes_succeed=st.booleans())
@settings(max_examples=80, deadline=None)
def test_breaker_half_open_exact_probe_quota(threshold, quota,
                                             probes_succeed):
    # 4.0 / 3.5 / 0.5 are all binary-exact, so the timer arithmetic
    # below is precise no matter how many trips accumulate
    clock = {"now": 0.0}
    breaker = CircuitBreaker(failure_threshold=threshold, recovery_time=4.0,
                             probe_quota=quota, clock=lambda: clock["now"])

    # trip it: exactly `threshold` consecutive failures
    for _ in range(threshold - 1):
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.CLOSED
    breaker.record_failure()
    assert breaker.state == CircuitBreaker.OPEN

    # open: refuses everything until the recovery timer expires
    clock["now"] += 3.5
    assert not breaker.allow()
    clock["now"] += 0.5

    # half-open: exactly `quota` probes pass, all excess is refused
    admitted = sum(1 for _ in range(quota + 10) if breaker.allow())
    assert admitted == quota
    assert breaker.state == CircuitBreaker.HALF_OPEN

    if probes_succeed:
        # every probe succeeds -> closed, and requests flow again
        for i in range(quota):
            assert breaker.state == CircuitBreaker.HALF_OPEN, i
            breaker.record_success()
        assert breaker.state == CircuitBreaker.CLOSED
        assert breaker.allow()
    else:
        # any probe failure -> re-open with a FRESH recovery timer
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.OPEN
        clock["now"] += 3.5
        assert not breaker.allow()      # old timer would have expired
        clock["now"] += 0.5
        assert breaker.allow()          # fresh timer has now expired
        assert breaker.state == CircuitBreaker.HALF_OPEN
