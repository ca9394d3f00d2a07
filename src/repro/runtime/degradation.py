"""Graceful-degradation plane (option O17 "Degradation policy").

The paper's O9 overload control is a binary accept/postpone latch over
static watermarks (Fig 6: high=20 / low=5): under a sustained storm the
server silently strands clients in the kernel backlog.  This module
replaces the silent postpone with *explicit decisions*:

* :class:`TokenBucket` / :class:`ClientRateLimiter` — per-client rate
  limiting so one aggressive client cannot starve the rest;
* :class:`SheddingPolicy` — the admission decision itself, returning a
  :class:`ShedDecision` with a machine-readable reason code that lands
  in the flight recorder (so ``reconstruct_path`` can explain why a
  connection never got a span);
* :class:`SojournQueue` — CoDel-style sojourn-deadline drops on an
  event queue: work that has already waited past its deadline is
  dropped at pop time instead of being served uselessly late (the sim
  testbed's event-driven server runs it);
* :class:`CircuitBreaker` / :class:`RetryBudget` — closed → open →
  half-open protection around file I/O and cache backends;
* :func:`hill_climb` — an offline search over one integer knob (the
  sim testbed tunes the O9 high watermark with it).

Everything here is plain-clock-injectable so the simulation testbed can
drive the *same* classes the live server runs — the Fig 6-style
"graceful vs cliff" experiment exercises this module, not a model of it.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Tuple

from repro.lint.locks import access, make_lock, shared
from repro.obs.flight import GLOBAL as GLOBAL_FLIGHT

__all__ = [
    "TokenBucket",
    "ClientRateLimiter",
    "ShedDecision",
    "SheddingPolicy",
    "SojournQueue",
    "CircuitBreaker",
    "CircuitOpenError",
    "RetryBudget",
    "hill_climb",
    "reject_handle",
    "rejection_response",
]

#: reason codes stamped on every shed decision (flight-recorder details
#: carry these verbatim: ``"reject reason=rate-limit client=..."``)
REASON_RATE_LIMIT = "rate-limit"
REASON_OVERLOAD = "overload"
REASON_MAX_CONNECTIONS = "max-connections"
REASON_QUEUE_DEADLINE = "queue-deadline"
REASON_BREAKER = "breaker"


class TokenBucket:
    """Classic token bucket: ``rate`` tokens/second, ``burst`` capacity.

    Not self-locking — the owning :class:`ClientRateLimiter` serializes
    access (one bucket is only ever touched under the limiter's lock).
    """

    __slots__ = ("rate", "burst", "tokens", "updated")

    def __init__(self, rate: float, burst: float, now: float = 0.0):
        if rate <= 0 or burst <= 0:
            raise ValueError("rate and burst must be > 0")
        self.rate = float(rate)
        self.burst = float(burst)
        self.tokens = float(burst)
        self.updated = now

    def allow(self, now: float, cost: float = 1.0) -> bool:
        """Spend ``cost`` tokens if available at time ``now``."""
        elapsed = max(0.0, now - self.updated)
        self.tokens = min(self.burst, self.tokens + elapsed * self.rate)
        self.updated = now
        if self.tokens >= cost:
            self.tokens -= cost
            return True
        return False


class ClientRateLimiter:
    """Per-client token buckets with a bounded (LRU-evicted) client map.

    ``allow(client)`` charges one token against that client's bucket;
    a client never seen before starts with a full burst.  The map is
    capped at ``max_clients`` so a spoofed-address storm cannot grow it
    without bound — the least recently active client is forgotten first.
    """

    def __init__(self, rate: float, burst: float, max_clients: int = 1024,
                 clock: Callable[[], float] = time.monotonic):
        self.rate = float(rate)
        self.burst = float(burst)
        self.max_clients = max_clients
        self.clock = clock
        self._lock = make_lock("ClientRateLimiter")
        self._buckets: "OrderedDict[str, TokenBucket]" = OrderedDict()
        #: accounting for status pages / the experiment harness
        self.allowed = 0
        self.rejected = 0
        shared(self, "_buckets", "allowed", "rejected",
               label="per-client rate limiter state")

    def allow(self, client: str) -> bool:
        """May ``client`` (typically the peer address) proceed now?"""
        now = self.clock()
        with self._lock:
            access(self, "_buckets")
            bucket = self._buckets.get(client)
            if bucket is None:
                bucket = TokenBucket(self.rate, self.burst, now=now)
                self._buckets[client] = bucket
                while len(self._buckets) > self.max_clients:
                    self._buckets.popitem(last=False)
            else:
                self._buckets.move_to_end(client)
            ok = bucket.allow(now)
            if ok:
                access(self, "allowed")
                self.allowed += 1
            else:
                access(self, "rejected")
                self.rejected += 1
            return ok

    @property
    def clients(self) -> int:
        """Clients currently tracked (bounded by ``max_clients``)."""
        with self._lock:
            access(self, "_buckets", write=False)
            return len(self._buckets)


@dataclass(frozen=True)
class ShedDecision:
    """One explicit admission decision.

    ``action`` is ``"admit"``, ``"reject"`` (accept, send the cheap
    rejection payload, close) or ``"postpone"`` (leave the connection in
    the kernel backlog — the paper's silent O9 behaviour, kept only for
    builds that ask for it).  ``reason`` is a stable reason code
    (:data:`REASON_RATE_LIMIT` and friends) for rejected work.
    """

    action: str
    reason: str = ""
    retry_after: float = 0.0

    @property
    def admitted(self) -> bool:
        """True when the work may proceed."""
        return self.action == "admit"


#: the decision every policy-free call site takes
_ADMIT = ShedDecision("admit")


def rejection_response(retry_after: float = 1.0, reason: str = "") -> bytes:
    """Preformatted HTTP/1.1 503 bytes for the cheap write-path reject.

    Built once at configuration time (never per rejection): the shedding
    path appends these bytes to the victim's out-buffer, flushes, and
    closes — no parsing, no handler dispatch, no disk.  ``reason`` (a
    :data:`REASON_RATE_LIMIT`-style code) rides in an ``X-Shed-Reason``
    header so storm tests and clients can tell rejections apart.
    """
    body = b"503 Service Unavailable\r\n"
    head = (
        "HTTP/1.1 503 Service Unavailable\r\n"
        f"Retry-After: {max(1, int(round(retry_after)))}\r\n"
        "Content-Type: text/plain\r\n"
        f"Content-Length: {len(body)}\r\n"
        "Connection: close\r\n"
    )
    if reason:
        head += f"X-Shed-Reason: {reason}\r\n"
    return head.encode("ascii") + b"\r\n" + body


def reject_handle(handle, payload: bytes) -> None:
    """Flush a canned rejection to a just-accepted handle and close it.

    The cheap write-path reject: no Communicator is ever built for the
    victim, so the whole transaction costs one send and a close.
    """
    if payload:
        handle.write((payload,))
    handle.close()


class SheddingPolicy:
    """Explicit load shedding at the accept edge.

    Composes two signals into per-connection decisions:

    * the O9 :class:`~repro.runtime.overload.OverloadController` (queue
      watermarks + connection cap) — but instead of silently postponing,
      overload now *rejects*: the client gets a cheap canned response
      (HTTP 503 with ``Retry-After``) and an explanation lands in the
      flight recorder;
    * a :class:`ClientRateLimiter`, so shedding is fair across clients.
    """

    def __init__(
        self,
        overload=None,
        limiter: Optional[ClientRateLimiter] = None,
        retry_after: float = 1.0,
        reject_payload: bytes = b"",
        on_overload: str = "reject",
        flight=None,
    ):
        if on_overload not in ("reject", "postpone"):
            raise ValueError("on_overload must be 'reject' or 'postpone'")
        self.overload = overload
        self.limiter = limiter
        self.retry_after = retry_after
        #: preformatted rejection bytes (a canned 503 for HTTP); empty
        #: means reject-by-close for protocols without an error shape
        self.reject_payload = reject_payload
        self.on_overload = on_overload
        self.flight = flight if flight is not None else GLOBAL_FLIGHT
        self._lock = make_lock("SheddingPolicy")
        self.shed_total = 0
        self._shed_by_reason: Dict[str, int] = {}
        shared(self, "shed_total", "_shed_by_reason",
               label="shed-decision accounting")

    # -- bookkeeping ------------------------------------------------------
    def _shed(self, reason: str, detail: str = "",
              trace_id: int = 0) -> None:
        """Count one shed and put the reason on the flight record."""
        with self._lock:
            access(self, "shed_total")
            self.shed_total += 1
            access(self, "_shed_by_reason")
            self._shed_by_reason[reason] = \
                self._shed_by_reason.get(reason, 0) + 1
        suffix = f" {detail}" if detail else ""
        self.flight.record("shed", f"reason={reason}{suffix}", trace_id)

    def shed_by_reason(self) -> Dict[str, int]:
        """Shed counts keyed by reason code (status pages)."""
        with self._lock:
            access(self, "_shed_by_reason", write=False)
            return dict(self._shed_by_reason)

    # -- decisions --------------------------------------------------------
    def admit_accept(self) -> ShedDecision:
        """Pre-accept gate: consult the overload controller.

        Overload now produces an *explicit* decision: ``reject`` (the
        default — accept, send the canned payload, close) or
        ``postpone`` (the paper's silent backlog behaviour) per the
        ``on_overload`` setting.
        """
        if self.overload is None or self.overload.accepting():
            return _ADMIT
        reason = (REASON_MAX_CONNECTIONS
                  if self.overload.at_connection_limit()
                  else REASON_OVERLOAD)
        if self.on_overload == "postpone":
            self._shed(reason, "action=postpone")
            return ShedDecision("postpone", reason, self.retry_after)
        return ShedDecision("reject", reason, self.retry_after)

    def admit_client(self, client: str, trace_id: int = 0) -> ShedDecision:
        """Post-accept gate: per-client token-bucket rate limit."""
        if self.limiter is None or self.limiter.allow(client):
            return _ADMIT
        decision = ShedDecision("reject", REASON_RATE_LIMIT,
                                self.retry_after)
        self._shed(REASON_RATE_LIMIT, f"client={client}", trace_id)
        return decision

    def record_rejection(self, decision: ShedDecision, detail: str = "",
                         trace_id: int = 0) -> None:
        """Account a rejection decided by :meth:`admit_accept` (the
        caller records *after* the accept so the trace id is known)."""
        self._shed(decision.reason, detail, trace_id)

    def status(self) -> dict:
        """Snapshot for ``/server-status?auto`` and samplers."""
        status = {
            "shed_total": self.shed_total,
            "shed_by_reason": self.shed_by_reason(),
            "on_overload": self.on_overload,
        }
        if self.limiter is not None:
            status["rate_limited_clients"] = self.limiter.clients
            status["rate_limit_rejections"] = self.limiter.rejected
        return status


class SojournQueue:
    """CoDel-style sojourn-deadline dropping wrapper for event queues.

    Wraps any queue with the Event Processor interface (``push`` /
    ``pop`` / ``try_pop`` / ``close`` / ``closed`` / ``__len__``) and
    stamps every item with its enqueue time.  At pop time, an item whose
    sojourn exceeded ``deadline`` is a candidate drop — but, following
    CoDel, drops only begin once the sojourn has stayed above the
    deadline for a full ``interval`` (so transient bursts pass
    unharmed), and stop the moment a fresh item is seen.

    ``on_drop(item, sojourn)`` receives each dropped item — the sim's
    event-driven server wires this to a handler that 503s the victim
    request instead of silently losing it.  ``droppable(item)`` decides which
    items the control law may touch at all: control messages (worker
    retire pills, completions carrying owed replies) must pass through
    however stale — only fresh request work is sheddable.
    """

    def __init__(self, inner, deadline: float, interval: float = 0.1,
                 on_drop: Optional[Callable[[Any, float], None]] = None,
                 droppable: Optional[Callable[[Any], bool]] = None,
                 clock: Callable[[], float] = time.monotonic):
        if deadline <= 0:
            raise ValueError("deadline must be > 0")
        self._inner = inner
        self.deadline = deadline
        self.interval = interval
        self.on_drop = on_drop
        self.droppable = droppable
        self.clock = clock
        self._lock = make_lock("SojournQueue")
        self._first_above: Optional[float] = None
        self.dropped = 0
        shared(self, "_first_above", "dropped",
               label="sojourn-drop control state")

    # -- the CoDel control law -------------------------------------------
    def _should_drop(self, sojourn: float, now: float) -> bool:
        """One step of the control law; called per popped item."""
        with self._lock:
            access(self, "_first_above")
            if sojourn < self.deadline:
                self._first_above = None
                return False
            if self._first_above is None:
                self._first_above = now
                return False
            if now - self._first_above < self.interval:
                return False
            access(self, "dropped")
            self.dropped += 1
            return True

    def _filter(self, item: Optional[tuple]) -> Tuple[Optional[Any], bool]:
        """Unwrap a popped pair; (item, dropped?)."""
        if item is None:
            return None, False
        enqueued, payload = item
        if self.droppable is not None and not self.droppable(payload):
            return payload, False
        now = self.clock()
        if self._should_drop(now - enqueued, now):
            if self.on_drop is not None:
                self.on_drop(payload, now - enqueued)
            return None, True
        return payload, False

    # -- the queue interface ---------------------------------------------
    def push(self, item: Any, priority: int = 0) -> None:
        """Enqueue, stamping the sojourn clock."""
        self._inner.push((self.clock(), item), priority)

    def pop(self, timeout: Optional[float] = None) -> Optional[Any]:
        """Blocking pop that silently consumes dropped items."""
        while True:
            payload, dropped = self._filter(self._inner.pop(timeout=timeout))
            if not dropped:
                return payload

    def try_pop(self) -> Optional[Any]:
        """Non-blocking pop that silently consumes dropped items."""
        while True:
            payload, dropped = self._filter(self._inner.try_pop())
            if not dropped:
                return payload

    def close(self) -> None:
        self._inner.close()

    @property
    def closed(self) -> bool:
        return self._inner.closed

    def __len__(self) -> int:
        return len(self._inner)


class CircuitOpenError(RuntimeError):
    """Raised by :meth:`CircuitBreaker.call` while the circuit is open."""


class CircuitBreaker:
    """Closed → open → half-open protection for a flaky dependency.

    * **closed** — requests flow; ``failure_threshold`` *consecutive*
      failures trip the breaker open.
    * **open** — requests are refused instantly (no pile-up on a dead
      disk or cache backend); after ``recovery_time`` the breaker moves
      to half-open.
    * **half-open** — exactly ``probe_quota`` probe requests are
      admitted.  If every probe succeeds the breaker closes; any probe
      failure re-opens it with a fresh recovery timer.
    """

    CLOSED, OPEN, HALF_OPEN = "closed", "open", "half-open"

    def __init__(self, name: str = "breaker", failure_threshold: int = 5,
                 recovery_time: float = 5.0, probe_quota: int = 1,
                 clock: Callable[[], float] = time.monotonic):
        if failure_threshold < 1 or probe_quota < 1:
            raise ValueError("failure_threshold and probe_quota must be >= 1")
        self.name = name
        self.failure_threshold = failure_threshold
        self.recovery_time = recovery_time
        self.probe_quota = probe_quota
        self.clock = clock
        self._lock = make_lock(f"CircuitBreaker:{name}")
        self._state = self.CLOSED
        self._failures = 0          # consecutive, while closed
        self._opened_at = 0.0
        self._probes_in_flight = 0  # admitted while half-open
        self._probe_successes = 0
        self.rejected = 0
        self.trips = 0
        shared(self, "_state", "_failures", "_opened_at",
               "_probes_in_flight", "_probe_successes", "rejected", "trips",
               label="circuit-breaker state machine")

    # -- state machine ----------------------------------------------------
    def _trip(self, now: float) -> None:
        """Enter the open state (caller holds the lock)."""
        self._state = self.OPEN
        self._opened_at = now
        self._failures = 0
        self._probes_in_flight = 0
        self._probe_successes = 0
        access(self, "trips")
        self.trips += 1

    def allow(self) -> bool:
        """May one request proceed?  Half-open admits the probe quota."""
        now = self.clock()
        with self._lock:
            access(self, "_state")
            if self._state == self.OPEN:
                if now - self._opened_at < self.recovery_time:
                    access(self, "rejected")
                    self.rejected += 1
                    return False
                self._state = self.HALF_OPEN
                self._probes_in_flight = 0
                self._probe_successes = 0
            if self._state == self.HALF_OPEN:
                access(self, "_probes_in_flight")
                if self._probes_in_flight >= self.probe_quota:
                    access(self, "rejected")
                    self.rejected += 1
                    return False
                self._probes_in_flight += 1
            return True

    def record_success(self) -> None:
        """Report one successful request."""
        with self._lock:
            access(self, "_state")
            if self._state == self.HALF_OPEN:
                access(self, "_probe_successes")
                self._probe_successes += 1
                if self._probe_successes >= self.probe_quota:
                    self._state = self.CLOSED
                    self._failures = 0
            else:
                access(self, "_failures")
                self._failures = 0

    def record_failure(self) -> None:
        """Report one failed request."""
        now = self.clock()
        with self._lock:
            access(self, "_state")
            if self._state == self.HALF_OPEN:
                self._trip(now)
                return
            if self._state == self.CLOSED:
                access(self, "_failures")
                self._failures += 1
                if self._failures >= self.failure_threshold:
                    self._trip(now)

    def call(self, fn: Callable[[], Any]) -> Any:
        """Run ``fn`` under the breaker; :class:`CircuitOpenError` when
        refused, success/failure recorded from whether ``fn`` raises."""
        if not self.allow():
            raise CircuitOpenError(self.name)
        try:
            result = fn()
        except Exception:
            self.record_failure()
            raise
        self.record_success()
        return result

    @property
    def state(self) -> str:
        """Current state name (``closed`` / ``open`` / ``half-open``)."""
        with self._lock:
            access(self, "_state", write=False)
            return self._state

    def status(self) -> dict:
        """Snapshot for ``/server-status?auto``."""
        with self._lock:
            access(self, "_state", write=False)
            return {
                "state": self._state,
                "failures": self._failures,
                "trips": self.trips,
                "rejected": self.rejected,
            }


class RetryBudget:
    """Deposit/withdraw retry budget (bounds retry amplification).

    Every completed request deposits ``ratio`` of a retry token; every
    retry withdraws one whole token.  With ``ratio=0.1`` retries can
    never exceed ~10% of request volume, so a failing backend sees load
    *shrink* instead of doubling.  ``min_retries`` tokens are always
    available so a cold server can still retry at all.
    """

    def __init__(self, ratio: float = 0.1, min_retries: float = 2.0,
                 cap: float = 100.0):
        if not 0.0 <= ratio <= 1.0:
            raise ValueError("ratio must be in [0, 1]")
        self.ratio = ratio
        self.min_retries = min_retries
        self.cap = cap
        self._lock = make_lock("RetryBudget")
        self._tokens = min_retries
        self.withdrawals = 0
        self.refusals = 0
        shared(self, "_tokens", "withdrawals", "refusals",
               label="retry-budget accounting")

    def record_request(self) -> None:
        """Deposit: one more request completed."""
        with self._lock:
            access(self, "_tokens")
            self._tokens = min(self.cap, self._tokens + self.ratio)

    def can_retry(self) -> bool:
        """Withdraw one retry token if the budget allows."""
        with self._lock:
            access(self, "_tokens")
            if self._tokens >= 1.0:
                self._tokens -= 1.0
                access(self, "withdrawals")
                self.withdrawals += 1
                return True
            access(self, "refusals")
            self.refusals += 1
            return False

    @property
    def balance(self) -> float:
        """Tokens currently available."""
        with self._lock:
            access(self, "_tokens", write=False)
            return self._tokens


def hill_climb(evaluate: Callable[[int], float], initial: int,
               lo: int, hi: int, steps: Tuple[int, ...] = (16, 8, 4, 2, 1),
               budget: int = 32) -> Tuple[int, float]:
    """Coordinate hill-climbing search over one integer knob.

    Used offline to tune the overload high watermark against the sim
    testbed: ``evaluate(high)`` runs a deterministic simulation and
    returns the score (goodput) to maximize.  Starting from ``initial``,
    the search probes ± each step size (largest first), moving whenever
    a neighbour scores better, until no step improves or the evaluation
    ``budget`` is spent.  Returns ``(best_value, best_score)``.
    """
    if not lo <= initial <= hi:
        raise ValueError("initial must lie in [lo, hi]")
    cache: Dict[int, float] = {}

    def score(value: int) -> float:
        if value not in cache and len(cache) < budget:
            cache[value] = evaluate(value)
        return cache.get(value, float("-inf"))

    best = initial
    best_score = score(best)
    improved = True
    while improved and len(cache) < budget:
        improved = False
        for step in steps:
            for candidate in (best + step, best - step):
                if not lo <= candidate <= hi:
                    continue
                if score(candidate) > best_score:
                    best, best_score = candidate, cache[candidate]
                    improved = True
    return best, best_score
