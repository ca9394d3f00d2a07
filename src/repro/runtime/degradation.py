"""Graceful-degradation plane (option O17 "Degradation policy").

The paper's O9 overload control is a binary accept/postpone latch over
static watermarks (Fig 6: high=20 / low=5): under a sustained storm the
server silently strands clients in the kernel backlog.  This module
replaces the silent postpone with *explicit, prioritized decisions*:

* :class:`TokenBucket` / :class:`ClientRateLimiter` — per-client rate
  limiting so one aggressive client cannot starve the rest;
* :class:`SheddingPolicy` — the admission decision itself, returning a
  :class:`ShedDecision` with a machine-readable reason code that lands
  in the flight recorder (so ``reconstruct_path`` can explain why a
  connection never got a span);
* :class:`SojournQueue` — CoDel-style sojourn-deadline drops on the
  Event Processor queue: work that has already waited past its deadline
  is dropped at pop time instead of being served uselessly late;
* :class:`CircuitBreaker` / :class:`RetryBudget` — closed → open →
  half-open protection around file I/O and cache backends;
* :class:`BrownoutController` — graded partial degradation (serve-stale
  from the cache plane, bounded-size responses) for COPS-HTTP;
* :class:`AdaptiveController` — AIMD retuning of the O9 watermarks and
  the brownout level from the O11 p99 latency signal, runnable live (a
  background thread) or offline (:func:`hill_climb` over the sim
  testbed).

Everything here is plain-clock-injectable so the simulation testbed can
drive the *same* classes the live server runs — the Fig 6-style
"graceful vs cliff" experiment exercises this module, not a model of it.
"""

from __future__ import annotations

import threading
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
    "BrownoutController",
    "AdaptiveController",
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
REASON_PRIORITY = "priority"
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
    """Explicit, prioritized load shedding.

    Composes three signals into per-connection and per-request
    decisions:

    * the O9 :class:`~repro.runtime.overload.OverloadController` (queue
      watermarks + connection cap) — but instead of silently postponing,
      overload now *rejects*: the client gets a cheap canned response
      (HTTP 503 with ``Retry-After``) and an explanation lands in the
      flight recorder;
    * a :class:`ClientRateLimiter`, so shedding is fair across clients;
    * request-class priorities (``classes`` maps class name → priority,
      higher = more important): under pressure, classes below
      ``priority_floor`` shed first — expensive work is the first to go.
    """

    def __init__(
        self,
        overload=None,
        limiter: Optional[ClientRateLimiter] = None,
        classes: Optional[Dict[str, int]] = None,
        priority_floor: int = 1,
        retry_after: float = 1.0,
        reject_payload: bytes = b"",
        on_overload: str = "reject",
        flight=None,
    ):
        if on_overload not in ("reject", "postpone"):
            raise ValueError("on_overload must be 'reject' or 'postpone'")
        self.overload = overload
        self.limiter = limiter
        #: request-class priorities; unknown classes get the floor value
        #: (never shed by the priority rule alone)
        self.classes = dict(classes or {})
        self.priority_floor = priority_floor
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

    def admit_request(self, request_class: str = "",
                      trace_id: int = 0) -> ShedDecision:
        """Per-request gate: under pressure, low-priority classes shed.

        Pressure means the overload controller has a tripped watermark;
        while it lasts, request classes whose priority is below
        ``priority_floor`` are rejected with :data:`REASON_PRIORITY`.
        """
        if self.overload is None or not self.overload.overloaded_queues():
            return _ADMIT
        priority = self.classes.get(request_class, self.priority_floor)
        if priority >= self.priority_floor:
            return _ADMIT
        decision = ShedDecision("reject", REASON_PRIORITY, self.retry_after)
        self._shed(REASON_PRIORITY, f"class={request_class}", trace_id)
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
            "priority_floor": self.priority_floor,
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

    ``on_drop(item, sojourn)`` receives each dropped item — the server
    wires this to a handler that 503s and closes the victim connection
    instead of silently losing it.  ``droppable(item)`` decides which
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


class BrownoutController:
    """Graded partial degradation (brownout) for content servers.

    ``level`` runs 0.0 (full service) … 1.0 (maximum degradation) and is
    driven by the :class:`AdaptiveController` (or directly by a load
    signal).  Two degradations switch on as the level rises:

    * ``serve_stale`` (level ≥ ``stale_threshold``) — answer from the
      cache plane without touching the disk, even for entries the cache
      would otherwise revalidate or a failing loader would miss;
    * response bounding (level ≥ ``bound_threshold``) — large response
      bodies are truncated to :meth:`response_cap` bytes, shrinking
      further as the level rises.
    """

    def __init__(self, stale_threshold: float = 0.25,
                 bound_threshold: float = 0.5,
                 max_response_bytes: int = 64 * 1024):
        self.stale_threshold = stale_threshold
        self.bound_threshold = bound_threshold
        self.max_response_bytes = max_response_bytes
        self._lock = make_lock("BrownoutController")
        self._level = 0.0
        self.stale_served = 0
        self.responses_bounded = 0
        shared(self, "_level", "stale_served", "responses_bounded",
               label="brownout level and accounting")

    @property
    def level(self) -> float:
        """Current degradation level, 0.0 … 1.0."""
        with self._lock:
            access(self, "_level", write=False)
            return self._level

    def set_level(self, level: float) -> None:
        """Clamp and set the degradation level."""
        with self._lock:
            access(self, "_level")
            self._level = min(1.0, max(0.0, level))

    def raise_level(self, step: float) -> None:
        """Degrade further by ``step`` (clamped at 1.0)."""
        with self._lock:
            access(self, "_level")
            self._level = min(1.0, self._level + step)

    def lower_level(self, step: float) -> None:
        """Recover by ``step`` (clamped at 0.0)."""
        with self._lock:
            access(self, "_level")
            self._level = max(0.0, self._level - step)

    @property
    def serve_stale(self) -> bool:
        """Should the server answer from cache without touching disk?"""
        return self.level >= self.stale_threshold

    def response_cap(self) -> Optional[int]:
        """Maximum response-body bytes right now; None = unbounded.

        Above ``bound_threshold`` the cap shrinks linearly from
        ``max_response_bytes`` down to a quarter of it at level 1.0.
        """
        level = self.level
        if level < self.bound_threshold:
            return None
        span = 1.0 - self.bound_threshold
        frac = (level - self.bound_threshold) / span if span else 1.0
        return max(int(self.max_response_bytes * (1.0 - 0.75 * frac)), 1024)

    def served_stale(self) -> None:
        """Account one response answered stale-from-cache."""
        with self._lock:
            access(self, "stale_served")
            self.stale_served += 1

    def bounded(self) -> None:
        """Account one response body truncated by the cap."""
        with self._lock:
            access(self, "responses_bounded")
            self.responses_bounded += 1

    def status(self) -> dict:
        """Snapshot for ``/server-status?auto``."""
        return {
            "level": round(self.level, 4),
            "serve_stale": self.serve_stale,
            "response_cap": self.response_cap(),
            "stale_served": self.stale_served,
            "responses_bounded": self.responses_bounded,
        }


class AdaptiveController:
    """AIMD retuning of overload watermarks and the brownout level.

    Every ``interval`` seconds :meth:`step` reads the O11 p99 latency
    (``latency_probe()`` → seconds or None while idle) and applies the
    classic additive-increase / multiplicative-decrease rule:

    * p99 **over** ``target_p99`` — congested: multiplicatively shrink
      the watched queue's high watermark (shed earlier) and raise the
      brownout level one step;
    * p99 **under** target — healthy: additively grow the watermark
      back toward ``max_high`` and lower the brownout level.

    The low watermark follows the high one at the configured ratio so
    the O9 hysteresis band keeps its shape.  The controller can run live
    (:meth:`start` spawns the control-loop thread) or be stepped by
    hand — the sim testbed and the tests do the latter.
    """

    def __init__(
        self,
        overload,
        queue_name: str = "reactive",
        latency_probe: Optional[Callable[[], Optional[float]]] = None,
        brownout: Optional[BrownoutController] = None,
        target_p99: float = 0.25,
        interval: float = 1.0,
        min_high: int = 4,
        max_high: int = 256,
        increase: int = 2,
        decrease: float = 0.5,
        low_ratio: float = 0.25,
        brownout_step: float = 0.1,
        log=None,
    ):
        from repro.runtime.nulls import NULL_LOG

        if not 0.0 < decrease < 1.0:
            raise ValueError("decrease must be in (0, 1)")
        self.overload = overload
        self.queue_name = queue_name
        self.latency_probe = latency_probe or (lambda: None)
        self.brownout = brownout
        self.target_p99 = target_p99
        self.interval = interval
        self.min_high = min_high
        self.max_high = max_high
        self.increase = increase
        self.decrease = decrease
        self.low_ratio = low_ratio
        self.brownout_step = brownout_step
        self.log = log if log is not None else NULL_LOG
        self._lock = make_lock("AdaptiveController")
        self._thread: Optional[threading.Thread] = None
        self._stop = threading.Event()
        self.adjustments = 0
        self.last_p99: Optional[float] = None
        shared(self, "adjustments", "last_p99",
               label="adaptive-controller accounting")

    # -- one AIMD step ----------------------------------------------------
    def step(self) -> Optional[Tuple[int, int]]:
        """Apply one control decision; returns the (high, low) applied,
        or None when there was no latency signal to act on."""
        p99 = self.latency_probe()
        with self._lock:
            access(self, "last_p99")
            self.last_p99 = p99
        if p99 is None:
            return None
        mark = self.overload.watermark(self.queue_name)
        if mark is None:
            return None
        if p99 > self.target_p99:
            high = max(self.min_high, int(mark.high * self.decrease))
            if self.brownout is not None:
                self.brownout.raise_level(self.brownout_step)
        else:
            high = min(self.max_high, mark.high + self.increase)
            if self.brownout is not None:
                self.brownout.lower_level(self.brownout_step)
        low = max(1, min(high - 1, int(high * self.low_ratio)))
        if (high, low) != (mark.high, mark.low):
            self.overload.retune(self.queue_name, high=high, low=low)
            with self._lock:
                access(self, "adjustments")
                self.adjustments += 1
            self.log.info(
                f"adaptive: p99={p99:.3f}s target={self.target_p99:.3f}s "
                f"-> watermark high={high} low={low}")
        return high, low

    # -- live control loop ------------------------------------------------
    def _loop(self) -> None:
        """Background control loop (live mode)."""
        while not self._stop.wait(self.interval):
            try:
                self.step()
            except Exception:  # noqa: BLE001 - controller must not die
                pass

    def start(self) -> None:
        """Spawn the live control-loop thread (idempotent)."""
        with self._lock:
            access(self, "_thread")
            if self._thread is not None:
                return
            self._stop.clear()
            self._thread = threading.Thread(
                target=self._loop, daemon=True, name="adaptive-controller")
            self._thread.start()

    def stop(self) -> None:
        """Stop the control loop (idempotent)."""
        with self._lock:
            access(self, "_thread")
            thread, self._thread = self._thread, None
        if thread is not None:
            self._stop.set()
            thread.join(timeout=2.0)

    def status(self) -> dict:
        """Snapshot for ``/server-status?auto``."""
        mark = self.overload.watermark(self.queue_name)
        return {
            "target_p99": self.target_p99,
            "last_p99": self.last_p99,
            "adjustments": self.adjustments,
            "high": mark.high if mark else None,
            "low": mark.low if mark else None,
        }


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
