"""Resilience runtime (N-Server option O13, "Fault tolerance").

Three cooperating mechanisms that make a generated server degrade
gracefully instead of wedging under hostile conditions:

* :class:`DeadlineMonitor` — per-stage deadlines on every connection.
  A peer that trickles a request byte-by-byte (slowloris), a handler
  that never completes, or a receiver that stops reading its reply all
  hold resources forever; the monitor closes the connection and records
  *which* stage blew the deadline (``header`` / ``request`` / ``write``).
* :class:`WorkerSupervisor` — watches an Event Processor pool for dead
  worker threads (a ``BaseException`` escaping the handler kills one)
  and replaces them, so the pool never silently shrinks to zero.
* :class:`EventQuarantine` — an ``error_hook`` that retries a failing
  event a bounded number of times and then quarantines it, so a poison
  event cannot re-kill fresh workers forever.

Plus :func:`is_transient_accept_error`, re-exported from
:mod:`repro.runtime.acceptor`: the generated O13 ``safe_accept`` uses
it to tell a retryable accept error from one that needs a backoff.

None of them owns a thread: the monitor's :meth:`DeadlineMonitor.tick`
and the supervisor's :meth:`WorkerSupervisor.check` are one-pass
methods the generated Server Event Handler runs from periodic timers
on the reactor's timer source, on a dispatcher thread.

Everything here follows the option-guarded style of the rest of the
runtime: null-object metrics/log defaults, zero references from any code
path that did not opt in.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Callable, Optional

from repro.lint.locks import access, make_lock
from repro.obs.flight import GLOBAL as GLOBAL_FLIGHT
from repro.obs.registry import NULL_METRIC
from repro.runtime.acceptor import is_transient_accept_error
from repro.runtime.nulls import NULL_LOG
from repro.runtime.timerwheel import TimerWheel

__all__ = [
    "DeadlinePolicy",
    "DeadlineMonitor",
    "WorkerSupervisor",
    "EventQuarantine",
    "is_transient_accept_error",
]


# -- per-stage connection deadlines -------------------------------------------


@dataclass
class DeadlinePolicy:
    """Per-stage timeouts in seconds; ``None`` disables a stage.

    * ``header`` — a partial request has been buffered (first byte seen,
      no complete request framed yet) for too long: slow-peer trickle.
    * ``request`` — the oldest in-flight request (accepted by the
      pipeline, reply not yet produced) is overdue: a stuck handler or a
      lost asynchronous completion.
    * ``write`` — reply bytes are buffered with no send progress: the
      peer stopped reading.
    """

    header: Optional[float] = 5.0
    request: Optional[float] = 30.0
    write: Optional[float] = 30.0


class DeadlineMonitor:
    """Closes connections that blew a per-stage deadline.

    The owning server calls :meth:`watch` per accepted connection and
    :meth:`unwatch` at teardown.  Each watched connection carries one
    lazily re-armed timer on a hashed
    :class:`~repro.runtime.timerwheel.TimerWheel`; each :meth:`tick`
    (run once per ``interval`` by the owner's periodic timer) inspects
    only fired entries (O(fired) per pass, O(1) re-arm/cancel),
    re-arming at the earliest active stage deadline, or at a parked
    recheck period while the connection is idle.  Violations are
    tallied per stage in :attr:`reasons` and on ``counter``.

    The wheel is the monitor's own, not the event source's: a timer
    source computes its next deadline on every poll in O(live
    entries), so one entry per connection there would make every poll
    O(connections); here one periodic source timer ticks the wheel.
    """

    def __init__(
        self,
        policy: DeadlinePolicy,
        clock=time.monotonic,
        interval: float = 0.1,
        counter=NULL_METRIC,
        log=NULL_LOG,
    ):
        self.policy = policy
        self.clock = clock
        self.counter = counter
        self.log = log
        self.reasons = {"header": 0, "request": 0, "write": 0}
        self.timed_out = 0
        self.wheel = TimerWheel(tick=max(interval / 2.0, 0.01), slots=512,
                                clock=clock)
        #: while no stage is active the per-connection timer parks at
        #: this recheck period; a stage starting right after a parked
        #: check is still caught within deadline + one period
        enabled = [t for t in (policy.header, policy.request, policy.write)
                   if t is not None]
        self.park_interval = max(interval,
                                 min(enabled) / 4.0 if enabled else interval)
        self._watch_lock = threading.Lock()
        #: watched connection -> its wheel token (the wheel payload is
        #: the connection itself)
        self._tokens: dict = {}

    # -- checks -------------------------------------------------------------
    def _violation(self, conn, now: float) -> Optional[str]:
        """The stage ``conn`` has blown, or None within deadlines."""
        p = self.policy
        if p.header is not None:
            started = getattr(conn, "read_started", None)
            if started is not None and now - started > p.header:
                return "header"
        if p.request is not None:
            oldest = conn.oldest_pending_started()
            if oldest is not None and now - oldest > p.request:
                return "request"
        if p.write is not None:
            blocked = getattr(conn, "write_blocked_since", None)
            if blocked is not None and now - blocked > p.write:
                return "write"
        return None

    def _next_check(self, conn, now: float) -> float:
        """Seconds until ``conn`` next needs a look: the earliest active
        stage deadline, or the parked recheck period while idle."""
        p = self.policy
        soonest = None
        for limit, started in (
            (p.header, getattr(conn, "read_started", None)),
            (p.request, conn.oldest_pending_started()),
            (p.write, getattr(conn, "write_blocked_since", None)),
        ):
            if limit is None or started is None:
                continue
            due = started + limit - now
            if soonest is None or due < soonest:
                soonest = due
        if soonest is None:
            return self.park_interval
        # Exact arming is safe: stage stamps only ever move later, so a
        # timer armed for the current stamp can never overshoot a future
        # one — it fires, finds the newer stamp, and re-arms for it.
        return max(soonest, self.wheel.tick)

    # -- per-connection timers ----------------------------------------------
    def watch(self, conn) -> None:
        """Start monitoring one connection (O(1))."""
        with self._watch_lock:
            old = self._tokens.pop(conn, None)
            if old is not None:
                self.wheel.cancel(old)
            self._tokens[conn] = self.wheel.schedule(
                self._next_check(conn, self.clock()), conn)

    def unwatch(self, conn) -> None:
        """Stop monitoring (O(1), idempotent)."""
        with self._watch_lock:
            token = self._tokens.pop(conn, None)
            if token is not None:
                self.wheel.cancel(token)

    def tick(self) -> int:
        """Check fired timers only; returns how many connections were
        closed.  Healthy connections whose timer fired are re-armed at
        their next interesting moment."""
        fired = self.wheel.advance()
        if not fired:
            return 0
        now = self.clock()
        victims = []
        with self._watch_lock:
            for _deadline, token, conn in fired:
                if self._tokens.get(conn) != token:
                    continue  # re-armed or unwatched since firing
                if conn.closed:
                    del self._tokens[conn]
                    continue
                reason = self._violation(conn, now)
                if reason is not None:
                    del self._tokens[conn]
                    victims.append((conn, reason))
                else:
                    self._tokens[conn] = self.wheel.schedule(
                        self._next_check(conn, now), conn)
        for conn, reason in victims:
            self.reasons[reason] += 1
            self.timed_out += 1
            self.counter.inc()
            self.log.info(
                f"deadline ({reason}) exceeded on {conn.handle.name}; closing")
            conn.close()
        return len(victims)


# -- worker supervision -------------------------------------------------------


class WorkerSupervisor:
    """Detects dead Event Processor workers and replaces them.

    A handler that raises an ``Exception`` is survived in place; only a
    ``BaseException`` kills a worker thread.  The supervisor prunes dead
    threads from the pool and spawns replacements so the pool holds its
    configured size.  The owner runs :meth:`check` periodically.
    """

    def __init__(self, processor, counter=NULL_METRIC, log=NULL_LOG,
                 flight=None):
        self.processor = processor
        self.counter = counter
        self.log = log
        #: flight recorder receiving worker-death events (and the dump
        #: trigger — a dead worker is exactly a post-mortem moment)
        self.flight = flight if flight is not None else GLOBAL_FLIGHT
        self.restarts = 0

    def check(self) -> int:
        """One supervision pass; returns how many workers were replaced."""
        dead = self.processor.prune_dead()
        if dead:
            self.flight.record(
                "worker-death",
                f"{self.processor.name} dead={dead} "
                f"last={self.processor.last_death!r}")
            dump = self.flight.snapshot("worker-death")
            self.log.error(f"flight recorder dumped to {dump}")
        for _ in range(dead):
            try:
                self.processor.add_thread()
            except RuntimeError:  # pool already stopped; nothing to restore
                return 0
            self.restarts += 1
            self.counter.inc()
            self.log.error(
                f"{self.processor.name} worker died "
                f"({self.processor.last_death!r}); replaced")
        return dead


# -- poison-event quarantine ---------------------------------------------------


class EventQuarantine:
    """Retry-then-quarantine ``error_hook`` for an Event Processor.

    Each failing event is resubmitted up to ``max_retries`` times; after
    that it lands in :attr:`quarantined` instead of being retried — a
    poison event must not keep re-killing the pool.  Attempts are keyed
    by ``event_id`` because :class:`~repro.runtime.events.Event` uses
    ``__slots__``; the key table is pruned so it cannot grow unbounded.

    Use :meth:`attach` to install on a processor: it chains any existing
    ``error_hook`` (e.g. the O10=Debug ``trace_error``) as ``fallback``.
    """

    _MAX_TRACKED = 1024

    def __init__(self, max_retries: int = 2,
                 resubmit: Optional[Callable] = None,
                 counter=NULL_METRIC, log=NULL_LOG,
                 fallback: Optional[Callable] = None, flight=None):
        self.max_retries = max_retries
        self.resubmit = resubmit
        self.counter = counter
        self.log = log
        self.fallback = fallback
        #: flight recorder receiving quarantine events and the dump
        self.flight = flight if flight is not None else GLOBAL_FLIGHT
        self.quarantined: list = []
        self.retries = 0
        self._attempts: dict = {}
        self._lock = make_lock("EventQuarantine")

    @classmethod
    def attach(cls, processor, max_retries: int = 2,
               counter=NULL_METRIC, log=NULL_LOG,
               flight=None) -> "EventQuarantine":
        """Install on ``processor``, chaining its prior ``error_hook``."""
        quarantine = cls(max_retries=max_retries, resubmit=processor.submit,
                         counter=counter, log=log,
                         fallback=processor.error_hook, flight=flight)
        processor.error_hook = quarantine
        return quarantine

    def __call__(self, event, exc: BaseException) -> None:
        """Handle one failure: retry within budget, else quarantine."""
        if self.fallback is not None:
            self.fallback(event, exc)
        key = getattr(event, "event_id", id(event))
        # ``retries`` and ``quarantined`` are read by status pages and
        # written by every worker thread whose handler fails; the
        # accounting lives inside the critical section (it used to run
        # after it, racing other failing workers).  The resubmit itself
        # stays outside — it takes the processor's queue lock.
        with self._lock:
            access(self, "_attempts")
            attempts = self._attempts.get(key, 0)
            if attempts < self.max_retries and self.resubmit is not None:
                if len(self._attempts) >= self._MAX_TRACKED:
                    self._attempts.pop(next(iter(self._attempts)))
                self._attempts[key] = attempts + 1
                access(self, "retries")
                self.retries += 1
                retry = True
            else:
                self._attempts.pop(key, None)
                access(self, "quarantined")
                self.quarantined.append((event, exc))
                retry = False
        if retry:
            self.resubmit(event)
            return
        self.counter.inc()
        self.log.error(
            f"event {key} quarantined after "
            f"{self.max_retries} retries: {exc!r}")
        self.flight.record(
            "quarantine", f"event {key}: {exc!r}",
            getattr(getattr(event, "handle", None), "trace_id", 0))
        dump = self.flight.snapshot("quarantine")
        self.log.error(f"flight recorder dumped to {dump}")
