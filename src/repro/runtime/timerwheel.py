"""Hashed timer wheel: O(1) schedule / cancel / re-arm per timer.

A scan-based timer path (such as the generated O7
``ContainerComponent.reap_idle``) costs O(n) per tick in the number of
watched connections, which is the wrong shape for thousands of
mostly-idle connections.  The wheel hashes each
timer into one of ``slots`` buckets by its absolute tick index;
advancing the cursor visits at most ``min(elapsed_ticks, slots)``
buckets and touches only the entries that are actually due.

Guarantees (pinned by the hypothesis suite in
``tests/runtime/test_timerwheel.py`` against a sorted-list model):

* **never early** — an entry fires only once ``now >= deadline``;
* **never lost** — every live entry whose deadline has passed by a full
  tick is fired by the next :meth:`advance`;
* **bounded late** — lateness is under one tick plus clock skew;
* **cancel is O(1) and idempotent**, including cancel-after-fire.

Entries due in the same :meth:`advance` fire in ``(deadline, token)``
order, so replays are deterministic.  All methods are thread-safe.
"""

from __future__ import annotations

import itertools
import threading
import time
from typing import Any, List, Optional, Tuple

__all__ = ["TimerWheel"]


class _Entry:
    __slots__ = ("token", "deadline", "tick", "payload")

    def __init__(self, token: int, deadline: float, tick: int, payload: Any):
        self.token = token
        self.deadline = deadline
        self.tick = tick
        self.payload = payload


class TimerWheel:
    """One-shot timers hashed over a fixed ring of slots.

    ``tick`` is the granularity (seconds per slot); ``slots`` the ring
    size.  Timers further out than ``tick * slots`` simply stay in
    their slot across cursor rotations — the per-entry target tick
    disambiguates, at the cost of re-inspecting long timers once per
    rotation.
    """

    def __init__(self, tick: float = 0.01, slots: int = 256,
                 clock=time.monotonic):
        if tick <= 0:
            raise ValueError("tick must be positive")
        if slots < 2:
            raise ValueError("need at least two slots")
        self.tick = float(tick)
        self.slots = int(slots)
        self.clock = clock
        self._epoch = clock()
        self._cursor = 0  # last tick index processed by advance()
        self._ring: List[dict] = [dict() for _ in range(self.slots)]
        self._where: dict = {}  # token -> slot index (O(1) cancel)
        self._seq = itertools.count()
        self._lock = threading.Lock()

    # -- scheduling ---------------------------------------------------------
    def _tick_for(self, deadline: float) -> int:
        """Absolute tick index whose boundary is >= ``deadline``.

        Ceil placement (with a relative epsilon for float noise) keeps
        the no-early-fire guarantee: tick ``t`` is only processed once
        ``now >= epoch + t*tick >= deadline``.
        """
        ticks = (deadline - self._epoch) / self.tick
        t = int(ticks)
        if ticks - t > 1e-9:
            t += 1
        return max(t, self._cursor + 1)

    def schedule(self, delay: float, payload: Any = None) -> int:
        """Arm a one-shot timer ``delay`` seconds from now; returns its
        cancellation token."""
        if delay < 0:
            raise ValueError("negative timer delay")
        return self.schedule_at(self.clock() + delay, payload)

    def schedule_at(self, deadline: float, payload: Any = None) -> int:
        """Arm a one-shot timer at an absolute ``clock()`` deadline."""
        with self._lock:
            token = next(self._seq)
            self._place(_Entry(token, deadline, self._tick_for(deadline),
                               payload))
            return token

    def _place(self, entry: _Entry) -> None:
        slot = entry.tick % self.slots
        self._ring[slot][entry.token] = entry
        self._where[entry.token] = slot

    def cancel(self, token: int) -> bool:
        """Disarm; True when the timer was still pending.  Cancelling a
        fired or already-cancelled token is a harmless no-op."""
        with self._lock:
            slot = self._where.pop(token, None)
            if slot is None:
                return False
            del self._ring[slot][token]
            return True

    # -- firing -------------------------------------------------------------
    def advance(self, now: Optional[float] = None
                ) -> List[Tuple[float, int, Any]]:
        """Fire everything due by ``now``; returns ``(deadline, token,
        payload)`` triples sorted by ``(deadline, token)``.  Callers run
        their callbacks outside the wheel (nothing fires under the
        lock)."""
        if now is None:
            now = self.clock()
        fired: List[Tuple[float, int, Any]] = []
        with self._lock:
            target = int((now - self._epoch) / self.tick + 1e-9)
            if target <= self._cursor:
                return fired
            # One pass over each bucket suffices even when the cursor
            # jumped more than a full rotation.
            first = self._cursor + 1
            for offset in range(min(target - self._cursor, self.slots)):
                bucket = self._ring[(first + offset) % self.slots]
                if not bucket:
                    continue
                for token, entry in list(bucket.items()):
                    if entry.tick > target:
                        continue  # a later rotation owns this entry
                    del bucket[token]
                    del self._where[token]
                    if entry.deadline > now:
                        # float-noise guard: the tick boundary passed a
                        # hair before the deadline itself — push the
                        # entry to the next tick rather than fire early.
                        entry.tick = target + 1
                        self._place(entry)
                        continue
                    fired.append((entry.deadline, token, entry.payload))
            self._cursor = target
        fired.sort()
        return fired

    # -- introspection ------------------------------------------------------
    def next_deadline(self) -> Optional[float]:
        """When the earliest pending timer will *fire* — its wheel-tick
        boundary, at or after its deadline — or None when the wheel is
        empty.  Poll loops clamp their wait to this so a due timer never
        oversleeps and a not-yet-due one never busy-spins.  O(live
        entries): fine for the handful of timers an event source holds;
        the fixed-cadence consumers (reaper, deadline monitor) do not
        call it per tick."""
        with self._lock:
            soonest: Optional[float] = None
            for bucket in self._ring:
                for entry in bucket.values():
                    boundary = self._epoch + entry.tick * self.tick
                    if soonest is None or boundary < soonest:
                        soonest = boundary
            return soonest

    def __len__(self) -> int:
        with self._lock:
            return len(self._where)
