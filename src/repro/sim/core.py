"""Discrete-event simulation kernel.

A small, self-contained process-based DES in the style of SimPy: a
:class:`Simulator` owns a virtual clock and a pending-event heap;
*processes* are Python generators that ``yield`` waitable
:class:`SimEvent` objects (timeouts, resource requests, store gets...).

The kernel is deliberately minimal but complete enough to model hosts,
CPUs, disks, network links and TCP connection establishment for the
paper's web-server experiments (Figs 3-6).  It is deterministic: runs
with the same seed and the same process structure replay exactly.
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Generator, Optional

__all__ = [
    "Simulator",
    "SimEvent",
    "Timeout",
    "Process",
    "Resource",
    "Store",
    "SimulationError",
]


class SimulationError(RuntimeError):
    """Raised for kernel misuse (yielding a triggered event twice, ...)."""


class SimEvent:
    """A one-shot occurrence processes can wait on.

    Life cycle: *pending* -> ``succeed`` -> callbacks run at the
    scheduled time.  Multiple processes may wait on the same event.
    """

    __slots__ = ("sim", "callbacks", "_value", "_triggered", "_scheduled")

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self.callbacks: list[Callable[[SimEvent], None]] = []
        self._value: Any = None
        self._triggered = False
        self._scheduled = False

    # -- state ---------------------------------------------------------
    @property
    def triggered(self) -> bool:
        return self._triggered

    @property
    def value(self) -> Any:
        if not self._triggered:
            raise SimulationError("value read before event triggered")
        return self._value

    # -- triggering ----------------------------------------------------
    def succeed(self, value: Any = None, delay: float = 0.0) -> "SimEvent":
        """Mark the event triggered; callbacks run after ``delay``."""
        if self._triggered:
            raise SimulationError("event triggered twice")
        self._triggered = True
        self._value = value
        self.sim._schedule(self, delay)
        return self


class Timeout(SimEvent):
    """An event that fires after a fixed delay."""

    __slots__ = ()

    def __init__(self, sim: "Simulator", delay: float, value: Any = None):
        if delay < 0:
            raise SimulationError(f"negative timeout delay {delay!r}")
        super().__init__(sim)
        self._triggered = True
        self._value = value
        sim._schedule(self, delay)


class Process(SimEvent):
    """A running generator; itself an event that fires when it returns."""

    __slots__ = ("generator", "name")

    def __init__(self, sim: "Simulator", generator: Generator, name: str = ""):
        super().__init__(sim)
        self.generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        # Bootstrap: run the first step at the current time.
        boot = SimEvent(sim)
        boot.callbacks.append(self._step)
        boot.succeed()

    def _step(self, trigger: SimEvent) -> None:
        try:
            target = self.generator.send(trigger.value)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        if not isinstance(target, SimEvent):
            raise SimulationError(
                f"process {self.name!r} yielded {target!r}, not a SimEvent"
            )
        if target.triggered and target._scheduled is False:
            # Event already processed: resume immediately at current time.
            resume = SimEvent(self.sim)
            resume.callbacks.append(self._step)
            resume._triggered = True
            resume._value = target._value
            self.sim._schedule(resume, 0.0)
        else:
            target.callbacks.append(self._step)


@dataclass(order=True)
class _HeapItem:
    time: float
    seq: int
    event: SimEvent = field(compare=False)


class Simulator:
    """The event loop: virtual clock plus pending-event heap."""

    def __init__(self):
        self._now = 0.0
        self._heap: list[_HeapItem] = []
        self._seq = itertools.count()
        self._processed = 0

    # -- time ----------------------------------------------------------
    @property
    def now(self) -> float:
        return self._now

    @property
    def events_processed(self) -> int:
        return self._processed

    # -- event creation ------------------------------------------------
    def event(self) -> SimEvent:
        return SimEvent(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        return Timeout(self, delay, value)

    def process(self, generator: Generator, name: str = "") -> Process:
        return Process(self, generator, name)

    # -- scheduling ----------------------------------------------------
    def _schedule(self, event: SimEvent, delay: float = 0.0) -> None:
        if delay < 0:
            raise SimulationError(f"negative delay {delay!r}")
        event._scheduled = True
        heapq.heappush(self._heap, _HeapItem(self._now + delay, next(self._seq), event))

    # -- running -------------------------------------------------------
    def step(self) -> None:
        item = heapq.heappop(self._heap)
        self._now = item.time
        event = item.event
        event._scheduled = False
        callbacks, event.callbacks = event.callbacks, []
        self._processed += 1
        for cb in callbacks:
            cb(event)

    def run(self, until: Optional[float] = None) -> None:
        """Run until the heap drains or the clock passes ``until``.

        When ``until`` is given, the clock is left exactly at ``until``
        even if the next event lies beyond it.
        """
        if until is not None and until < self._now:
            raise SimulationError(f"run(until={until}) is in the past")
        while self._heap:
            if until is not None and self._heap[0].time > until:
                self._now = until
                return
            self.step()
        if until is not None:
            self._now = max(self._now, until)


class Resource:
    """A counted FIFO resource (CPU cores, disk arms, worker slots).

    A process acquires a slot by yielding the event ``res.request()``
    returns, and passes that event to ``res.release`` when done.
    """

    def __init__(self, sim: Simulator, capacity: int = 1):
        if capacity < 1:
            raise SimulationError("capacity must be >= 1")
        self.sim = sim
        self.capacity = capacity
        self._users: set[SimEvent] = set()
        self._queue: deque[SimEvent] = deque()

    # -- introspection ---------------------------------------------------
    @property
    def count(self) -> int:
        """Number of slots currently held."""
        return len(self._users)

    @property
    def queue_length(self) -> int:
        return len(self._queue)

    # -- protocol ---------------------------------------------------------
    def request(self) -> SimEvent:
        req = SimEvent(self.sim)
        if len(self._users) < self.capacity and not self._queue:
            self._users.add(req)
            req.succeed(req)
        else:
            self._queue.append(req)
        return req

    def release(self, req: SimEvent) -> None:
        if req in self._users:
            self._users.discard(req)
        elif req.triggered:
            raise SimulationError("releasing a request that was never granted")
        else:
            # Cancel a queued request.
            self._queue.remove(req)
            return
        self._grant_next()

    def _grant_next(self) -> None:
        while self._queue and len(self._users) < self.capacity:
            nxt = self._queue.popleft()
            self._users.add(nxt)
            nxt.succeed(nxt)


class Store:
    """An unbounded (or bounded) FIFO buffer of items.

    ``put`` never blocks unless a ``capacity`` is given; ``get`` returns
    an event that fires when an item is available.
    """

    def __init__(self, sim: Simulator, capacity: Optional[int] = None):
        self.sim = sim
        self.capacity = capacity
        self.items: deque = deque()
        self._getters: deque[SimEvent] = deque()

    def __len__(self) -> int:
        return len(self.items)

    def try_put(self, item: Any) -> bool:
        """Non-blocking put; False when a bounded store is full."""
        if self.capacity is not None and len(self.items) >= self.capacity:
            return False
        if self._getters:
            getter = self._getters.popleft()
            getter.succeed(item)
        else:
            self.items.append(item)
        return True

    def put(self, item: Any) -> None:
        if not self.try_put(item):
            raise SimulationError("Store full; use try_put for bounded stores")

    def get(self) -> SimEvent:
        ev = SimEvent(self.sim)
        if self.items:
            ev.succeed(self.items.popleft())
        else:
            self._getters.append(ev)
        return ev
