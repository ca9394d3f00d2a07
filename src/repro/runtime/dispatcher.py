"""Event Dispatcher (Table 2 row "Event Dispatcher"; options O1, O2, O4).

In the extended-Reactor design the dispatcher "is only responsible for
querying the Event Source for ready events and then passing those ready
events to the Event Processor for processing".  When O2=No there is no
separate processor pool and events are handled inline on the dispatcher
thread — a standard Reactor.

O1 picks the number of dispatcher threads (1 or 2N).  Multiple
dispatcher threads share the Event Source behind a poll lock; the win is
overlapping inline handling, which only matters for the O2=No
configuration.
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, List, Optional

from repro.runtime.event_source import EventSource
from repro.runtime.events import Event, EventKind

__all__ = ["EventDispatcher"]


class EventDispatcher:
    """Polls an :class:`EventSource` and routes events by kind.

    ``route(kind, target)`` installs where each event kind goes: the
    target is any callable; generated frameworks pass either an Event
    Processor's ``submit`` (O2=Yes) or an event handler's ``handle``
    (O2=No, inline Reactor behaviour).
    """

    def __init__(self, source: EventSource, threads: int = 1,
                 poll_timeout: float = 0.1):
        if threads < 1:
            raise ValueError("threads must be >= 1")
        self.source = source
        self.poll_timeout = poll_timeout
        self._routes: Dict[EventKind, Callable[[Event], None]] = {}
        self._default_route: Optional[Callable[[Event], None]] = None
        self._threads_wanted = threads
        self._threads: List[threading.Thread] = []
        self._poll_lock = threading.Lock()
        self._running = threading.Event()
        self.dispatched = 0
        self.unrouted = 0

    # -- routing -----------------------------------------------------------
    def route(self, kind: EventKind, target: Callable[[Event], None]) -> None:
        self._routes[kind] = target

    def route_default(self, target: Callable[[Event], None]) -> None:
        self._default_route = target

    def dispatch(self, event: Event) -> None:
        """Route one event (public so single-step tests and the generated
        Reactor-mode loop can drive it directly)."""
        target = self._routes.get(event.kind, self._default_route)
        if target is None:
            self.unrouted += 1
            return
        self.dispatched += 1
        target(event)

    # -- the loop --------------------------------------------------------
    def poll_once(self, timeout: Optional[float] = None) -> int:
        """One poll+dispatch cycle; returns events dispatched."""
        with self._poll_lock:
            events = self.source.poll(self.poll_timeout if timeout is None
                                      else timeout)
        for event in events:
            self.dispatch(event)
        return len(events)

    def _loop(self) -> None:
        while self._running.is_set():
            self.poll_once()

    # -- lifecycle ---------------------------------------------------------
    @property
    def running(self) -> bool:
        return self._running.is_set()

    def start(self) -> None:
        if self._running.is_set():
            return
        self._running.set()
        for i in range(self._threads_wanted):
            t = threading.Thread(target=self._loop, daemon=True,
                                 name=f"dispatcher-{i}")
            self._threads.append(t)
            t.start()

    def stop(self, timeout: float = 5.0) -> None:
        if not self._running.is_set():
            return
        self._running.clear()
        self.source.wakeup()
        for t in self._threads:
            t.join(timeout=timeout)
        self._threads.clear()
