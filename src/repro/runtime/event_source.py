"""Event Sources (Decorator pattern), as section IV describes:

    "an Event Source component that complies with the Decorator pattern
    is added.  Besides managing multiple event sources, it is also
    responsible for registering and deregistering Event Handlers and
    polling ready events."

The concrete base source is :class:`SocketEventSource` (readiness
selection over a pluggable :class:`~repro.runtime.poller.Poller`
backend — portable ``selectors`` or edge-triggered Linux epoll).
Additional sources wrap an inner source decorator-style —
:class:`TimerEventSource` and :class:`QueueEventSource` merge their own
ready events into whatever the inner source returns, and clamp the poll
timeout so their events are not delayed.  New kinds of sources are
added by writing one more decorator, which is the extensibility
argument the paper makes.
"""

from __future__ import annotations

import socket
import threading
import time
from collections import deque
from typing import Callable, List, Optional

from repro.runtime.events import (
    AcceptEvent,
    Event,
    ReadableEvent,
    TimerEvent,
    WritableEvent,
)
from repro.runtime.handles import Handle, ListenHandle, SocketHandle
from repro.runtime.poller import ONESHOT, READ, WRITE, Poller, make_poller
from repro.runtime.timerwheel import TimerWheel

__all__ = [
    "EventSource",
    "NullEventSource",
    "SocketEventSource",
    "EventSourceDecorator",
    "TimerEventSource",
    "QueueEventSource",
]


class EventSource:
    """Interface: poll for ready events, manage handle registration."""

    def poll(self, timeout: Optional[float] = None) -> List[Event]:
        raise NotImplementedError

    def register(self, handle: Handle, **interest) -> None:
        raise NotImplementedError

    def deregister(self, handle: Handle) -> None:
        raise NotImplementedError

    def wakeup(self) -> None:
        """Interrupt a blocking poll from another thread (no-op default)."""

    def close(self) -> None:
        pass


class NullEventSource(EventSource):
    """Terminal inner source for decorator chains with no socket base."""

    def poll(self, timeout: Optional[float] = None) -> List[Event]:
        if timeout:
            time.sleep(min(timeout, 0.01))
        return []

    def register(self, handle: Handle, **interest) -> None:
        raise TypeError("NullEventSource accepts no handles")

    def deregister(self, handle: Handle) -> None:
        raise TypeError("NullEventSource accepts no handles")


class SocketEventSource(EventSource):
    """Readiness selection over socket handles.

    * ``ListenHandle`` registration yields :class:`AcceptEvent`.
    * ``SocketHandle`` registration yields :class:`ReadableEvent` unless
      the handle's read interest is paused, and :class:`WritableEvent`
      while the handle has buffered output.

    The kernel-facing half lives behind a
    :class:`~repro.runtime.poller.Poller` (``poller=`` accepts an
    instance, a backend name, or None for the
    ``REPRO_POLLER``/platform default).  The source keeps only an fd →
    handle map; per-connection state is a flag on the handle, so a new
    handle starts clear even at a freed one's address.  A call naming a
    handle not registered for its fd (a late call for a closed
    connection whose fd was reused) changes nothing.

    Sockets are registered :data:`~repro.runtime.poller.ONESHOT`: epoll
    disarms one once it delivers, so :meth:`pause` only marks the
    handle, and the read step's :meth:`resume` re-arms it.  Under the
    level-triggered select backend :meth:`pause` drops READ instead.

    A self-pipe (socketpair) lets other threads interrupt a blocking
    poll, for posted events and the select backend's interest changes.
    """

    def __init__(self, poller=None):
        self._poller: Poller = (poller if isinstance(poller, Poller)
                                else make_poller(poller))
        # RLock: poll and mask updates may nest through callbacks.
        self._lock = threading.RLock()
        self._handles: dict = {}
        self._forced: deque = deque()   # listeners owed an AcceptEvent
        self._wake_recv, self._wake_send = socket.socketpair()
        self._wake_recv.setblocking(False)
        self._poller.register(self._wake_recv.fileno(), READ, None)
        self._closed = False

    @property
    def poller_name(self) -> str:
        """Active backend name ("select" / "epoll")."""
        return self._poller.name

    @property
    def edge_triggered(self) -> bool:
        return self._poller.edge_triggered

    def register(self, handle: Handle, **interest) -> None:
        if not isinstance(handle, (SocketHandle, ListenHandle)):
            raise TypeError(f"cannot select on {type(handle).__name__}")
        with self._lock:
            fd = handle.fileno()
            if fd in self._handles:
                # A stale registration (socket closed without a
                # deregister) gives way to the fd's new handle.
                try:
                    self._poller.unregister(fd)
                except (KeyError, ValueError, OSError):
                    pass
            self._handles[fd] = handle
            self._poller.register(fd, self._mask(handle), handle)

    def deregister(self, handle: Handle) -> None:
        with self._lock:
            # A handle closed before its teardown (a reset mid-send) may
            # find its fd already re-registered by a new connection.
            if self._registered(handle):
                fd = handle.fileno()
                del self._handles[fd]
                try:
                    self._poller.unregister(fd)
                except (KeyError, ValueError, OSError):
                    pass

    def update_interest(self, handle: SocketHandle) -> None:
        """Re-arm the handle with its current mask (WRITE while output is
        buffered, READ unless paused); only poll(2) needs a wake-up."""
        with self._lock:
            self._modify(handle)
        if not self.edge_triggered:
            self.wakeup()

    def pause(self, handle: SocketHandle) -> None:
        """Stop reporting readability until :meth:`resume`.

        Called by the dispatcher when it hands a ReadableEvent to the
        Event Processor, so readiness does not storm duplicate events
        while the event waits in the queue.  Under epoll the delivery
        already disarmed the fd.
        """
        with self._lock:
            if self._registered(handle):
                handle.paused = True
                if not self.edge_triggered:
                    self._modify(handle)

    def resume(self, handle: SocketHandle) -> None:
        """Re-arm readability once the connection has read."""
        with self._lock:
            if not self._registered(handle):
                return
            handle.paused = False
            self._modify(handle)
        if not self.edge_triggered:
            self.wakeup()

    def rearm_listener(self, listen: ListenHandle) -> None:
        """Re-post a listener whose accept drain stopped before EAGAIN
        on the next poll: an edge-triggered backend never repeats a
        consumed edge (a level-triggered one needs nothing)."""
        if not self.edge_triggered:
            return
        with self._lock:
            if not self._registered(listen) or listen.forced:
                return
            listen.forced = True
            self._forced.append(listen)
        self.wakeup()

    def _mask(self, handle: Handle) -> int:
        if isinstance(handle, ListenHandle):
            return READ
        read = 0 if handle.paused else READ
        write = WRITE if handle.wants_write else 0
        return ONESHOT | read | write

    def _registered(self, handle: Handle) -> bool:
        # call under the lock
        return self._handles.get(handle.fileno()) is handle

    def _modify(self, handle: SocketHandle) -> None:
        # call under the lock; the poller entry of a reused fd belongs
        # to the new connection
        if not handle.closed and self._registered(handle):
            try:
                self._poller.modify(handle.fileno(), self._mask(handle),
                                    handle)
            except (KeyError, ValueError, OSError):
                pass

    def wakeup(self) -> None:
        try:
            self._wake_send.send(b"\x00")
        except OSError:  # pragma: no cover - closing race
            pass

    def poll(self, timeout: Optional[float] = None) -> List[Event]:
        if self._closed:
            return []
        if self._forced:   # unlocked: a racing re-post also wakes us
            timeout = 0.0
        ready: List[Event] = []
        for data, mask in self._poller.poll(timeout):
            if data is None:  # the wakeup pipe
                try:
                    while self._wake_recv.recv(4096):
                        pass
                except BlockingIOError:
                    pass
                continue
            self._append_events(ready, data, mask)
        with self._lock:
            forced, self._forced = self._forced, deque()
            for listen in forced:
                listen.forced = False
                if self._registered(listen):
                    ready.append(AcceptEvent(handle=listen))
        return ready

    def _append_events(self, ready: List[Event], handle: Handle,
                       mask: int) -> None:
        if isinstance(handle, ListenHandle):
            ready.append(AcceptEvent(handle=handle))
            return
        # epoll reports HUP/ERR regardless of the interest mask: a
        # paused connection's readability stays suppressed here.
        if mask & READ and not handle.paused:
            ready.append(ReadableEvent(handle=handle))
        if mask & WRITE:
            ready.append(WritableEvent(handle=handle))

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._poller.close()
        self._wake_recv.close()
        self._wake_send.close()


class EventSourceDecorator(EventSource):
    """Base decorator: defaults delegate everything to the inner source."""

    def __init__(self, inner: EventSource):
        self.inner = inner

    def poll(self, timeout: Optional[float] = None) -> List[Event]:
        return self.inner.poll(timeout)

    def register(self, handle: Handle, **interest) -> None:
        self.inner.register(handle, **interest)

    def deregister(self, handle: Handle) -> None:
        self.inner.deregister(handle)

    def wakeup(self) -> None:
        self.inner.wakeup()

    def close(self) -> None:
        self.inner.close()


class TimerEventSource(EventSourceDecorator):
    """Adds one-shot timers.  ``schedule(delay, payload)`` returns a
    cancellation token; fired timers surface as :class:`TimerEvent`.

    Timers live on a hashed :class:`~repro.runtime.timerwheel.TimerWheel`
    — schedule, cancel and re-arm are O(1); a fire happens on the first
    poll after the timer's wheel-tick boundary (never early, late by
    less than one wheel tick).
    """

    def __init__(self, inner: EventSource, clock=time.monotonic):
        super().__init__(inner)
        self._clock = clock
        self.wheel = TimerWheel(tick=0.005, slots=512, clock=clock)

    def schedule(self, delay: float, payload=None) -> int:
        token = self.wheel.schedule(delay, payload)
        self.wakeup()
        return token

    def cancel(self, token: int) -> None:
        self.wheel.cancel(token)

    def poll(self, timeout: Optional[float] = None) -> List[Event]:
        deadline = self.wheel.next_deadline()
        if deadline is not None:
            remaining = max(0.0, deadline - self._clock())
            timeout = remaining if timeout is None else min(timeout, remaining)
        events = self.inner.poll(timeout)
        for _deadline, _token, payload in self.wheel.advance(self._clock()):
            events.append(TimerEvent(payload=payload))
        return events


class QueueEventSource(EventSourceDecorator):
    """Adds application-posted events (the paper's "other application
    components" source).  ``post`` is thread-safe and wakes the poll."""

    def __init__(self, inner: EventSource):
        super().__init__(inner)
        self._queue: deque = deque()
        self._lock = threading.Lock()

    def post(self, event: Event) -> None:
        with self._lock:
            self._queue.append(event)
        self.wakeup()

    def pending(self) -> int:
        with self._lock:
            return len(self._queue)

    def poll(self, timeout: Optional[float] = None) -> List[Event]:
        with self._lock:
            has_pending = bool(self._queue)
        events = self.inner.poll(0.0 if has_pending else timeout)
        with self._lock:
            while self._queue:
                events.append(self._queue.popleft())
        return events
