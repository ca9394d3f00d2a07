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
from repro.runtime.poller import READ, WRITE, Poller, make_poller
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

    def force_ready(self, handle: Handle) -> None:
        """Ask for one synthetic readiness event for ``handle`` on the
        next poll (no-op default).  An accept loop that stops draining
        early re-posts its listen socket this way — essential under
        edge-triggered backends, where the kernel will not repeat the
        notification."""

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
    * ``SocketHandle`` registration yields :class:`ReadableEvent` always
      and :class:`WritableEvent` while the handle has buffered output.

    The kernel-facing half lives behind a
    :class:`~repro.runtime.poller.Poller` (``poller=`` accepts an
    instance, a backend name, or None for the
    ``REPRO_POLLER``/platform default).  Under the edge-triggered epoll
    backend the pause/resume one-shot protocol still works because
    ``EPOLL_CTL_MOD`` re-arms the edge — a resume with bytes already
    pending delivers a fresh event.

    A self-pipe (socketpair) lets other threads interrupt a blocking
    poll — needed when an Event Processor thread queues output bytes on
    a connection and the dispatcher must start watching writability.
    """

    def __init__(self, poller=None):
        self._poller: Poller = (poller if isinstance(poller, Poller)
                                else make_poller(poller))
        # RLock: poll and mask updates may nest through callbacks.
        self._lock = threading.RLock()
        self._handles: dict = {}
        self._paused: set = set()
        self._forced: deque = deque()   # handles owed a synthetic event
        self._forced_ids: set = set()
        import socket as _socket

        self._wake_recv, self._wake_send = _socket.socketpair()
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
                # deregister) must not kill the dispatcher when the
                # kernel reuses the fd: drop it and register the new
                # handle in its place.
                self._paused.discard(id(self._handles[fd]))
                try:
                    self._poller.unregister(fd)
                except (KeyError, ValueError, OSError):
                    pass
            self._handles[fd] = handle
            self._poller.register(fd, self._mask(handle), handle)

    def deregister(self, handle: Handle) -> None:
        with self._lock:
            fd = handle.fileno()
            self._paused.discard(id(handle))
            if id(handle) in self._forced_ids:
                self._forced_ids.discard(id(handle))
                try:
                    self._forced.remove(handle)
                except ValueError:  # pragma: no cover - popped concurrently
                    pass
            # A handle whose socket closed before its teardown (a reset
            # mid-send) may find its fd number already re-registered by
            # a new connection: that entry is not this handle's to drop.
            if self._handles.get(fd) is handle:
                del self._handles[fd]
                try:
                    self._poller.unregister(fd)
                except (KeyError, ValueError, OSError):
                    pass

    def update_interest(self, handle: SocketHandle) -> None:
        """Re-arm write interest to match the handle's buffered output.
        Only a level-triggered backend's poll(2), which waits on a
        snapshot of the fd set, needs the dispatcher woken for it.

        Under epoll this is also the edge re-arm: modifying interest on
        a still-ready fd re-delivers the event, so a reader that had to
        stop mid-drain gets called again."""
        self._apply_mask(handle)
        if not self.edge_triggered:
            self.wakeup()

    def pause(self, handle: SocketHandle) -> None:
        """One-shot semantics: stop watching readability until resumed.

        Called by the dispatcher when it hands a ReadableEvent to the
        Event Processor, so readiness does not storm duplicate events
        while the event waits in the queue.
        """
        with self._lock:
            self._paused.add(id(handle))
        self._apply_mask(handle)

    def resume(self, handle: SocketHandle) -> None:
        """Re-arm readability once the connection has read."""
        with self._lock:
            self._paused.discard(id(handle))
        if handle.closed:
            return
        self._apply_mask(handle)
        self.wakeup()

    def force_ready(self, handle: Handle) -> None:
        """Queue one synthetic readiness event for a registered handle.

        The next poll returns immediately and reports the handle ready
        (AcceptEvent for a listener, ReadableEvent otherwise) on top of
        whatever the kernel says.  Used by :meth:`rearm_listener` when
        an accept drain stops before EAGAIN, and safe under both
        backends."""
        with self._lock:
            if handle.fileno() not in self._handles:
                return
            if id(handle) not in self._forced_ids:
                self._forced_ids.add(id(handle))
                self._forced.append(handle)
        self.wakeup()

    def rearm_listener(self, listen: ListenHandle) -> None:
        """Re-post a listener whose accept drain stopped before EAGAIN,
        if the backend needs it.  An edge-triggered backend never
        repeats a consumed edge, so the backlog would strand until the
        next connection arrives; a level-triggered one reports the
        backlog again on every poll, so this is a no-op there."""
        if self.edge_triggered:
            self.force_ready(listen)

    def _mask(self, handle: Handle) -> int:
        if isinstance(handle, ListenHandle):
            return READ
        read = READ if id(handle) not in self._paused else 0
        write = WRITE if handle.wants_write else 0
        return read | write

    def _apply_mask(self, handle: SocketHandle) -> None:
        if handle.closed:
            return
        with self._lock:
            fd = handle.fileno()
            if self._handles.get(fd) is not handle:
                # Deregistered entirely, or a late call from a closed
                # handle whose fd the kernel already gave to a new
                # connection: the poller entry belongs to that one.
                return
            try:
                self._poller.modify(fd, self._mask(handle), handle)
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
        with self._lock:
            if self._forced:
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
            self._forced_ids.clear()
        for handle in forced:
            if handle.fileno() in self._handles:
                self._append_events(ready, handle, READ)
        return ready

    def _append_events(self, ready: List[Event], handle: Handle,
                       mask: int) -> None:
        if isinstance(handle, ListenHandle):
            ready.append(AcceptEvent(handle=handle))
            return
        # epoll reports HUP/ERR regardless of the interest mask; a
        # paused connection's readability stays suppressed here so the
        # one-shot protocol holds on every backend.
        if mask & READ and id(handle) not in self._paused:
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

    def force_ready(self, handle: Handle) -> None:
        self.inner.force_ready(handle)

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

    def __init__(self, inner: EventSource, clock=time.monotonic,
                 wheel: Optional[TimerWheel] = None):
        super().__init__(inner)
        self._clock = clock
        self.wheel = wheel if wheel is not None else TimerWheel(
            tick=0.005, slots=512, clock=clock)

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
