"""Pluggable readiness-polling backends for the Reactor.

The :class:`~repro.runtime.event_source.SocketEventSource` used to talk
to :mod:`selectors` directly; this module abstracts that contact surface
into a tiny :class:`Poller` interface (register / modify / unregister /
poll over raw fds and interest masks) with two implementations:

* :class:`SelectPoller` — the portable ``selectors`` backend
  (``PollSelector`` where available).  Level-triggered, O(n) in the
  number of registered fds per wait, works everywhere.  It is the
  **test oracle**: the conformance parity plane replays identical
  sessions through both backends and diffs the outcomes.
* :class:`EpollPoller` — Linux ``select.epoll`` in edge-triggered mode
  (``EPOLLET``).  O(ready) per wait instead of O(registered), which is
  what keeps thousands of mostly-idle connections from taxing the hot
  loop.  Consumers must drain readiness to ``EAGAIN`` after every
  event.  A registration flagged :data:`ONESHOT` is disarmed once it
  delivers an event; :meth:`modify` re-arms it and re-posts the edge
  when the condition still holds (the event source's read pause).

Backend selection (:func:`make_poller`): explicit name, else the
``REPRO_POLLER`` environment variable, else epoll when the platform has
it.  Interest masks are the module-level ``READ``/``WRITE`` bits, kept
deliberately independent of both ``selectors`` and ``epoll`` constants.
"""

from __future__ import annotations

import os
import select
import selectors
from typing import Any, List, Optional, Tuple

__all__ = ["READ", "WRITE", "ONESHOT", "Poller", "SelectPoller",
           "EpollPoller", "available_pollers", "make_poller"]

#: interest-mask bits (also the ready-mask bits :meth:`Poller.poll` returns)
READ = 1
WRITE = 2
#: flag bit: disarm after each event until the next modify (epoll only)
ONESHOT = 4


class Poller:
    """Interface: readiness selection over raw file descriptors.

    ``data`` is an opaque cookie returned verbatim from :meth:`poll`;
    the event source stores the Handle there.  A mask without READ or
    WRITE means "keep the fd but report nothing" (the paused state).
    """

    #: backend name as accepted by :func:`make_poller`
    name = "abstract"
    #: True when consumers must drain readiness to EAGAIN per event
    edge_triggered = False

    def register(self, fd: int, mask: int, data: Any) -> None:
        raise NotImplementedError

    def modify(self, fd: int, mask: int, data: Any) -> None:
        raise NotImplementedError

    def unregister(self, fd: int) -> None:
        raise NotImplementedError

    def poll(self, timeout: Optional[float] = None
             ) -> List[Tuple[Any, int]]:
        """Wait up to ``timeout`` seconds (None blocks) and return
        ``(data, ready_mask)`` pairs."""
        raise NotImplementedError

    def close(self) -> None:
        pass


class SelectPoller(Poller):
    """Portable level-triggered backend over :mod:`selectors`.

    ``PollSelector`` is preferred over ``DefaultSelector`` on purpose:
    the point of this class is to *be* the scan-based oracle the epoll
    backend is measured against, and ``DefaultSelector`` would silently
    become epoll on Linux.  ``selectors`` cannot hold a zero interest
    mask, so fully-paused fds are parked in ``_inactive`` and re-added
    on the next non-zero :meth:`modify` — callers never see the dance.
    """

    name = "select"
    edge_triggered = False

    _MASK_MAP = {
        0: 0,
        READ: selectors.EVENT_READ,
        WRITE: selectors.EVENT_WRITE,
        READ | WRITE: selectors.EVENT_READ | selectors.EVENT_WRITE,
    }

    def __init__(self):
        try:
            self._selector = selectors.PollSelector()
        except AttributeError:  # pragma: no cover - platforms without poll()
            self._selector = selectors.SelectSelector()
        self._inactive: dict = {}  # fd -> data, parked with zero interest

    def register(self, fd: int, mask: int, data: Any) -> None:
        mask &= READ | WRITE
        if mask:
            self._selector.register(fd, self._MASK_MAP[mask], data)
        else:
            self._inactive[fd] = data

    def modify(self, fd: int, mask: int, data: Any) -> None:
        mask &= READ | WRITE
        if fd in self._inactive:
            if mask:
                del self._inactive[fd]
                self._selector.register(fd, self._MASK_MAP[mask], data)
            else:
                self._inactive[fd] = data
        elif mask:
            self._selector.modify(fd, self._MASK_MAP[mask], data)
        else:
            self._selector.unregister(fd)
            self._inactive[fd] = data

    def unregister(self, fd: int) -> None:
        if self._inactive.pop(fd, None) is not None:
            return
        self._selector.unregister(fd)

    def poll(self, timeout: Optional[float] = None
             ) -> List[Tuple[Any, int]]:
        ready = []
        for key, mask in self._selector.select(timeout):
            out = (READ if mask & selectors.EVENT_READ else 0) | \
                  (WRITE if mask & selectors.EVENT_WRITE else 0)
            ready.append((key.data, out))
        return ready

    def close(self) -> None:
        self._selector.close()
        self._inactive.clear()


class EpollPoller(Poller):
    """Linux edge-triggered backend over ``select.epoll``.

    Every registration carries ``EPOLLET``; a :data:`ONESHOT` one also
    ``EPOLLONESHOT``, so it reports nothing after one event until
    :meth:`modify` re-arms it.  ``EPOLLHUP``/``EPOLLERR``
    (always reported by the kernel, interest mask or not) surface as
    READ readiness so the read path observes the EOF/reset.  A closed
    fd silently leaves the epoll set, so :meth:`unregister` tolerates
    the kernel having beaten it to the cleanup — and :meth:`register`
    tolerates a reused fd number still sitting in the set from a
    fault-closed predecessor.
    """

    name = "epoll"
    edge_triggered = True

    def __init__(self):
        self._epoll = select.epoll()
        self._data: dict = {}  # fd -> (data, mask)

    def _events(self, mask: int) -> int:
        events = select.EPOLLET
        if mask & READ:
            events |= select.EPOLLIN
        if mask & WRITE:
            events |= select.EPOLLOUT
        if mask & ONESHOT:
            events |= select.EPOLLONESHOT
        return events

    def register(self, fd: int, mask: int, data: Any) -> None:
        # Publish the lookup entry BEFORE epoll_ctl: registration often
        # happens off the polling thread (at O1=2N one dispatcher thread
        # adds accepted fds while another sits in epoll_wait), and an fd
        # that is ready at ADD time delivers its edge immediately.  If
        # poll() woke with that event before the entry existed it would
        # discard it as a stale fd — and an edge, once consumed, is
        # never re-posted.
        self._data[fd] = (data, mask)
        try:
            self._epoll.register(fd, self._events(mask))
        except FileExistsError:
            # fd number reused while the stale entry lingered: repoint it
            self._epoll.modify(fd, self._events(mask))
        except BaseException:
            self._data.pop(fd, None)
            raise

    def modify(self, fd: int, mask: int, data: Any) -> None:
        if fd not in self._data:
            raise KeyError(fd)
        # EPOLL_CTL_MOD re-arms the edge and a one-shot fd: a
        # still-ready fd delivers a fresh event and wakes epoll_wait.
        self._epoll.modify(fd, self._events(mask))
        self._data[fd] = (data, mask)

    def unregister(self, fd: int) -> None:
        if self._data.pop(fd, None) is None:
            raise KeyError(fd)
        try:
            self._epoll.unregister(fd)
        except (OSError, FileNotFoundError):
            pass  # already closed: the kernel dropped it for us

    def poll(self, timeout: Optional[float] = None
             ) -> List[Tuple[Any, int]]:
        wait = -1 if timeout is None else max(timeout, 0.0)
        ready = []
        for fd, events in self._epoll.poll(wait):
            entry = self._data.get(fd)
            if entry is None:
                continue  # raced with unregister
            data, mask = entry
            out = 0
            if events & (select.EPOLLIN | select.EPOLLHUP | select.EPOLLERR):
                out |= READ
            if events & select.EPOLLOUT:
                out |= WRITE
            if out:
                ready.append((data, out))
        return ready

    def close(self) -> None:
        self._epoll.close()
        self._data.clear()


def available_pollers() -> Tuple[str, ...]:
    """Backend names usable on this platform (select is always first)."""
    names = ["select"]
    if hasattr(select, "epoll"):
        names.append("epoll")
    return tuple(names)


def make_poller(name: Optional[str] = None) -> Poller:
    """Build a backend: explicit ``name``, else ``$REPRO_POLLER``, else
    the fastest one the platform offers (epoll, falling back to select).
    """
    if name is None:
        name = os.environ.get("REPRO_POLLER") or None
    if name is None:
        name = "epoll" if hasattr(select, "epoll") else "select"
    if name == "select":
        return SelectPoller()
    if name == "epoll":
        if not hasattr(select, "epoll"):
            raise ValueError("epoll poller unavailable on this platform")
        return EpollPoller()
    raise ValueError(
        f"unknown poller {name!r} (expected one of {available_pollers()})")
