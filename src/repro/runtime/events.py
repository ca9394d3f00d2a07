"""Event model for generated N-Server frameworks.

The N-Server synthesises four patterns (section II): the *Reactor*
(readiness events), the *Proactor* and *Asynchronous Completion Tokens*
(completion events carrying a token that routes the result back to the
issuing context), and the *Acceptor-Connector* (connection events).

Table 2's first six rows (``Event``, ``CompletionEvent``,
``FileOpenEvent``, ``FileReadEvent``, ``Handle``, ``FileHandle``) were
generated subclasses of the classes here and in
:mod:`repro.runtime.handles`.  What the options changed in them was
never run, so the template emits none of them and generated frameworks
use the library classes directly (see ``TABLE2_DIVERGENCES`` in
:mod:`repro.co2p3s.nserver.table2`).  Nothing opens a file
asynchronously, so there is no file-open event.

Every event carries a ``priority`` field; the O8 scheduling queue
orders events by it.
"""

from __future__ import annotations

import itertools
from enum import Enum, auto
from typing import Any, Callable, Optional

__all__ = [
    "EventKind",
    "Event",
    "ReadableEvent",
    "WritableEvent",
    "AcceptEvent",
    "ConnectEvent",
    "TimerEvent",
    "UserEvent",
    "CompletionEvent",
    "FileReadEvent",
    "AsynchronousCompletionToken",
]

_event_ids = itertools.count(1)


class EventKind(Enum):
    """Readiness / completion categories the dispatcher switches on."""

    READABLE = auto()      # socket has data to read
    WRITABLE = auto()      # socket can accept more output
    ACCEPT = auto()        # new connection pending on a listen socket
    CONNECT = auto()       # outbound connect finished
    TIMER = auto()         # a timer fired
    USER = auto()          # application-defined event
    COMPLETION = auto()    # an asynchronous operation completed


class AsynchronousCompletionToken:
    """ACT pattern: opaque state attached to an async operation so the
    completion handler can resume the right context without lookup."""

    __slots__ = ("context", "on_complete")

    def __init__(
        self,
        context: Any = None,
        on_complete: Optional[Callable[["CompletionEvent"], None]] = None,
    ):
        self.context = context
        self.on_complete = on_complete


class Event:
    """Base event.  Concrete kinds below exist so handler code can
    dispatch on type rather than on an enum when that reads better."""

    kind: EventKind = EventKind.USER

    __slots__ = ("event_id", "handle", "payload", "priority", "created_at")

    def __init__(self, handle: Any = None, payload: Any = None,
                 priority: int = 0, created_at: float = 0.0):
        self.event_id = next(_event_ids)
        self.handle = handle
        self.payload = payload
        self.priority = priority
        self.created_at = created_at

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        """Debugging representation: kind, id, handle, priority."""
        return (f"<{type(self).__name__} #{self.event_id} "
                f"handle={self.handle!r} prio={self.priority}>")


class ReadableEvent(Event):
    """A socket has data to read."""

    kind = EventKind.READABLE
    __slots__ = ()


class WritableEvent(Event):
    """A socket can accept more output."""

    kind = EventKind.WRITABLE
    __slots__ = ()


class AcceptEvent(Event):
    """A new connection is pending on a listen socket."""

    kind = EventKind.ACCEPT
    __slots__ = ()


class ConnectEvent(Event):
    """An outbound connect finished."""

    kind = EventKind.CONNECT
    __slots__ = ()


class TimerEvent(Event):
    """A scheduled timer fired."""

    kind = EventKind.TIMER
    __slots__ = ()


class UserEvent(Event):
    """An application-defined event."""

    kind = EventKind.USER
    __slots__ = ()



class CompletionEvent(Event):
    """Posted when an asynchronous operation finishes (Proactor/ACT
    emulation, option O4).  ``token`` routes the result; ``error`` is the
    exception when the operation failed."""

    kind = EventKind.COMPLETION
    __slots__ = ("token", "error")

    def __init__(self, token: AsynchronousCompletionToken,
                 payload: Any = None, error: Optional[BaseException] = None,
                 priority: int = 0):
        super().__init__(handle=None, payload=payload, priority=priority)
        self.token = token
        self.error = error

    @property
    def ok(self) -> bool:
        """True when the operation completed without error."""
        return self.error is None

    def complete(self) -> None:
        """Invoke the token's completion callback, if any."""
        if self.token.on_complete is not None:
            self.token.on_complete(self)


class FileReadEvent(CompletionEvent):
    """Completion of an emulated non-blocking file *read*."""

    __slots__ = ()
