"""Event model for generated N-Server frameworks.

The N-Server synthesises four patterns (section II): the *Reactor*
(readiness events), the *Proactor* and *Asynchronous Completion Tokens*
(completion events carrying a token that routes the result back to the
issuing context), and the *Acceptor-Connector* (connection events).

Table 2's first six rows are the classes here: ``Event``,
``CompletionEvent``, ``FileOpenEvent``, ``FileReadEvent`` plus the
``Handle``/``FileHandle`` pair in :mod:`repro.runtime.handles`.

Events carry an optional ``priority`` field — present in the paper only
when O8 (event scheduling) is generated; here it always exists at the
library layer (the *generated* Event class omits the field when O8=No,
which is what Table 2's ``Event x O8 = +`` records).
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
    "FileOpenEvent",
    "FileReadEvent",
    "ShutdownEvent",
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
    SHUTDOWN = auto()      # server is stopping


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


class ShutdownEvent(Event):
    """The server is stopping."""

    kind = EventKind.SHUTDOWN
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


class FileOpenEvent(CompletionEvent):
    """Completion of an emulated non-blocking file *open* (exists in the
    generated framework only when O4=Asynchronous; cache-aware when O6)."""

    __slots__ = ()


class FileReadEvent(CompletionEvent):
    """Completion of an emulated non-blocking file *read*."""

    __slots__ = ()
