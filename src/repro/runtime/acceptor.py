"""Acceptor-Connector (Schmidt): separates connection establishment from
data communication.

The Acceptor owns the listening socket, consumes
:class:`~repro.runtime.events.AcceptEvent`, asks the overload controller
for permission (O9), wraps each accepted socket in a *Communicator* via
the factory callback, and registers it with the Event Source.  The
Connector establishes outbound connections (used by COPS-FTP for active
data connections).
"""

from __future__ import annotations

import errno
import socket
import time
from typing import TYPE_CHECKING, Callable, Optional

from repro.obs.flight import GLOBAL as GLOBAL_FLIGHT
from repro.runtime.event_source import SocketEventSource
from repro.runtime.events import AcceptEvent
from repro.runtime.handles import ListenHandle, SocketHandle
from repro.runtime.nulls import NULL_PROFILER

if TYPE_CHECKING:
    from repro.runtime.overload import OverloadController

__all__ = ["Acceptor", "Connector", "is_transient_accept_error"]


# -- accept-loop error classification ----------------------------------------

#: transient per-connection failures: the aborted connection is consumed
#: from the backlog (or the call was merely interrupted), so retrying the
#: accept loop immediately is correct and cannot spin.
_TRANSIENT_ACCEPT_ERRNOS = frozenset(
    e for e in (
        getattr(errno, "ECONNABORTED", None),
        getattr(errno, "EINTR", None),
        getattr(errno, "EPROTO", None),
    ) if e is not None)


def is_transient_accept_error(exc: OSError) -> bool:
    """True when the accept loop should just try again; False for
    resource exhaustion (``EMFILE``/``ENFILE``/``ENOBUFS``/``ENOMEM``)
    and anything unrecognised, where the right move is to back off and
    shed — the kernel backlog keeps the connections queued meanwhile."""
    return getattr(exc, "errno", None) in _TRANSIENT_ACCEPT_ERRNOS


class Acceptor:
    """Accept-side half of the Acceptor-Connector pattern.

    ``on_connection(handle)`` is the generated framework's hook: it
    builds the Communicator for the new connection.  The Acceptor keeps
    accepting in a loop per AcceptEvent (a single readiness notification
    may cover several queued connections).
    """

    def __init__(
        self,
        listen: ListenHandle,
        source: SocketEventSource,
        on_connection: Callable[[SocketHandle], None],
        overload: Optional[OverloadController] = None,
        profiler=NULL_PROFILER,
        clock=time.monotonic,
        backoff: float = 0.05,
        register_accepted: bool = True,
        flight=None,
        shedding=None,
        accept_batch: Optional[int] = None,
    ):
        self.listen = listen
        self.source = source
        self.on_connection = on_connection
        self.overload = overload
        #: O17 :class:`~repro.runtime.degradation.SheddingPolicy` — when
        #: set, overload produces explicit decisions (cheap 503 + close)
        #: and every accepted peer passes the per-client rate limit;
        #: when None the paper's silent-postpone behaviour is unchanged.
        self.shedding = shedding
        self.profiler = profiler
        #: lifecycle-event ring; always on (defaults to the process-wide
        #: recorder when the owning server did not pass its own).  The
        #: listen handle records the accept events itself (so generated
        #: accept loops get them too) — point it at the same ring.
        self.flight = flight if flight is not None else GLOBAL_FLIGHT
        listen.flight = self.flight
        self.clock = clock
        self.backoff = backoff
        #: when False the ``on_connection`` callback owns registration —
        #: a sharded accept plane hands the handle to a shard's own
        #: Event Source instead of the acceptor's.
        self.register_accepted = register_accepted
        #: bound on accepts per AcceptEvent (None = drain to EAGAIN).
        #: Hitting the bound re-posts the listen handle via the event
        #: source's ``force_ready`` so the rest of the backlog is picked
        #: up next tick — required under edge-triggered backends, where
        #: an un-drained backlog produces no further notifications.
        self.accept_batch = accept_batch
        self.accepted = 0
        self.postponed = 0
        self.rebatched = 0
        self.rejected = 0
        self.accept_errors = 0

    def open(self) -> None:
        """Register the listen handle so AcceptEvents start flowing."""
        self.source.register(self.listen)

    def handle(self, event: AcceptEvent) -> None:
        """Drain the kernel accept queue (subject to overload control),
        taking at most :attr:`accept_batch` connections per event."""
        taken = 0
        while True:
            if self.accept_batch is not None and taken >= self.accept_batch:
                self.rebatched += 1
                self._repost()
                return
            decision = None
            if self.shedding is not None:
                decision = self.shedding.admit_accept()
                if decision.action == "postpone":
                    # Explicitly chosen postpone (on_overload="postpone"):
                    # the policy already recorded the reason.
                    self.postponed += 1
                    self._repost()
                    return
            elif self.overload is not None and not self.overload.accepting():
                # Postpone: leave remaining connections in the kernel
                # backlog; they will surface as another AcceptEvent —
                # level-triggered backends re-report them per poll,
                # edge-triggered ones need the explicit re-post.
                self.postponed += 1
                self.flight.record("shed", "accept postponed: overloaded")
                self._repost()
                return
            try:
                handle = self.listen.try_accept()
            except OSError as exc:
                # accept() must never crash the dispatcher.  A connection
                # aborted in the backlog (or an interrupted call) is
                # consumed — retry at once.  Descriptor/buffer exhaustion
                # (EMFILE & co.) will not clear by retrying: back off
                # briefly and shed; the level-triggered source re-raises
                # the AcceptEvent while the backlog is non-empty.
                self.accept_errors += 1
                self.profiler.accept_error()
                if is_transient_accept_error(exc):
                    continue
                time.sleep(self.backoff)
                self._repost()
                return
            if handle is None:
                return
            if decision is not None and not decision.admitted:
                # Overload reject: keep draining the backlog, answering
                # each waiting client with the cheap canned payload
                # instead of stranding it (the policy's whole point).
                self._reject(handle, decision)
                continue
            if self.shedding is not None:
                client = handle.name.rsplit(":", 1)[0]
                limited = self.shedding.admit_client(
                    client, getattr(handle, "trace_id", 0))
                if not limited.admitted:
                    # admit_client recorded the shed already
                    self._reject(handle, limited, record=False)
                    continue
            handle.last_activity = self.clock()
            taken += 1
            self.accepted += 1
            self.profiler.connection_accepted()
            if self.overload is not None:
                self.overload.connection_opened()
            self.on_connection(handle)
            if self.register_accepted:
                self.source.register(handle)

    def _repost(self) -> None:
        """Re-post the listen handle when leaving backlog behind on an
        edge-triggered source (level-triggered ones re-report it free)."""
        if getattr(self.source, "edge_triggered", False):
            self.source.force_ready(self.listen)

    def _reject(self, handle: SocketHandle, decision, record: bool = True) -> None:
        """Cheap write-path rejection: canned payload, flush, close.

        No Communicator is built, no handler runs, nothing touches disk —
        the accepted socket only ever sees the preformatted bytes (empty
        payload means reject-by-close for payload-less protocols).
        """
        self.rejected += 1
        if record:
            self.shedding.record_rejection(
                decision, f"client={handle.name}",
                getattr(handle, "trace_id", 0))
        from repro.runtime.degradation import reject_handle  # O17 only

        reject_handle(handle, self.shedding.reject_payload)

    def close(self) -> None:
        """Deregister and close the listen handle (idempotent)."""
        if self.listen.closed:  # drain() closes first; stop() closes again
            return
        self.source.deregister(self.listen)
        self.listen.close()


class Connector:
    """Connect-side half: synchronous establishment of outbound
    connections, returning a non-blocking :class:`SocketHandle`.

    The paper's generated servers use this from Event Processor threads
    (where blocking briefly is acceptable); a fully asynchronous connect
    would surface as a :class:`~repro.runtime.events.ConnectEvent`.
    """

    def __init__(self, timeout: float = 5.0, handle_cls: type = SocketHandle):
        self.timeout = timeout
        self.handle_cls = handle_cls
        self.connected = 0

    def connect(self, host: str, port: int) -> SocketHandle:
        """Establish one outbound connection; returns its non-blocking handle."""
        sock = socket.create_connection((host, port), timeout=self.timeout)
        self.connected += 1
        return self.handle_cls(sock)
