"""Acceptor-Connector (Schmidt): separates connection establishment from
data communication.

The accept side is generated: each framework's Acceptor Event Handler
drains the listener, and its O13 ``safe_accept`` classifies accept
errors with :func:`is_transient_accept_error`.  The
:class:`Connector` establishes outbound connections (used by COPS-FTP
for active data connections).
"""

from __future__ import annotations

import errno
import socket

from repro.runtime.handles import SocketHandle

__all__ = ["Connector", "is_transient_accept_error"]


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


class Connector:
    """Connect-side half: synchronous establishment of outbound
    connections, returning a non-blocking :class:`SocketHandle`.

    The paper's generated servers use this from Event Processor threads
    (where blocking briefly is acceptable); a fully asynchronous connect
    would surface as a :class:`~repro.runtime.events.ConnectEvent`.
    """

    def __init__(self, timeout: float = 5.0):
        self.timeout = timeout
        self.connected = 0

    def connect(self, host: str, port: int) -> SocketHandle:
        """Establish one outbound connection; returns its non-blocking handle."""
        sock = socket.create_connection((host, port), timeout=self.timeout)
        self.connected += 1
        return SocketHandle(sock)
