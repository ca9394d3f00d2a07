"""Handles: the I/O endpoints events refer to.

A *Handle* wraps an OS-level endpoint (socket, file) behind the small
interface the dispatcher and event handlers need.  Table 2 lists
``Handle`` (whose generated body depends on O1) and ``FileHandle``
(exists when O4=Asynchronous, body depends on O6).
"""

from __future__ import annotations

import os
import socket
import threading
from typing import Optional

from repro.obs.flight import GLOBAL as GLOBAL_FLIGHT
from repro.obs.tracing import next_trace_id

__all__ = ["Handle", "SocketHandle", "ListenHandle", "FileHandle"]


class Handle:
    """Base handle: identity plus liveness."""

    def __init__(self, name: str = ""):
        self.name = name
        self._closed = False

    @property
    def closed(self) -> bool:
        return self._closed

    def fileno(self) -> int:
        raise NotImplementedError

    def close(self) -> None:
        self._closed = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "closed" if self._closed else "open"
        return f"<{type(self).__name__} {self.name or hex(id(self))} {state}>"


class SocketHandle(Handle):
    """A connected, non-blocking TCP socket."""

    def __init__(self, sock: socket.socket, name: str = ""):
        super().__init__(name or _peer_name(sock))
        self.sock = sock
        sock.setblocking(False)
        #: bytes produced by the application, waiting for writability
        self.out_buffer = bytearray()
        #: monotonic timestamp of the last I/O (idle reaping, option O7)
        self.last_activity = 0.0
        #: end-to-end trace id, stamped at the accept boundary and
        #: carried through dispatch, shard placement and the write path
        self.trace_id = next_trace_id()
        # Cached so a fault-closed socket (fileno() == -1) can still be
        # deregistered; -1 for the fake sockets tests wire in, which
        # never meet a selector.
        fileno = getattr(sock, "fileno", None)
        self._fd = fileno() if fileno is not None else -1
        # Serialises concurrent flushers: a completion thread inside
        # send_bytes and the dispatcher answering a WritableEvent would
        # otherwise both snapshot out_buffer and put the same bytes on
        # the wire twice.
        self._send_lock = threading.Lock()
        #: read :class:`~repro.runtime.buffers.BufferPool` — attached by
        #: the event source at registration; None reads into a private
        #: buffer instead (handles never registered anywhere)
        self.read_pool = None
        self._read_owner = None     # PooledBuffer checked out of read_pool
        self._read_buf: Optional[bytearray] = None
        # Guards the recv buffer against the close path releasing it to
        # the pool mid-read (which would let a new owner scribble over
        # bytes still being parsed).  Reentrant: recv_into_buffer holds
        # it across try_recv plus the copy-out.
        self._read_lock = threading.RLock()

    def fileno(self) -> int:
        # Cached at creation: a fault-closed socket reports -1, and the
        # event source must still be able to deregister the real fd
        # before the kernel hands it to a new connection.
        return self._fd

    def try_recv(self, max_bytes: int = 65536) -> Optional[bytes]:
        """Non-blocking read: received bytes (as a ``memoryview`` over
        the connection's reusable read buffer — copy before the next
        call), b'' on orderly EOF, None when the socket would block.

        ``recv_into`` a pooled buffer replaces the old fresh-``bytes``
        per call: one buffer per live connection, checked out of the
        event source's read pool on first use and returned at close.
        """
        with self._read_lock:
            buf = self._read_buf
            if buf is None:
                if self.read_pool is not None:
                    self._read_owner = self.read_pool.acquire(max_bytes)
                    buf = self._read_owner.data
                else:
                    # Full-sized even when this read is capped (fault
                    # injection passes tiny max_bytes): the buffer is
                    # attached for the connection's lifetime.
                    buf = bytearray(max(max_bytes, 65536))
                self._read_buf = buf
            limit = min(max_bytes, len(buf))
            try:
                n = self.sock.recv_into(memoryview(buf)[:limit])
            except BlockingIOError:
                return None
            except (ConnectionResetError, BrokenPipeError):
                return b""
            return memoryview(buf)[:n]

    def recv_into_buffer(self, sink, max_bytes: int = 65536) -> Optional[int]:
        """:meth:`try_recv` plus copy-out into ``sink`` under the read
        lock, so a concurrent close cannot release the pooled buffer to
        a new owner between the recv and the copy.  Returns the byte
        count, 0 on EOF, None when the socket would block.  Dispatches
        through ``try_recv`` so fault-injecting subclasses stay in the
        loop."""
        with self._read_lock:
            chunk = self.try_recv(max_bytes)
            if chunk is None:
                return None
            n = len(chunk)
            if n:
                sink.extend(chunk)
            return n

    def release_read_buffer(self) -> None:
        """Return the pooled read buffer (idempotent; called at close
        and on event-source deregistration)."""
        with self._read_lock:
            owner, self._read_owner = self._read_owner, None
            self._read_buf = None
        if owner is not None:
            owner.release()

    def try_send(self) -> int:
        """Flush as much of ``out_buffer`` as the kernel accepts; returns
        bytes sent.  Raises nothing: reset peers count as flushed-zero
        with the handle closed.

        A segmented :class:`~repro.runtime.buffers.OutBuffer` (the O15
        zero-copy write path) is drained with a scatter-gather
        ``sendmsg`` over its memoryview segments; the legacy
        ``bytearray`` path is unchanged.
        """
        with self._send_lock:
            out = self.out_buffer
            if not out:
                return 0
            iov = getattr(out, "iov", None)
            try:
                if iov is None:
                    n = self.sock.send(bytes(out))
                elif hasattr(self.sock, "sendmsg"):
                    n = self.sock.sendmsg(iov())
                else:  # pragma: no cover - platforms without sendmsg
                    n = self.sock.send(iov(1)[0])
            except BlockingIOError:
                return 0
            except (ConnectionResetError, BrokenPipeError):
                self.close()
                return 0
            del out[:n]
            return n

    @property
    def wants_write(self) -> bool:
        return bool(self.out_buffer) and not self._closed

    def close(self) -> None:
        if not self._closed:
            try:
                self.sock.close()
            except OSError:  # pragma: no cover - platform dependent
                pass
        super().close()
        self.release_read_buffer()


class ListenHandle(Handle):
    """A listening TCP socket (the Acceptor Event Handler's handle).

    ``handle_cls`` lets generated frameworks wrap accepted sockets in
    their own Handle subclass (Table 2's generated ``Handle``).
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 backlog: int = 128, handle_cls: type = None,
                 sock: socket.socket = None, reuse_port: bool = False):
        if sock is None:
            sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            if reuse_port and hasattr(socket, "SO_REUSEPORT"):
                sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
            sock.bind((host, port))
            sock.listen(backlog)
        else:
            # Adopt an already-bound, already-listening socket — the
            # multi-process (O16) path, where the supervisor binds one
            # SO_REUSEPORT socket and passes its fd to every worker.
            sock.listen(backlog)
        sock.setblocking(False)
        self.sock = sock
        self.backlog = backlog
        self.handle_cls = handle_cls or SocketHandle
        #: flight recorder receiving the accept events; recording here
        #: covers every generated AcceptorEventHandler that drains the
        #: backlog.
        self.flight = GLOBAL_FLIGHT
        super().__init__(name=f"listen:{self.address[1]}")
        self._fd = sock.fileno()

    @property
    def address(self) -> tuple:
        return self.sock.getsockname()

    @property
    def port(self) -> int:
        return self.address[1]

    def fileno(self) -> int:
        return self._fd  # cached: stays valid for deregistration

    def try_accept(self) -> Optional[SocketHandle]:
        """Accept one pending connection, or None when none is pending."""
        try:
            conn, _addr = self.sock.accept()
        except BlockingIOError:
            return None
        handle = self.handle_cls(conn)
        self.flight.record("accept", handle.name,
                           getattr(handle, "trace_id", 0))
        return handle

    def close(self) -> None:
        if not self._closed:
            try:
                self.sock.close()
            except OSError:  # pragma: no cover
                pass
        super().close()


class FileHandle(Handle):
    """A disk file opened for reading through the Proactor emulation.

    File operations block, so FileHandles are only touched from the file
    I/O thread pool (:mod:`repro.runtime.file_io`); a lock guards the
    position against concurrent reads on the same handle.
    """

    def __init__(self, path: str):
        super().__init__(name=path)
        self.path = path
        self._fh = open(path, "rb")
        self._lock = threading.Lock()
        self.size = os.fstat(self._fh.fileno()).st_size

    def fileno(self) -> int:
        return self._fh.fileno()

    def read_at(self, offset: int, length: int) -> bytes:
        with self._lock:
            self._fh.seek(offset)
            return self._fh.read(length)

    def read_all(self) -> bytes:
        return self.read_at(0, self.size)

    def close(self) -> None:
        if not self._closed:
            self._fh.close()
        super().close()


def _peer_name(sock: socket.socket) -> str:
    try:
        host, port = sock.getpeername()[:2]
        return f"{host}:{port}"
    except OSError:
        return "unconnected"
