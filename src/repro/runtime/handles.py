"""Handles: the I/O endpoints events refer to.

A *Handle* wraps an OS-level endpoint (socket, file) behind the small
interface the dispatcher and event handlers need.  Generated frameworks
use these classes directly: accepted and connected sockets are plain
:class:`SocketHandle` objects.  A :class:`FileHandle` range is the body
of every docroot file of at least one page, and
:meth:`SocketHandle._send` is the one place bytes leave for a socket:
``sendmsg`` for memory, ``os.sendfile`` for files.
"""

from __future__ import annotations

import os
import socket
import weakref
from collections import deque
from itertools import islice
from typing import Optional

from repro.obs.flight import GLOBAL as GLOBAL_FLIGHT
from repro.obs.tracing import next_trace_id

__all__ = ["Handle", "SocketHandle", "ListenHandle", "FileHandle",
           "OutBuffer"]

#: segments per :meth:`SocketHandle._send`, well under Linux's IOV_MAX
#: of 1024
MAX_IOV = 64

#: "more data follows" for a ``sendmsg`` ahead of a file range (Linux)
_MSG_MORE = getattr(socket, "MSG_MORE", 0)


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
        #: reply segments the kernel has not taken yet (mutated only
        #: here, by the thread that owns the connection)
        self.out_buffer = OutBuffer()
        #: monotonic timestamp of the last I/O (idle reaping, option O7)
        self.last_activity = 0.0
        #: end-to-end trace id, stamped at the accept boundary and
        #: carried through dispatch, the worker and the write path
        self.trace_id = next_trace_id()
        #: read interest paused (under the event-source lock)
        self.paused = False
        # Cached so a fault-closed socket (fileno() == -1) can still be
        # deregistered; -1 for the fake sockets tests wire in, which
        # never meet a selector.
        fileno = getattr(sock, "fileno", None)
        self._fd = fileno() if fileno is not None else -1
        self._read_buf: Optional[bytearray] = None

    def fileno(self) -> int:
        # Cached at creation: a fault-closed socket reports -1, and the
        # event source must still be able to deregister the real fd
        # before the kernel hands it to a new connection.
        return self._fd

    def try_recv(self, max_bytes: int = 65536) -> Optional[bytes]:
        """Non-blocking read: received bytes (as a ``memoryview`` over
        the connection's reusable read buffer — copy before the next
        call), b'' on orderly EOF, None when the socket would block.

        ``recv_into`` one private buffer per connection, allocated on
        first use and dropped at close, instead of a fresh ``bytes``
        per call.  Reads and that close are steps of the same
        connection, run by one thread at a time, so the buffer is not
        dropped between a read and the caller's copy.
        """
        buf = self._read_buf
        if buf is None:
            # Full-sized even when this read is capped (fault injection
            # passes tiny max_bytes): the buffer is kept for the
            # connection's lifetime.
            buf = self._read_buf = bytearray(max(max_bytes, 65536))
        limit = min(max_bytes, len(buf))
        try:
            n = self.sock.recv_into(memoryview(buf)[:limit])
        except BlockingIOError:
            return None
        except (ConnectionResetError, BrokenPipeError):
            return b""
        return memoryview(buf)[:n]

    def write(self, segments) -> int:
        """Send ``segments`` (bytes-likes and :class:`FileHandle`
        ranges, in order) behind any output already queued; returns the
        bytes sent now.

        On an empty buffer this is one optimistic :meth:`_send` straight
        from the caller's segments — a cached body goes to the kernel
        without a copy — and only the unsent tail is queued.  Only the
        thread that owns the connection writes (see
        :class:`~repro.runtime.communicator.Communicator`), so the
        emptiness check, the send and the enqueue need no lock to keep
        replies whole and in order.  A closed handle sends nothing.
        """
        if self._closed:
            return 0
        out = self.out_buffer
        if out:
            out.append(segments)
            return self.try_send()
        sent = self._send(segments[:MAX_IOV])
        if not self._closed:
            out.append(segments, skip=sent)
        return sent

    def try_send(self) -> int:
        """Flush as much queued output as the kernel accepts; returns
        bytes sent.  Raises nothing: reset peers count as flushed-zero
        with the handle closed."""
        out = self.out_buffer
        if not out or self._closed:
            return 0
        sent = self._send(out.iov())
        out.advance(sent)
        return sent

    def _send(self, iov) -> int:
        """Send ``iov`` in order until the kernel pushes back; returns
        the bytes sent.  Every send goes through here, so
        fault-injecting subclasses override only this.

        Each run of memory segments goes out in one ``sendmsg``, flagged
        ``MSG_MORE`` when a file range follows so a reply's head and the
        start of its body share a packet.  Each :class:`FileHandle`
        range goes out with ``os.sendfile`` from the page cache.  A
        short send ends the loop: the socket is full.  Would-block ends
        it too.  A reset peer closes the handle, and so does a file
        that ends before its range does (it shrank after it was
        opened): that reply cannot be completed, and padding it would
        corrupt the stream.
        """
        sent = 0
        start, count = 0, len(iov)
        try:
            while start < count:
                segment = iov[start]
                if isinstance(segment, FileHandle):
                    size = len(segment)
                    n = os.sendfile(self.sock.fileno(), segment.fileno(),
                                    segment.offset, size)
                    if not n:
                        self.close()
                        return sent
                    start += 1
                else:
                    stop = start + 1
                    while stop < count and not isinstance(iov[stop],
                                                          FileHandle):
                        stop += 1
                    if stop == count:
                        return sent + self.sock.sendmsg(
                            iov[start:] if start else iov)
                    run = iov[start:stop]
                    n = self.sock.sendmsg(run, (), _MSG_MORE)
                    size = sum(map(len, run))
                    start = stop
                sent += n
                if n < size:
                    break
        except BlockingIOError:
            pass
        except (ConnectionResetError, BrokenPipeError):
            self.close()
        return sent

    @property
    def wants_write(self) -> bool:
        return bool(self.out_buffer) and not self._closed

    def shutdown(self) -> None:
        """Shut both directions of the socket down now, from any thread:
        the peer sees EOF at once and further sends fail.  The fd stays
        open until :meth:`close`, so its number cannot be reused under a
        connection still being torn down."""
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass

    def close(self) -> None:
        if not self._closed:
            try:
                self.sock.close()
            except OSError:  # pragma: no cover - platform dependent
                pass
        super().close()
        self._read_buf = None


class OutBuffer:
    """A connection's unsent reply segments, oldest first.

    Each segment is a ``memoryview`` over the writer's bytes or a
    :class:`FileHandle` range.  A cached file body is referenced, never
    copied: the range keeps its fd open even past cache eviction.  A
    partial send advances past the sent prefix by slicing the front
    segment.  Only the owning :class:`SocketHandle` mutates it.
    """

    __slots__ = ("_segments", "_length")

    def __init__(self):
        self._segments: deque = deque()
        self._length = 0

    def append(self, segments, skip: int = 0) -> None:
        """Queue ``segments`` minus their first ``skip`` bytes (already
        sent).  ``bytes``, ``memoryview`` and :class:`FileHandle`
        segments are referenced; any other bytes-like is snapshotted,
        since its owner may mutate it while it waits."""
        for segment in segments:
            size = len(segment)
            if skip >= size:
                skip -= size
                continue
            if isinstance(segment, (memoryview, FileHandle)):
                view = segment
            elif isinstance(segment, bytes):
                view = memoryview(segment)
            else:
                view = memoryview(bytes(segment))
            if skip:
                view, skip = view[skip:], 0
            self._segments.append(view)
            self._length += len(view)

    def iov(self, max_vecs: int = MAX_IOV) -> list:
        """The leading segments, for one :meth:`SocketHandle._send`."""
        return list(islice(self._segments, max_vecs))

    def advance(self, n: int) -> None:
        """Consume ``n`` sent bytes from the front."""
        self._length -= n
        segments = self._segments
        while n:
            view = segments[0]
            size = len(view)
            if n < size:
                segments[0] = view[n:]
                return
            segments.popleft()
            n -= size

    def __len__(self) -> int:
        """Unsent bytes across all segments."""
        return self._length

    def __bool__(self) -> bool:
        """True while any output remains queued."""
        return self._length > 0


class ListenHandle(Handle):
    """A listening TCP socket (the Acceptor Event Handler's handle).

    ``handle_cls`` is the class accepted sockets are wrapped in; the
    fault plane swaps in a fault-injecting subclass.
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
        #: TCP listener: accepted sockets get Nagle's algorithm turned off
        self._tcp = sock.family in (socket.AF_INET, socket.AF_INET6)
        self.handle_cls = handle_cls or SocketHandle
        #: flight recorder receiving the accept events; recording here
        #: covers every generated AcceptorEventHandler that drains the
        #: backlog.
        self.flight = GLOBAL_FLIGHT
        #: owed an AcceptEvent (under the event-source lock)
        self.forced = False
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
        if self._tcp:
            # Replies are written whole, so Nagle only delays a pipelined
            # reply behind the client's delayed ACK of the previous one.
            try:
                conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            except OSError:  # pragma: no cover - peer already reset (BSDs)
                pass
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
    """A read-only byte range of an open disk file.

    Table 2's ``FileHandle`` (the Proactor file plane), and the body of
    every docroot file of at least one page
    (:func:`repro.cache.file_cache.read_body`).  For a reply it acts as
    a read-only bytes-like: ``len``, slicing into a sub-range that
    shares the fd, and ``bytes()`` / ``==`` through ``os.pread``.
    :class:`SocketHandle` sends it with ``os.sendfile``, so its bytes go
    from the kernel page cache to the socket without entering this
    process.

    The ``O_RDONLY | O_CLOEXEC`` fd is closed when the last range over
    it is dropped (a cache entry, a queued reply segment), or at once by
    :meth:`close`.  ``pread`` has no file position, so reads from many
    threads need no lock.  The length is fixed when the file is opened:
    an in-place edit shows through, a file that shrinks below it cuts
    the reply short, and a rename-replace leaves this handle on the old
    inode.
    """

    def __init__(self, path: str):
        super().__init__(name=path)
        self.path = path
        fd = os.open(path, os.O_RDONLY | os.O_CLOEXEC)
        self._fd = fd
        self._release = weakref.finalize(self, os.close, fd)
        #: the handle that owns the fd (None: this one); a range keeps
        #: it alive, and with it the fd
        self._owner = None
        #: where this range starts in the file
        self.offset = 0
        #: the range's length in bytes
        self.size = os.fstat(fd).st_size

    def fileno(self) -> int:
        return self._fd

    def read_at(self, offset: int, length: int) -> bytes:
        """Up to ``length`` bytes from ``offset`` into the range: fewer
        at the end of the range, or where the file now ends."""
        length = min(length, self.size - offset)
        pos = self.offset + offset
        chunks = []
        while length > 0:
            chunk = os.pread(self._fd, length, pos)
            if not chunk:
                break
            chunks.append(chunk)
            pos += len(chunk)
            length -= len(chunk)
        return b"".join(chunks)

    def __len__(self) -> int:
        return self.size

    def __bytes__(self) -> bytes:
        return self.read_at(0, self.size)

    def __getitem__(self, index: slice) -> "FileHandle":
        """The sub-range ``index`` (a step-1 slice), sharing the fd."""
        if not isinstance(index, slice):
            raise TypeError("a file range is indexed by slices only")
        start, stop, step = index.indices(self.size)
        if step != 1:
            raise ValueError("a file range has no strided slices")
        part = object.__new__(type(self))
        part.__dict__.update(self.__dict__, _owner=self._owner or self,
                             offset=self.offset + start,
                             size=max(stop - start, 0))
        return part

    def __eq__(self, other) -> bool:
        if isinstance(other, FileHandle):
            other = bytes(other)
        elif not isinstance(other, (bytes, bytearray, memoryview)):
            return NotImplemented
        return len(other) == self.size and bytes(self) == other

    __hash__ = None

    def close(self) -> None:
        """Close the fd now, under every range that shares it."""
        self._release()
        super().close()


def _peer_name(sock: socket.socket) -> str:
    try:
        host, port = sock.getpeername()[:2]
        return f"{host}:{port}"
    except OSError:
        return "unconnected"
