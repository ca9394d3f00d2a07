"""Open-loop, single-threaded HTTP/1.1 load generator.

Requests become *due* on a precomputed arrival schedule, whatever the
server is doing; each one is timed from its due time, so time spent
waiting for a free connection (the generator's backlog) is part of its
latency and a stalled server cannot hide behind a closed loop.

At most ``max_conns`` connections are open at once.  Keep-alive
connections carry up to ``depth`` pipelined requests and are recycled
after ``per_conn`` requests (Apache's MaxKeepAliveRequests);
``close_each`` sends one ``Connection: close`` request per connection.

Every reply is checked byte-for-byte (:func:`check_reply`); nothing is
retried.  A failure is one of ``status``, ``framing``, ``body``,
``truncated`` (a reply arrived and was wrong: :data:`WRONG_REPLY`),
``reset``, ``refused`` or ``timeout``.
"""

from __future__ import annotations

import errno
import selectors
import socket
import time
import zlib
from collections import Counter, deque
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

WRONG_REPLY = frozenset(("status", "framing", "body", "truncated"))
MAX_HEAD = 65536


class FramingError(Exception):
    """The byte stream is not a well-framed HTTP/1.1 response."""


def parse_head(head: bytes) -> Tuple[int, List[Tuple[str, str]]]:
    """Status code and ``(lower-case name, value)`` header pairs."""
    lines = head.split(b"\r\n")
    parts = lines[0].split(b" ", 2)
    if len(parts) < 2 or not parts[0].startswith(b"HTTP/1.") \
            or not parts[1].isdigit():
        raise FramingError(f"bad status line {lines[0][:80]!r}")
    headers = []
    for line in lines[1:]:
        name, sep, value = line.partition(b":")
        if not sep:
            raise FramingError(f"bad header line {line[:80]!r}")
        headers.append((name.strip().lower().decode("latin-1"),
                        value.strip().decode("latin-1")))
    return int(parts[1]), headers


def content_length(headers: Sequence[Tuple[str, str]]) -> int:
    """The single Content-Length; anything else is a framing error."""
    values = [v for n, v in headers if n == "content-length"]
    if len(values) != 1 or not values[0].isdigit():
        raise FramingError(f"Content-Length {values!r}")
    return int(values[0])


class ReplyParser:
    """Incremental response framing over one connection's bytes."""

    def __init__(self):
        self.buf = bytearray()
        self._head: Optional[Tuple[int, list, int, int]] = None

    def feed(self, data: bytes) -> None:
        self.buf += data

    def next_reply(self):
        """``(status, headers, body)`` once a whole reply is buffered,
        else None; raises :class:`FramingError`."""
        if self._head is None:
            end = self.buf.find(b"\r\n\r\n")
            if end < 0:
                if len(self.buf) > MAX_HEAD:
                    raise FramingError("header block too long")
                return None
            status, headers = parse_head(bytes(self.buf[:end]))
            start = end + 4
            self._head = (status, headers, start,
                          start + content_length(headers))
        status, headers, start, stop = self._head
        if len(self.buf) < stop:
            return None
        body = bytes(self.buf[start:stop])
        del self.buf[:stop]
        self._head = None
        return status, headers, body

    @property
    def partial(self) -> bool:
        return bool(self.buf) or self._head is not None


def check_reply(req, status: int, headers, body: bytes,
                close: bool) -> Optional[str]:
    """None when the reply is exactly what ``req`` must get back, else
    the failure kind."""
    if status != req.status:
        return "status"
    if close and ("connection", "close") not in [
            (n, v.lower()) for n, v in headers]:
        return "framing"
    if req.status == 200 and (len(body) != req.length
                              or zlib.crc32(body) != req.crc):
        return "body"
    return None


@dataclass
class PhaseResult:
    """What one phase measured (times in seconds)."""

    label: str
    latencies: List[float] = field(default_factory=list)
    failures: Counter = field(default_factory=Counter)
    #: requests in flight when the phase was cut (not failures: the
    #: phase ended first; they count as missing any latency limit)
    cut: int = 0
    #: requests due but never sent before the cut
    unsent: int = 0
    body_bytes: int = 0
    lag: List[float] = field(default_factory=list)
    #: generator backlog length sampled at every arrival
    backlog: List[int] = field(default_factory=list)
    #: server-process CPU seconds spent during the phase (set by caller)
    server_cpu_s: float = 0.0

    @property
    def ok(self) -> int:
        return len(self.latencies)

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    @property
    def attempted(self) -> int:
        return self.ok + self.failed

    @property
    def cpu_us_per_req(self) -> float:
        return self.server_cpu_s / max(self.ok, 1) * 1e6

    @property
    def wrong(self) -> int:
        return sum(self.failures[k] for k in WRONG_REPLY)


class _Conn:
    __slots__ = ("sock", "connected", "inflight", "wbuf", "parser",
                 "assigned", "retiring", "error", "mask")

    def __init__(self, sock):
        self.sock = sock
        self.connected = False
        self.inflight: deque = deque()   # [req, due, sent]
        self.wbuf = bytearray()
        self.parser = ReplyParser()
        self.assigned = 0
        self.retiring = False
        self.error = 0
        self.mask = selectors.EVENT_WRITE


def run_phase(addr, requests, offsets, *, label: str = "",
              max_conns: int = 2, depth: int = 1,
              per_conn: int = 100, close_each: bool = False,
              timeout: float = 2.0, grace: Optional[float] = None,
              clock=time.perf_counter) -> PhaseResult:
    """Drive one open-loop phase: ``requests[i]`` falls due at
    ``offsets[i]`` seconds after the start.

    After the last arrival the phase waits at most ``grace`` seconds
    (default just over ``timeout``) for outstanding replies, then cuts.
    A request with no reply ``timeout`` seconds after it was sent fails;
    one still younger at the cut is counted as ``cut``.
    """
    grace = timeout + 0.05 if grace is None else grace
    res = PhaseResult(label)
    sel = selectors.DefaultSelector()
    conns: List[_Conn] = []
    backlog: deque = deque()
    n = len(offsets)
    i = 0
    start = clock() + 0.005
    last_due = start + (offsets[-1] if n else 0.0)
    next_timeout_scan = start

    def close(c: _Conn, kind: Optional[str]) -> None:
        """Drop ``c``; its unanswered requests fail as ``kind`` (or are
        cut, for None)."""
        if kind is None:
            res.cut += len(c.inflight)
        else:
            res.failures[kind] += len(c.inflight)
        c.inflight.clear()
        try:
            sel.unregister(c.sock)
        except (KeyError, ValueError):
            pass
        c.sock.close()
        conns.remove(c)

    def flush(c: _Conn) -> bool:
        if not c.connected:
            return True
        if c.wbuf:
            try:
                sent = c.sock.send(c.wbuf)
            except BlockingIOError:
                sent = 0
            except OSError:
                close(c, "reset")
                return False
            del c.wbuf[:sent]
        mask = selectors.EVENT_READ | (selectors.EVENT_WRITE if c.wbuf
                                       else 0)
        if mask != c.mask:
            c.mask = mask
            sel.modify(c.sock, mask, c)
        return True

    def open_conn() -> _Conn:
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setblocking(False)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        c = _Conn(sock)
        err = sock.connect_ex(addr)
        conns.append(c)
        sel.register(sock, selectors.EVENT_WRITE, c)
        if err not in (0, errno.EINPROGRESS):
            c.error = err   # reported once the socket polls writable
        return c

    def pick() -> Optional[_Conn]:
        if close_each:
            return open_conn() if len(conns) < max_conns else None
        best = None
        for c in conns:
            if not c.retiring and len(c.inflight) < depth and (
                    best is None or len(c.inflight) < len(best.inflight)):
                best = c
        if (best is None or best.inflight) and len(conns) < max_conns:
            return open_conn()
        return best

    def on_read(c: _Conn, now: float) -> None:
        try:
            data = c.sock.recv(262144)
        except BlockingIOError:
            return
        except OSError:
            close(c, "reset")
            return
        if not data:
            close(c, "truncated" if c.parser.partial else "reset")
            return
        c.parser.feed(data)
        while True:
            try:
                reply = c.parser.next_reply()
            except FramingError:
                close(c, "framing")
                return
            if reply is None:
                break
            if not c.inflight:
                # Bytes nobody asked for: blame the connection.
                res.failures["framing"] += 1
                close(c, "reset")
                return
            req, due, _sent = c.inflight.popleft()
            kind = check_reply(req, *reply, close=close_each)
            if kind is not None:
                res.failures[kind] += 1
                close(c, "reset")
                return
            res.latencies.append(now - due)
            res.body_bytes += len(reply[2])
        if (close_each or c.retiring) and not c.inflight:
            close(c, "reset")

    def on_write(c: _Conn) -> None:
        if not c.connected:
            if c.error or c.sock.getsockopt(socket.SOL_SOCKET,
                                            socket.SO_ERROR):
                close(c, "refused")
                return
            c.connected = True
        flush(c)

    while True:
        now = clock()
        while i < n and start + offsets[i] <= now:
            due = start + offsets[i]
            res.lag.append(now - due)
            backlog.append((requests[i], due))
            res.backlog.append(len(backlog))
            i += 1
        while backlog:
            c = pick()
            if c is None:
                break
            req, due = backlog.popleft()
            c.inflight.append((req, due, now))
            c.assigned += 1
            if c.assigned >= per_conn:
                c.retiring = True
            c.wbuf += req.wire(close_each)
            flush(c)
        if i >= n and not backlog and not any(c.inflight for c in conns):
            for c in list(conns):
                close(c, None)
            break
        if i >= n and now > last_due + grace:
            res.unsent += len(backlog)
            backlog.clear()
            for c in list(conns):
                late = sum(1 for _, _, sent in c.inflight
                           if now - sent > timeout)
                res.failures["timeout"] += late
                res.cut -= late
                close(c, None)
            break
        if now >= next_timeout_scan:
            next_timeout_scan = now + 0.02
            for c in list(conns):
                if c.inflight and now - c.inflight[0][2] > timeout:
                    close(c, "timeout")
        wait = 0.02
        if i < n:
            wait = min(wait, max(0.0, start + offsets[i] - now))
        for key, mask in sel.select(wait):
            c = key.data
            if c not in conns:
                continue
            if mask & selectors.EVENT_WRITE:
                on_write(c)
                if c not in conns:
                    continue
            if mask & selectors.EVENT_READ and c.connected:
                on_read(c, clock())
    sel.close()
    return res


def fetch_once(addr, req, timeout: float = 10.0) -> Optional[str]:
    """One blocking ``Connection: close`` request; None when the reply
    checks out, else the failure kind."""
    parser = ReplyParser()
    try:
        with socket.create_connection(addr, timeout=timeout) as sock:
            sock.sendall(req.wire(True))
            while True:
                reply = parser.next_reply()
                if reply is not None:
                    return check_reply(req, *reply, close=True)
                data = sock.recv(262144)
                if not data:
                    return "truncated" if parser.partial else "reset"
                parser.feed(data)
    except FramingError:
        return "framing"
    except ConnectionRefusedError:
        return "refused"
    except socket.timeout:
        return "timeout"
    except OSError:
        return "reset"
