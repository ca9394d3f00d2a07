"""Communicator Component: one instance per network connection.

Implements the paper's five-step request handling cycle (Fig 1):

    Read Request -> Decode Request -> Handle Request -> Encode Reply
    -> Send Reply

and the three-step variant without encoding/decoding (Fig 2, O3=No).
Read Request and Send Reply are generic (the framework provides them);
Decode / Handle / Encode are the application-dependent hook methods the
programmer writes (:class:`ServerHooks`).

The Handle step may be asynchronous: a hook returns :data:`PENDING`
after arranging for ``conn.complete_request(result)`` to be called later
(e.g. from a :class:`~repro.runtime.file_io.AsyncFileIO` completion).
Replies are always sent in request order per connection, matching
HTTP/1.1 persistent-connection semantics.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Any, Callable, Optional, Tuple

from repro.obs.flight import GLOBAL as GLOBAL_FLIGHT
from repro.runtime.events import Event
from repro.runtime.handles import SocketHandle
from repro.runtime.nulls import NULL_SPANS

__all__ = ["PENDING", "CLOSE", "ServerHooks", "Communicator"]

#: sentinel a handle-hook returns when the reply will arrive asynchronously
PENDING = object()
#: sentinel reply meaning "close this connection without replying"
CLOSE = object()


class _Ticket:
    """Order token for one in-flight request; carries its span so the
    asynchronous completion path can close the right one, its start
    time so a deadline monitor can spot overdue requests, and — once
    the Handle step resolves — the reply itself, parked until every
    older request on the connection has flushed.  That parking is what
    keeps pipelined replies in request order even when asynchronous
    services (disk reads on a thread pool, cache hits completing
    inline) finish out of order."""

    __slots__ = ("span", "started", "handling", "done", "result")

    def __init__(self, span, started: float = 0.0):
        self.span = span
        self.started = started
        #: the pipeline thread is still inside the handle hook
        self.handling = True
        #: the reply is resolved (it may still wait on older tickets)
        self.done = False
        self.result = None


class ServerHooks:
    """The application-specific hook methods (the only code a programmer
    writes when using the N-Server, per section IV).

    Subclass and override; the defaults implement an echo server with
    newline framing and no decode/encode steps.
    """

    def split_request(self, data: bytes) -> Optional[Tuple[bytes, bytes]]:
        """Framing: split one complete request off the front of ``data``.

        Return ``(request_bytes, remainder)`` or ``None`` when no
        complete request is buffered yet.
        """
        if b"\n" not in data:
            return None
        line, rest = data.split(b"\n", 1)
        return line + b"\n", rest

    # -- the three application-dependent steps --------------------------
    def decode(self, raw: bytes, conn: "Communicator") -> Any:
        """Decode Request (only called when the template generated the
        O3=Yes pipeline)."""
        return raw

    def handle(self, request: Any, conn: "Communicator") -> Any:
        """Handle Request: return the result, :data:`PENDING` for an
        asynchronous reply, or :data:`CLOSE` to drop the connection."""
        return request

    def encode(self, result: Any, conn: "Communicator") -> bytes:
        """Encode Reply (O3=Yes only)."""
        return result if isinstance(result, (bytes, bytearray)) else bytes(result)

    # -- connection lifecycle --------------------------------------------
    def on_connect(self, conn: "Communicator") -> None:
        """Called once when the connection is established."""

    def on_close(self, conn: "Communicator") -> None:
        """Called once when the connection is torn down."""

    def classify_priority(self, conn: "Communicator") -> int:
        """Event-scheduling hook (O8): priority for this connection's
        events.  The Fig 5 experiment overrides this (13 added lines in
        the paper's COPS-HTTP)."""
        return 0


class Communicator:
    """Per-connection state machine driving the request cycle.

    The generated framework routes ReadableEvent/WritableEvent for the
    connection's handle to :meth:`on_readable` / :meth:`on_writable`
    (possibly via an Event Processor).  Pipeline steps for a request are
    chained inline — the steps are CPU work; only the *Handle* step may
    detour through asynchronous services.
    """

    def __init__(
        self,
        handle: SocketHandle,
        hooks: ServerHooks,
        *,
        use_codec: bool = True,
        on_teardown: Optional[Callable[["Communicator"], None]] = None,
        update_interest: Optional[Callable[[SocketHandle], None]] = None,
        spans=NULL_SPANS,
        clock=time.monotonic,
        buffer_pool=None,
        flight=None,
    ):
        self.handle = handle
        self.hooks = hooks
        self.use_codec = use_codec
        #: always-on lifecycle-event ring (the one the owning server
        #: passed; the process-wide recorder otherwise)
        self.flight = flight if flight is not None else GLOBAL_FLIGHT
        #: header BufferPool of the zero-copy write path (None = the
        #: copying path; encode hooks key segment emission off this)
        self.buffer_pool = buffer_pool
        self.on_teardown = on_teardown
        self.update_interest = update_interest
        #: the O11 span recorder (request spans, socket-stage timings
        #: and the per-connection counters); the null recorder otherwise
        self.spans = spans
        self.clock = clock
        self.in_buffer = bytearray()
        # Ticket machinery for asynchronous (PENDING) replies.  Guarded by
        # a lock because completions arrive from service threads that may
        # race with the pipeline thread still inside the handle hook.
        self._ticket_lock = threading.Lock()
        self._awaiting: deque = deque()   # tickets in request order
        self._draining = False            # a thread is flushing replies
        self._handling_threads: dict = {}  # thread ident -> its ticket
        self.priority = 0
        self.closed = False
        self.close_after_flush = False
        # Deadline stamps (read by a DeadlineMonitor; None = stage idle).
        #: when the first byte of a still-incomplete request arrived
        self.read_started: Optional[float] = None
        #: when output last stopped making progress with bytes buffered
        self.write_blocked_since: Optional[float] = None
        #: application scratch space (sessions, auth state, ...)
        self.context: dict = {}
        self.requests_completed = 0
        self.priority = hooks.classify_priority(self)
        hooks.on_connect(self)

    #: reads per ReadableEvent before handing control back (512 KiB at
    #: the default buffer size) — a firehose peer cannot starve the rest
    #: of the loop; interest re-arming re-posts the remainder
    READ_BATCH = 8

    # -- event entry points -------------------------------------------------
    def on_readable(self, event: Event = None) -> None:
        """Read Request step: drain the socket, then run the pipeline for
        every complete request now buffered.

        Drains in a loop until the socket would block: an edge-triggered
        poller backend notifies once per readiness *transition*, so a
        single read per event would strand buffered bytes forever.  The
        drain is bounded by :attr:`READ_BATCH`; when the bound (or a
        fault-injected EAGAIN) cuts it short, :meth:`_sync_interest`
        re-arms interest, which under epoll re-posts the edge while data
        is still pending — and costs nothing under the level-triggered
        oracle, which re-reports pending data on every poll anyway.
        """
        if self.closed:
            return
        for _ in range(self.READ_BATCH):
            t0 = self.clock()
            n = self.handle.recv_into_buffer(self.in_buffer)
            if n is None:
                self._sync_interest()
                break
            if n == 0:
                self.close()
                return
            now = self.clock()
            self.handle.last_activity = now
            self.spans.bytes_read(n, now - t0)
            self._pump_requests()
            if self.closed:
                return
        else:
            # Bound hit with the socket possibly still readable.
            self._sync_interest()
        now = self.clock()
        # Header deadline stamp: leftover bytes are an incomplete request.
        # The stamp survives further partial reads (a trickling peer must
        # not reset its own clock) and clears once the buffer drains.
        if not self.in_buffer:
            self.read_started = None
        elif self.read_started is None:
            self.read_started = now

    def on_writable(self, event: Event = None) -> None:
        """Send Reply step: flush buffered output."""
        if self.closed:
            return
        t0 = self.clock()
        sent = self.handle.try_send()
        if sent:
            now = self.clock()
            self.handle.last_activity = now
            self.spans.bytes_sent(sent, now - t0)
        if self.handle.closed:
            self.close()
            return
        self._stamp_write(sent)
        if sent and not self.handle.out_buffer:
            self.flight.record("write-complete", self.handle.name,
                               getattr(self.handle, "trace_id", 0))
        self._sync_interest()
        if self.close_after_flush and not self.handle.out_buffer:
            self.close()

    # -- pipeline -----------------------------------------------------------
    def _pump_requests(self) -> None:
        while not self.closed:
            split = self.hooks.split_request(bytes(self.in_buffer))
            if split is None:
                return
            raw, rest = split
            self.in_buffer = bytearray(rest)
            self._run_pipeline(raw)

    # -- overridable steps (generated CommunicatorComponents replace
    # these with the generated step-handler chain) ------------------------
    def step_decode(self, raw: bytes):
        """Decode Request step (identity when the codec is disabled)."""
        return self.hooks.decode(raw, self) if self.use_codec else raw

    def step_handle(self, request):
        """Handle Request step."""
        return self.hooks.handle(request, self)

    def step_encode(self, result):
        """Encode Reply step (identity when the codec is disabled)."""
        return self.hooks.encode(result, self) if self.use_codec else result

    def _run_pipeline(self, raw: bytes) -> None:
        trace_id = getattr(self.handle, "trace_id", 0)
        self.flight.record(
            "dispatch",
            f"{self.handle.name} worker={threading.current_thread().name}",
            trace_id)
        span = self.spans.start("request", detail=self.handle.name,
                                trace_id=trace_id)
        ticket = _Ticket(span, started=self.clock())
        me = threading.get_ident()
        with self._ticket_lock:
            self._awaiting.append(ticket)
            self._handling_threads[me] = ticket
        try:
            self.flight.record("stage-enter", "decode", trace_id)
            with span.stage("decode"):
                request = self.step_decode(raw)
            self.flight.record("stage-exit", "decode", trace_id)
            span.stage_begin("handle")
            self.flight.record("stage-enter", "handle", trace_id)
            result = self.step_handle(request)
        except BaseException as exc:  # noqa: BLE001 - hook errors end the connection
            # The span closes first, whatever is flying: a worker-killing
            # BaseException (fault injection's WorkerCrash) must not leave
            # open stages dangling on a span the recorder already shared.
            span.finish()
            with self._ticket_lock:
                self._awaiting.clear()
                self._handling_threads.pop(me, None)
            if not isinstance(exc, Exception):
                # Worker-death path: the supervisor owns recovery, so the
                # exception keeps propagating to take the worker down.
                raise
            self.spans.error()
            self.close()
            return
        with self._ticket_lock:
            self._handling_threads.pop(me, None)
            ticket.handling = False
            if result is PENDING:
                if not ticket.done:
                    # The reply will arrive via complete_request later.
                    return
                # The completion raced ahead of the PENDING return:
                # flush it now on this thread.
            else:
                ticket.done = True
                ticket.result = result
        span.stage_end()  # the handle stage is over: the reply exists
        self.flight.record("stage-exit", "handle", trace_id)
        self._drain()

    def current_ticket(self) -> Optional[Any]:
        """The order ticket of the request this thread's handle hook is
        processing.  A hook that goes asynchronous captures it and hands
        it back to :meth:`complete_request`, pairing the reply with the
        right request even when pipelined completions finish out of
        order."""
        with self._ticket_lock:
            return self._handling_threads.get(threading.get_ident())

    def complete_request(self, result: Any, ticket: Any = None) -> None:
        """Called by asynchronous services to deliver a pending reply.

        ``ticket`` (from :meth:`current_ticket`) pairs the reply with
        its request; without one the oldest unresolved request is
        assumed — only safe for protocols whose services complete in
        request order.  Either way the reply is parked on its ticket
        and flushed strictly in request order."""
        with self._ticket_lock:
            if ticket is None:
                ticket = next(
                    (t for t in self._awaiting if not t.done), None)
            elif ticket not in self._awaiting or ticket.done:
                # The connection errored out (queue cleared) or this is
                # a duplicate completion: nothing to deliver.
                ticket = None
            if ticket is None:
                return
            ticket.done = True
            ticket.result = result
            if ticket.handling:
                # Raced ahead of the PENDING return — the pipeline
                # thread closes the handle stage and flushes.
                return
        ticket.span.stage_end()
        self.flight.record("stage-exit", "handle",
                           getattr(self.handle, "trace_id", 0))
        self._drain()

    def _drain(self) -> None:
        """Flush resolved replies from the head of the request queue.

        Only the head may flush — a resolved reply behind an
        unresolved one waits — and only one thread flushes at a time; a
        completion that finds a flush in progress parks its reply and
        leaves it for that thread's next loop iteration."""
        while True:
            with self._ticket_lock:
                head = self._awaiting[0] if self._awaiting else None
                if (head is None or not head.done or head.handling
                        or self._draining):
                    return
                self._draining = True
                self._awaiting.popleft()
            try:
                self._deliver(head, head.result)
            finally:
                with self._ticket_lock:
                    self._draining = False

    def _deliver(self, ticket: Any, result: Any) -> None:
        trace_id = getattr(self.handle, "trace_id", 0)
        span = ticket.span
        if self.closed:
            span.finish()
            return
        if result is CLOSE:
            span.finish()
            self.close()
            return
        try:
            self.flight.record("stage-enter", "encode", trace_id)
            with span.stage("encode"):
                data = self.step_encode(result)
            self.flight.record("stage-exit", "encode", trace_id)
        except Exception:  # noqa: BLE001 - encode errors end the connection
            span.finish()
            self.spans.error()
            self.close()
            return
        span.finish()
        self.requests_completed += 1
        self.spans.request_handled()
        self.send_bytes(data)

    # -- output ---------------------------------------------------------------
    def send_bytes(self, data, close_after: bool = False) -> None:
        """Queue reply bytes and opportunistically flush.

        ``data`` may also be a list/tuple of segments (the zero-copy
        encode path): each segment is queued by reference on a
        segmented out-buffer, or joined into one copy on the legacy
        ``bytearray`` path.
        """
        if self.closed:
            return
        if data:
            out = self.handle.out_buffer
            if isinstance(data, (list, tuple)):
                append = getattr(out, "append_segment", None)
                if append is not None:
                    for segment in data:
                        append(segment)
                else:
                    from repro.runtime.buffers import segment_bytes
                    out.extend(b"".join(segment_bytes(s) for s in data))
            else:
                out.extend(data)
        if close_after:
            self.close_after_flush = True
        t0 = self.clock()
        sent = self.handle.try_send()
        if sent:
            now = self.clock()
            self.spans.bytes_sent(sent, now - t0)
            self.handle.last_activity = now
        if self.handle.closed:
            self.close()
            return
        self._stamp_write(sent)
        if sent and not self.handle.out_buffer:
            self.flight.record("write-complete", self.handle.name,
                               getattr(self.handle, "trace_id", 0))
        self._sync_interest()
        if self.close_after_flush and not self.handle.out_buffer:
            self.close()

    def _stamp_write(self, sent: int) -> None:
        """Write deadline stamp: since when has buffered output made no
        progress?  Any progress restarts the clock; a drained buffer
        clears it."""
        if not self.handle.out_buffer:
            self.write_blocked_since = None
        elif sent or self.write_blocked_since is None:
            self.write_blocked_since = self.clock()

    def _sync_interest(self) -> None:
        if self.update_interest is not None and not self.closed:
            self.update_interest(self.handle)

    # -- resilience probes ---------------------------------------------------
    def oldest_pending_started(self) -> Optional[float]:
        """Start time of the oldest in-flight request, or None when the
        pipeline is idle (read by a DeadlineMonitor)."""
        with self._ticket_lock:
            return self._awaiting[0].started if self._awaiting else None

    def busy(self) -> bool:
        """True while work is still owed: an in-flight request or
        unflushed reply bytes (read by the graceful-drain loop)."""
        with self._ticket_lock:
            if self._awaiting:
                return True
        return bool(self.handle.out_buffer) and not self.closed

    # -- teardown ----------------------------------------------------------
    def close(self) -> None:
        if self.closed:
            return
        self.closed = True
        try:
            self.hooks.on_close(self)
        finally:
            if self.on_teardown is not None:
                self.on_teardown(self)
            self.handle.close()
            self.spans.connection_closed()
