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
from functools import partial
from typing import Any, Callable, Optional, Tuple

from repro.obs.flight import GLOBAL as GLOBAL_FLIGHT
from repro.runtime.events import Event, WritableEvent
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

    __slots__ = ("span", "started", "done", "result")

    def __init__(self, span, started: float = 0.0):
        self.span = span
        self.started = started
        #: the reply is resolved (it may still wait on older tickets)
        self.done = False
        self.result = None


class _Strand:
    """One connection's steps, run by one thread at a time: a FIFO of
    steps and the thread that owns it (None while idle), under one
    lock.  Any thread may :meth:`run` a step: it claims the idle
    strand and drains it, or leaves the step to the owner."""

    __slots__ = ("_lock", "_steps", "_owner", "_resubmit")

    def __init__(self, resubmit: Optional[Callable[[], None]] = None):
        self._lock = threading.Lock()
        self._steps: deque = deque()
        self._owner: Optional[int] = None
        self._resubmit = resubmit

    def held(self) -> bool:
        """True on the thread that owns the strand."""
        return self._owner == threading.get_ident()

    def run(self, step: Callable[[], None]) -> None:
        """Claim the idle strand and drain it, or leave ``step`` to the
        owner — not twice in a row: one read or flush does what two
        would.  A step that raises — even a worker-killing
        BaseException — releases the strand and hands what is still
        queued to ``resubmit`` (a fresh event drains it)."""
        with self._lock:
            if not self._steps or self._steps[-1] != step:
                self._steps.append(step)
            if self._owner is not None:
                return
            self._owner = threading.get_ident()
        try:
            while True:
                with self._lock:
                    if not self._steps:
                        self._owner = None
                        return
                    step = self._steps.popleft()
                step()
        except BaseException:
            with self._lock:
                self._owner = None
                left = bool(self._steps)
            if left and self._resubmit is not None:
                self._resubmit()
            raise


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

    One thread at a time runs a connection: every step (a read, a
    flush, a completion, the teardown) runs on its strand, so its state
    needs no lock.  Whichever thread brings a step claims the idle
    strand or leaves the step to the owner; ``schedule`` submits an
    event that drains what a failed step left queued.
    """

    def __init__(
        self,
        handle: SocketHandle,
        hooks: ServerHooks,
        *,
        on_teardown: Optional[Callable[["Communicator"], None]] = None,
        update_interest: Optional[Callable[[SocketHandle], None]] = None,
        resume_read: Optional[Callable[[SocketHandle], None]] = None,
        schedule: Optional[Callable[[Event], None]] = None,
        spans=NULL_SPANS,
        clock=time.monotonic,
        flight=None,
    ):
        self.handle = handle
        self.hooks = hooks
        #: always-on lifecycle-event ring (the one the owning server
        #: passed; the process-wide recorder otherwise)
        self.flight = flight if flight is not None else GLOBAL_FLIGHT
        self.on_teardown = on_teardown
        self.update_interest = update_interest
        #: re-arms read interest after a read (resumes a one-shot pause)
        self.resume_read = resume_read
        #: the O11 span recorder (request spans, socket-stage timings
        #: and the per-connection counters); the null recorder otherwise
        self.spans = spans
        self.clock = clock
        self.in_buffer = bytearray()
        self._strand = _Strand(schedule and (
            lambda: schedule(WritableEvent(handle=handle))))
        self._awaiting: deque = deque()   # tickets in request order
        self._hook_ticket: Optional[_Ticket] = None   # its hook is running
        self._torn_down = False
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
        """Read Request step, on the connection's strand."""
        self._strand.run(self._read_request)

    def on_writable(self, event: Event = None) -> None:
        """Send Reply step, on the strand (also the event ``schedule``
        submits: queued steps run before it flushes)."""
        self._strand.run(self._send_reply)

    def _read_request(self) -> None:
        """Drain the socket, then run the pipeline for every complete
        request now buffered.

        Drains in a loop until the socket would block: an edge-triggered
        poller backend notifies once per readiness *transition*, so a
        single read per event would strand buffered bytes forever.  The
        drain is bounded by :attr:`READ_BATCH`; either way it ends by
        resuming read interest, the one re-arm of the one-shot fd, which
        re-posts it while data is still pending (after the bound, or a
        fault-injected EAGAIN).
        """
        if self.closed:
            return
        try:
            for _ in range(self.READ_BATCH):
                t0 = self.clock()
                chunk = self.handle.try_recv()
                if chunk is None:
                    break
                if not chunk:
                    self.close()
                    return
                self.in_buffer += chunk
                now = self.clock()
                self.handle.last_activity = now
                self.spans.bytes_read(len(chunk), now - t0)
                self._pump_requests()
                if self.closed:
                    return
        finally:
            if not self.closed and self.resume_read is not None:
                self.resume_read(self.handle)
        # Header deadline stamp: leftover bytes are an incomplete request.
        # The stamp survives further partial reads (a trickling peer must
        # not reset its own clock) and clears once the buffer drains.
        if not self.in_buffer:
            self.read_started = None
        elif self.read_started is None:
            self.read_started = self.clock()

    def _send_reply(self) -> None:
        """Flush buffered output, if any, and re-sync interest: the
        one-shot delivery of this event disarmed reads too."""
        self._write(b"", rearm=True)

    # -- pipeline -----------------------------------------------------------
    def _pump_requests(self) -> None:
        """Run the pipeline for every complete request buffered: one
        snapshot of the input per pump, and the unframed remainder
        stored back once, only when a request was taken off it."""
        data = rest = bytes(self.in_buffer)
        try:
            while not self.closed:
                split = self.hooks.split_request(rest)
                if split is None:
                    return
                raw, rest = split
                self._run_pipeline(raw)
        finally:
            if rest is not data:
                self.in_buffer = bytearray(rest)

    # -- overridable steps (generated CommunicatorComponents replace
    # these with the generated step-handler chain) ------------------------
    def step_decode(self, raw: bytes):
        """Decode Request step."""
        return self.hooks.decode(raw, self)

    def step_handle(self, request):
        """Handle Request step."""
        return self.hooks.handle(request, self)

    def step_encode(self, result):
        """Encode Reply step."""
        return self.hooks.encode(result, self)

    def _run_pipeline(self, raw: bytes) -> None:
        trace_id = getattr(self.handle, "trace_id", 0)
        self.flight.record(
            "dispatch",
            f"{self.handle.name} worker={threading.current_thread().name}",
            trace_id)
        span = self.spans.start("request", detail=self.handle.name,
                                trace_id=trace_id)
        ticket = _Ticket(span, started=self.clock())
        self._awaiting.append(ticket)
        self._hook_ticket = ticket
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
            self._awaiting.clear()
            if not isinstance(exc, Exception):
                # Worker-death path: the supervisor owns recovery, so the
                # exception keeps propagating to take the worker down.
                raise
            self.spans.error()
            self.close()
            return
        finally:
            self._hook_ticket = None
        if result is PENDING:
            return   # complete_request resolves it, as a later step
        ticket.done = True
        ticket.result = result
        span.stage_end()  # the handle stage is over: the reply exists
        self.flight.record("stage-exit", "handle", trace_id)
        self._flush_replies()

    def current_ticket(self) -> Optional[Any]:
        """The order ticket of the request whose handle hook is running
        (None outside one).  A hook that goes asynchronous captures it
        and hands it back to :meth:`complete_request`, pairing the reply
        with the right request even when pipelined completions finish
        out of order."""
        return self._hook_ticket

    def complete_request(self, result: Any, ticket: Any = None) -> None:
        """Called by asynchronous services to deliver a pending reply.

        ``ticket`` (from :meth:`current_ticket`) pairs the reply with
        its request; without one the oldest unresolved request is
        assumed — only safe for protocols whose services complete in
        request order.  Either way the reply is parked on its ticket
        and flushed strictly in request order, as a strand step."""
        self._strand.run(partial(self._complete, result, ticket))

    def _complete(self, result: Any, ticket: Optional[_Ticket]) -> None:
        if ticket is None:
            ticket = next((t for t in self._awaiting if not t.done), None)
        if ticket is None or ticket.done or ticket not in self._awaiting:
            # The connection errored out (queue cleared) or this is
            # a duplicate completion: nothing to deliver.
            return
        ticket.done = True
        ticket.result = result
        ticket.span.stage_end()
        self.flight.record("stage-exit", "handle",
                           getattr(self.handle, "trace_id", 0))
        self._flush_replies()

    def _flush_replies(self) -> None:
        """Deliver resolved replies from the head of the request queue;
        a resolved reply behind an unresolved one waits for it."""
        awaiting = self._awaiting
        while awaiting and awaiting[0].done:
            head = awaiting.popleft()
            self._deliver(head, head.result)

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
        # On the record before the send that can make it visible.
        self.flight.record("reply", self.handle.name, trace_id)
        self._write(data)

    # -- output ---------------------------------------------------------------
    def send_bytes(self, data, close_after: bool = False) -> None:
        """Send Reply: write ``data`` behind any output already queued
        and keep write interest in step with what the kernel left.

        ``data`` is one bytes-like or a list/tuple of segments (a
        response head plus a ``memoryview`` of its cached body), which
        go to the socket in order without being joined.  Empty ``data``
        just flushes.  Off the strand's owner the write is a step.
        """
        if self._strand.held():
            self._write(data, close_after)
        else:
            self._strand.run(partial(self._write, data, close_after))

    def _write(self, data, close_after: bool = False,
               rearm: bool = False) -> None:
        if self.closed:
            return
        if close_after:
            self.close_after_flush = True
        queued = bool(self.handle.out_buffer)
        t0 = self.clock()
        if not data:
            sent = self.handle.try_send()
        elif isinstance(data, (list, tuple)):
            sent = self.handle.write(data)
        else:
            sent = self.handle.write((data,))
        if sent:
            now = self.clock()
            self.spans.bytes_sent(sent, now - t0)
            self.handle.last_activity = now
        if self.handle.closed:
            self.close()
            return
        self._stamp_write(sent)
        left = bool(self.handle.out_buffer)
        if sent and not left:
            self.flight.record("write-complete", self.handle.name,
                               getattr(self.handle, "trace_id", 0))
        # Re-sync interest when write interest flips (a tail was left,
        # or a queued tail drained) and after every WritableEvent
        # (``rearm``): that re-arms the one-shot fd, and re-posts the edge
        # a fault-capped send (no kernel push-back) never gets.
        if ((left != queued or rearm) and not self.closed
                and self.update_interest is not None):
            self.update_interest(self.handle)
        if self.close_after_flush and not left:
            self.close()

    def _stamp_write(self, sent: int) -> None:
        """Write deadline stamp: since when has buffered output made no
        progress?  Any progress restarts the clock; a drained buffer
        clears it."""
        if not self.handle.out_buffer:
            self.write_blocked_since = None
        elif sent or self.write_blocked_since is None:
            self.write_blocked_since = self.clock()

    # -- resilience probes ---------------------------------------------------
    def oldest_pending_started(self) -> Optional[float]:
        """Start time of the oldest in-flight request, or None when the
        pipeline is idle (read by a DeadlineMonitor)."""
        try:
            return self._awaiting[0].started
        except IndexError:
            return None

    def busy(self) -> bool:
        """True while work is still owed: an in-flight request or
        unflushed reply bytes (read by the graceful-drain loop)."""
        return bool(self._awaiting) or (
            bool(self.handle.out_buffer) and not self.closed)

    # -- teardown ----------------------------------------------------------
    def close(self) -> None:
        """Tear the connection down as a strand step.  Off the owner the
        socket is shut down first: the peer, and an owner blocked in a
        hook, see the close at once."""
        if self.closed:
            return
        self.closed = True
        if not self._strand.held():
            self.handle.shutdown()
        self._strand.run(self._teardown)

    def _teardown(self) -> None:
        if self._torn_down:   # two closing threads queued it
            return
        self._torn_down = True
        try:
            self.hooks.on_close(self)
        finally:
            if self.on_teardown is not None:
                self.on_teardown(self)
            self.handle.close()
            self.spans.connection_closed()
