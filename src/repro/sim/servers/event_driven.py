"""The event-driven N-Server model (simulated COPS-HTTP).

Mirrors the generated COPS-HTTP architecture: an acceptor (with optional
overload control), a dispatcher handing ready events to a reactive Event
Processor pool, an application-level file cache, and a thread pool
emulating non-blocking disk I/O whose completions re-enter the reactive
queue.

Crucially this model runs the *real* feature implementations:

* the reactive queue is a real :class:`repro.runtime.QuotaPriorityQueue`
  (O8, Fig 5) or :class:`repro.runtime.FifoEventQueue`;
* overload control is a real :class:`repro.runtime.OverloadController`
  with the paper's 20/5 watermarks (O9, Fig 6);
* the file cache is a real :class:`repro.cache.Cache` with the LRU
  policy (O6);
* graceful degradation is the real O17 plane on the simulated clock —
  :class:`repro.runtime.SheddingPolicy` (with its per-client
  :class:`repro.runtime.ClientRateLimiter` token buckets) decides the
  accept edge and a :class:`repro.runtime.SojournQueue` drops stale
  queued requests CoDel-style.

Event-driven overhead is modelled as per-event readiness-scan CPU that
grows with open connections (select/poll walks every handle) plus a
small dispatch latency (poll batching).
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.cache import Cache, make_policy
from repro.runtime import (
    ClientRateLimiter,
    FifoEventQueue,
    OverloadController,
    QuotaPriorityQueue,
    ShedDecision,
    SheddingPolicy,
    SojournQueue,
    Watermark,
)
from repro.sim.core import Resource, Store
from repro.sim.servers.common import BaseSimServer, ServerParams, SimRequest

__all__ = ["EventDrivenServer"]


class EventDrivenServer(BaseSimServer):
    """Simulated COPS-HTTP."""

    name = "cops-http"

    #: CPU seconds to turn a file-I/O completion into a send
    COMPLETION_CPU = 0.0005
    #: how often a postponed acceptor re-checks the watermarks
    OVERLOAD_CHECK = 0.005
    #: time between consecutive accepts: the acceptor shares the
    #: dispatcher with event processing, so accepts are paced — which
    #: is what lets the watermark trip before a backlog flood gets in
    ACCEPT_LATENCY = 0.001
    #: CPU seconds and wire bytes of the canned O17 503 reply
    REJECT_CPU = 0.0002
    REJECT_BYTES = 512

    def __init__(
        self,
        sim,
        link,
        disk,
        params: Optional[ServerParams] = None,
        *,
        processor_threads: int = 4,
        file_io_threads: int = 2,
        cache_bytes: int = 20 * 1024 * 1024,
        cache_policy: Optional[str] = "LRU",
        scan_coefficient: float,
        dispatch_latency: float,
        scheduling_quotas: Optional[Dict[int, int]] = None,
        priority_of_class: Optional[Dict[str, int]] = None,
        overload: bool = False,
        overload_high: int = 20,
        overload_low: int = 5,
        degradation: bool = False,
        shed_rate: float = 5.0,
        shed_burst: float = 10.0,
        shed_retry_after: float = 1.0,
        sojourn_deadline: Optional[float] = 0.4,
        sojourn_interval: float = 0.1,
    ):
        super().__init__(sim, link, disk, params)
        self.processor_threads = processor_threads
        self.scan_coefficient = scan_coefficient
        self.dispatch_latency = dispatch_latency
        self.priority_of_class = priority_of_class or {}
        # Real O8 machinery: quota priority queue when scheduling is on.
        if scheduling_quotas:
            self.queue = QuotaPriorityQueue(scheduling_quotas)
        else:
            self.queue = FifoEventQueue()
        self._tokens = Store(sim)  # wakes sim workers; ordering is the queue's
        # Real O6 machinery: byte-budgeted app cache over (path -> size).
        self.cache: Optional[Cache] = None
        if cache_policy is not None:
            self.cache = Cache(capacity=cache_bytes,
                               policy=make_policy(cache_policy))
        # Real O9 machinery: watermark overload control on the queue.
        self.overload: Optional[OverloadController] = None
        if overload:
            self.overload = OverloadController()
            self.overload.watch(
                "reactive", probe=lambda: len(self.queue),
                mark=Watermark(high=overload_high, low=overload_low))
        # Real O17 machinery: the degradation plane, on the sim clock.
        self.shedding: Optional[SheddingPolicy] = None
        self.rejected_connections = 0
        self.rejected_requests = 0
        if degradation:
            if self.overload is None:
                raise ValueError(
                    "degradation requires overload control "
                    "(the template's O17 -> O9 constraint)")
            self.shedding = SheddingPolicy(
                overload=self.overload,
                limiter=ClientRateLimiter(
                    rate=shed_rate, burst=shed_burst,
                    clock=lambda: sim.now),
                retry_after=shed_retry_after,
                on_overload="reject")
            if sojourn_deadline:
                self.queue = SojournQueue(
                    self.queue,
                    deadline=sojourn_deadline,
                    interval=sojourn_interval,
                    on_drop=self._on_sojourn_drop,
                    droppable=lambda item: item[0] == "request",
                    clock=lambda: sim.now)
        self._file_io = Resource(sim, capacity=file_io_threads)

    # -- lifecycle -------------------------------------------------------
    def start(self) -> None:
        self.sim.process(self._acceptor(), name="acceptor")
        for i in range(self.processor_threads):
            self.sim.process(self._processor_worker(), name=f"reactive-{i}")

    # -- acceptor ----------------------------------------------------------
    def _acceptor(self):
        while True:
            if self.overload is not None and self.shedding is None:
                # Postpone accepts while a watched queue is over its high
                # watermark: connections stay in the kernel backlog and
                # excess SYNs get dropped (the Fig 6 mechanism).
                while not self.overload.accepting():
                    yield self.sim.timeout(self.OVERLOAD_CHECK)
            conn = yield self.listen.accept()
            if self.shedding is not None and not self._admit(conn):
                # Rejects keep draining the backlog at full speed: the
                # whole point of the cheap write path is that a waiting
                # client costs one canned send instead of a service slot.
                continue
            conn.priority = self.priority_of_class.get(
                getattr(conn, "content_class", "default"), conn.priority)
            conn.accepted.succeed(self.sim.now)
            self.open_connections += 1
            self.sim.process(self._connection_pump(conn))
            yield self.sim.timeout(self.ACCEPT_LATENCY)

    # -- degradation plane (O17) -----------------------------------------
    def _admit(self, conn) -> bool:
        """The O17 accept gate: explicit prioritized decisions instead
        of the silent postpone latch."""
        decision = self.shedding.admit_accept()
        if not decision.admitted:
            self.shedding.record_rejection(
                decision, f"client={conn.client_id}")
            self.sim.process(self._reject_connection(conn, decision))
            return False
        limited = self.shedding.admit_client(f"client-{conn.client_id}")
        if not limited.admitted:
            self.sim.process(self._reject_connection(conn, limited))
            return False
        return True

    def _reject_connection(self, conn, decision: ShedDecision):
        """Cheap write-path rejection: the client gets the canned 503 +
        Retry-After and a close — no service slot, no disk, no queue."""
        self.rejected_connections += 1
        conn.rejected = True
        conn.retry_after = decision.retry_after
        yield from self.cpu.consume(self.REJECT_CPU)
        yield from self.link.transfer(self.REJECT_BYTES)
        conn.accepted.succeed(self.sim.now)
        conn.close()

    def _on_sojourn_drop(self, item, sojourn: float) -> None:
        """A queued request blew its sojourn deadline (CoDel): 503 the
        victim instead of serving it uselessly late."""
        _kind, request = item
        self.shedding.record_rejection(
            ShedDecision("reject", "queue-deadline",
                         self.shedding.retry_after),
            f"sojourn={sojourn:.3f}s")
        self.sim.process(self._reject_request(request))

    def _reject_request(self, request: SimRequest):
        self.rejected_requests += 1
        request.rejected = True
        request.retry_after = self.shedding.retry_after
        yield from self.cpu.consume(self.REJECT_CPU)
        yield from self.link.transfer(self.REJECT_BYTES)
        request.done.succeed(self.sim.now)

    @property
    def shed_total(self) -> int:
        """Every explicit shed decision (accept-edge and sojourn)."""
        return self.shedding.shed_total if self.shedding is not None else 0

    def _connection_pump(self, conn):
        """Per-connection arrival path: request bytes became readable;
        the dispatcher queues a reactive event."""
        while True:
            request = yield conn.requests.get()
            if request is None:
                self.open_connections -= 1
                return
            if self.dispatch_latency:
                yield self.sim.timeout(self.dispatch_latency)
            self._enqueue("request", request, conn.priority)

    def _enqueue(self, kind: str, request: SimRequest, priority: int) -> None:
        self.queue.push((kind, request), priority=priority)
        self._tokens.put(1)

    @property
    def pending_events(self) -> int:
        return len(self.queue)

    # -- reactive event processor --------------------------------------------
    def _processor_worker(self):
        while True:
            yield self._tokens.get()
            item = self.queue.try_pop()
            if item is None:
                continue
            kind, request = item
            if kind == "request":
                yield from self._handle_request(request)
            else:
                yield from self._handle_completion(request)

    def _scan_cpu(self) -> float:
        """Per-event readiness-scan cost: select/poll walks all handles."""
        return self.scan_coefficient * self.open_connections

    def _handle_request(self, request: SimRequest):
        yield from self.cpu.consume(
            self.params.cpu_per_request + self._scan_cpu())
        if self.params.decode_extra_cpu:
            # The Fig 6 CPU-intensive decode: occupies this processor
            # thread (a sleep in the paper's experiment).
            yield self.sim.timeout(self.params.decode_extra_cpu)
        if self.cache is not None and self.cache.get(request.path) is not None:
            # Non-blocking send: the socket write is driven by writable
            # events, not by this processor thread.
            self.sim.process(self._respond(request))
            return
        # App-cache miss: emulated non-blocking file I/O; the completion
        # re-enters the reactive queue at the connection's priority.
        self.sim.process(self._file_read(request))

    def _file_read(self, request: SimRequest):
        slot = self._file_io.request()
        yield slot
        try:
            yield from self.disk.read(request.path, request.size)
        finally:
            self._file_io.release(slot)
        if self.cache is not None:
            self.cache.put(request.path, request.size)
        self._enqueue("completion", request, request.conn.priority)

    def _handle_completion(self, request: SimRequest):
        yield from self.cpu.consume(self.COMPLETION_CPU + self._scan_cpu())
        self.sim.process(self._respond(request))
        yield self.sim.timeout(0)
