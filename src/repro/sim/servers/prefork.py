"""Apache 1.3-style prefork model: process-per-connection.

"Apache implements the process-per-connection concurrency model and
uses a bounded worker process pool of 150 processes to serve
simultaneous client connections."

Each worker loops: take a connection from the kernel backlog, serve its
requests until the client closes, repeat.  Multiprogramming overhead —
context switching, scheduling, cache pollution — inflates per-request
CPU time as the number of in-service worker processes grows
(:func:`repro.sim.host.multiprogramming_inflation`).
"""

from __future__ import annotations

from repro.sim.host import multiprogramming_inflation
from repro.sim.servers.common import BaseSimServer, ServerParams, SimRequest

__all__ = ["PreforkServer"]


class PreforkServer(BaseSimServer):
    """The Apache baseline of Figs 3 and 4."""

    name = "apache-prefork"

    #: in-service worker processes that schedule essentially for free;
    #: each one beyond this adds ``sched_latency`` of run-queue wait
    SCHED_FREE_PROCESSES = 16

    def __init__(self, sim, link, disk, params: ServerParams | None = None,
                 workers: int = 150, overhead_coefficient: float = 0.002,
                 sched_latency: float = 0.0005):
        super().__init__(sim, link, disk, params)
        self.workers = workers
        self.overhead_coefficient = overhead_coefficient
        #: run-queue delay each CPU burst suffers per schedulable process
        #: beyond :attr:`SCHED_FREE_PROCESSES` (time-slicing wait, not CPU
        #: work)
        self.sched_latency = sched_latency
        self.active_workers = 0

    def start(self) -> None:
        for i in range(self.workers):
            self.sim.process(self._worker(), name=f"worker-{i}")

    def _worker(self):
        while True:
            conn = yield self.listen.accept()
            conn.accepted.succeed(self.sim.now)
            self.open_connections += 1
            self.active_workers += 1
            try:
                while True:
                    request = yield conn.requests.get()
                    if request is None:  # client closed
                        break
                    yield from self._serve(request)
            finally:
                self.active_workers -= 1
                self.open_connections -= 1

    def _serve(self, request: SimRequest):
        sched_excess = max(0, self.active_workers - self.SCHED_FREE_PROCESSES)
        if sched_excess:
            # Scheduling wait: with many runnable processes the worker
            # queues for a time slice before (and between) bursts.
            yield self.sim.timeout(self.sched_latency * sched_excess)
        inflation = multiprogramming_inflation(
            self.active_workers, self.params.cpus, self.overhead_coefficient)
        cpu_time = (self.params.cpu_per_request
                    + self.params.decode_extra_cpu) * inflation
        yield from self.cpu.consume(cpu_time)
        # Apache relies on the OS buffer cache alone (no app-level cache).
        yield from self.disk.read(request.path, request.size)
        yield from self._respond(request)
