"""Server host model: CPUs with multiprogramming overhead.

Two costs the paper's background section names for multiprogramming
concurrency models — "context switching and scheduling, cache misses,
and lock contention" — are modelled as a per-request CPU inflation that
grows with the number of in-service processes.  Event-driven servers pay
a different cost: readiness scanning (select/poll walks every registered
handle), modelled as per-event CPU that grows with open connections.
"""

from __future__ import annotations

from repro.sim.core import Resource, Simulator

__all__ = ["CpuPool"]


class CpuPool:
    """N CPUs; work is FIFO-scheduled via a counted resource."""

    def __init__(self, sim: Simulator, cpus: int = 4):
        if cpus < 1:
            raise ValueError("cpus must be >= 1")
        self.sim = sim
        self.cpus = cpus
        self._res = Resource(sim, capacity=cpus)
        self.busy_time = 0.0

    def consume(self, seconds: float):
        """Process-style CPU burn: ``yield from cpu.consume(t)``."""
        if seconds <= 0:
            return
        req = self._res.request()
        yield req
        try:
            yield self.sim.timeout(seconds)
            self.busy_time += seconds
        finally:
            self._res.release(req)

    def utilization(self, elapsed: float) -> float:
        if elapsed <= 0:
            return 0.0
        return min(1.0, self.busy_time / (elapsed * self.cpus))


def multiprogramming_inflation(active_processes: int, cpus: int,
                               coefficient: float = 0.004) -> float:
    """CPU-time inflation factor for a process-per-connection server
    running ``active_processes`` schedulable processes on ``cpus`` CPUs.

    1.0 while everything fits on the CPUs; grows linearly with the
    process count beyond that (context switches, cache pollution,
    run-queue management — the overheads [28]/[13] report).
    """
    excess = max(0, active_processes - cpus)
    return 1.0 + coefficient * excess


__all__.append("multiprogramming_inflation")
