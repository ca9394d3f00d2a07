"""Shared pieces of the simulated server architecture models."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.sim.core import SimEvent, Simulator
from repro.sim.disk import Disk
from repro.sim.host import CpuPool
from repro.sim.link import Link
from repro.sim.tcp import ListenQueue, SimConnection

__all__ = ["SimRequest", "ServerParams", "BaseSimServer", "REQUEST_BYTES"]

#: a typical "GET /path HTTP/1.1" + headers on the wire
REQUEST_BYTES = 350


@dataclass
class SimRequest:
    """One in-flight request inside the simulated server."""

    conn: SimConnection
    path: str
    size: int
    done: SimEvent
    created_at: float
    content_class: str = "default"
    #: the server shed this request after admission (O17 sojourn
    #: deadline): ``done`` fires with a fast 503 instead of the page
    rejected: bool = False
    retry_after: float = 0.0


@dataclass
class ServerParams:
    """Knobs shared by every server model (calibrated in
    ``repro.sim.testbed``; see EXPERIMENTS.md for the rationale)."""

    cpus: int = 4
    backlog: int = 128
    #: CPU seconds to parse + handle one request
    cpu_per_request: float = 0.004
    #: extra CPU per request during the Decode step (Fig 6 makes this
    #: 50 ms to force a CPU bottleneck)
    decode_extra_cpu: float = 0.0


class BaseSimServer:
    """Common state: listen queue, resources, counters."""

    name = "base"

    def __init__(self, sim: Simulator, link: Link, disk: Disk,
                 params: Optional[ServerParams] = None):
        self.sim = sim
        self.link = link
        self.disk = disk
        self.params = params or ServerParams()
        self.cpu = CpuPool(sim, cpus=self.params.cpus)
        self.listen = ListenQueue(sim, backlog=self.params.backlog)
        self.open_connections = 0

    def start(self) -> None:
        """Spawn the server's processes; override."""
        raise NotImplementedError

    # -- helpers ------------------------------------------------------------
    def _respond(self, request: SimRequest):
        """Ship the response over the link and complete the request."""
        yield from self.link.transfer(request.size)
        request.done.succeed(self.sim.now)
