"""Simulated server architecture models: the event-driven N-Server
(COPS-HTTP), the Apache-style prefork baseline, and the related-work
architectures (SPED, MPED, SEDA)."""

from repro.sim.servers.common import (
    REQUEST_BYTES,
    BaseSimServer,
    ServerParams,
    SimRequest,
)
from repro.sim.servers.event_driven import EventDrivenServer
from repro.sim.servers.prefork import PreforkServer
from repro.sim.servers.seda import SedaServer
from repro.sim.servers.sped import MpedServer, SpedServer

__all__ = [
    "BaseSimServer",
    "EventDrivenServer",
    "MpedServer",
    "PreforkServer",
    "REQUEST_BYTES",
    "SedaServer",
    "ServerParams",
    "SimRequest",
    "SpedServer",
]
