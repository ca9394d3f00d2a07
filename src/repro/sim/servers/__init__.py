"""Simulated server architecture models: the event-driven N-Server
(COPS-HTTP) and the Apache-style prefork baseline it is measured
against in Figs 3-6."""

from repro.sim.servers.common import (
    REQUEST_BYTES,
    BaseSimServer,
    ServerParams,
    SimRequest,
)
from repro.sim.servers.event_driven import EventDrivenServer
from repro.sim.servers.prefork import PreforkServer

__all__ = [
    "BaseSimServer",
    "EventDrivenServer",
    "PreforkServer",
    "REQUEST_BYTES",
    "ServerParams",
    "SimRequest",
]
