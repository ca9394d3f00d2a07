"""Discrete-event simulation testbed.

Stands in for the paper's physical testbed (Sun E420R servers, Ultra 10
clients, switched Ethernet): simulated hosts with CPUs and context-switch
costs, disks with an OS buffer cache, a shared-bandwidth link, TCP
connection establishment with SYN drops and exponential backoff, and
client workload processes.  The two server *architecture models* the
figures compare (the event-driven N-Server and the Apache-style prefork
baseline) live in ``repro.sim.servers``.
"""

from repro.sim.core import (
    Process,
    Resource,
    SimEvent,
    SimulationError,
    Simulator,
    Store,
    Timeout,
)

__all__ = [
    "Process",
    "Resource",
    "SimEvent",
    "SimulationError",
    "Simulator",
    "Store",
    "Timeout",
]
