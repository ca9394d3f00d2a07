"""TCP connection establishment with SYN drops and exponential backoff.

The Fig 4 story hinges on this: "The extreme unfairness of Apache is
caused by the exponential backoff scheme of the TCP protocol. ... their
TCP SYN packets for establishing connections are dropped [when the
accept backlog is full].  In this case, they may wait for a significant
amount of time before doing a retransmit.  The maximal retransmission
timeout under Solaris is 1 minute."

Model: a server exposes a bounded listen queue (the kernel backlog).  A
client connect attempt succeeds if the backlog has room (the connection
then waits to be *accepted* by the server); otherwise the SYN is dropped
and the client retries after an exponentially growing timeout, capped at
``SYN_RTO_MAX``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional

from repro.sim.core import SimEvent, Simulator, Store

__all__ = ["SimConnection", "ListenQueue", "connect", "SYN_RTO_INITIAL",
           "SYN_RTO_MAX"]

#: Solaris-flavoured SYN retransmission schedule
SYN_RTO_INITIAL = 3.0
SYN_RTO_MAX = 60.0

_conn_ids = itertools.count(1)


@dataclass
class SimConnection:
    """One client connection as both endpoints see it."""

    sim: Simulator
    client_id: int
    conn_id: int = field(default_factory=lambda: next(_conn_ids))
    priority: int = 0
    content_class: str = "default"
    #: triggered by the server when the connection is accepted
    accepted: SimEvent = None
    #: client -> server request rendezvous
    requests: Store = None
    #: the server shed this connection at accept (O17): ``accepted``
    #: still fires — the client got a cheap canned 503 — but no request
    #: will ever be served; honour ``retry_after`` before reconnecting
    rejected: bool = False
    retry_after: float = 0.0
    closed: bool = False
    opened_at: float = 0.0
    last_activity: float = 0.0

    def __post_init__(self):
        if self.accepted is None:
            self.accepted = self.sim.event()
        if self.requests is None:
            self.requests = Store(self.sim)
        self.opened_at = self.sim.now
        self.last_activity = self.sim.now

    def close(self) -> None:
        if not self.closed:
            self.closed = True
            self.requests.put(None)  # EOF sentinel for a blocked reader


class ListenQueue:
    """The kernel accept backlog of a simulated server."""

    def __init__(self, sim: Simulator, backlog: int = 128):
        self.sim = sim
        self.backlog = backlog
        self.queue = Store(sim, capacity=backlog)
        self.syn_drops = 0
        self.syns = 0

    def try_syn(self, conn: SimConnection) -> bool:
        """Deliver a SYN: queued if the backlog has room, dropped else."""
        self.syns += 1
        if self.queue.try_put(conn):
            return True
        self.syn_drops += 1
        return False

    def accept(self) -> SimEvent:
        """Server side: event yielding the next queued connection."""
        return self.queue.get()


def connect(sim: Simulator, listen: ListenQueue, client_id: int,
            priority: int = 0, content_class: str = "default",
            rto_initial: float = SYN_RTO_INITIAL,
            rto_max: float = SYN_RTO_MAX, syn_latency: float = 0.0002,
            jitter=None):
    """Client-side connection establishment (``yield from``).

    Returns ``(connection, wait_time, attempts)`` — wait_time is the
    paper's "time a Web client waits to establish a connection".
    ``jitter()`` (when given) returns a multiplicative factor applied to
    each retransmission timeout, modelling TCP timer granularity so
    retrying clients do not stay phase-locked.
    """
    start = sim.now
    rto = rto_initial
    attempts = 0
    while True:
        attempts += 1
        if syn_latency:
            yield sim.timeout(syn_latency)
        conn = SimConnection(sim=sim, client_id=client_id, priority=priority,
                             content_class=content_class)
        if listen.try_syn(conn):
            yield conn.accepted
            return conn, sim.now - start, attempts
        factor = jitter() if jitter is not None else 1.0
        yield sim.timeout(rto * factor)
        rto = min(rto * 2.0, rto_max)
