"""Sharded event-driven N-Server (template option O14, simulated).

The simulated counterpart of the generated O14 framework's ``Sharding``
component: N reactor shards — each with its own
listen backlog, reactive queue, Event Processor pool and file cache —
sharing ONE host (one CPU pool, one OS buffer cache / disk, one link).
This is what distinguishes sharding from the :mod:`cluster
<repro.sim.servers.cluster>` model, whose nodes are separate
workstations with private disks.

A single accept plane on the facade's listen queue places each accepted
connection on a shard (round-robin, least-connections, or a stable hash
of the client) and forwards it into that shard's kernel backlog, where
the shard's ordinary acceptor machinery takes over.
"""

from __future__ import annotations

import zlib
from typing import List, Optional

from repro.sim.servers.common import BaseSimServer, ServerParams
from repro.sim.servers.event_driven import EventDrivenServer

__all__ = ["ShardedServer", "SHARD_POLICIES"]

SHARD_POLICIES = ("round-robin", "least-connections", "connection-hash")


class ShardedServer(BaseSimServer):
    """N reactor shards behind one accept plane, sharing one host."""

    name = "cops-sharded"

    def __init__(self, sim, link, disk, params: Optional[ServerParams] = None,
                 *, shards: int = 4, policy: str = "round-robin",
                 accept_latency: float = 0.0005,
                 cache_bytes: int = 20 * 1024 * 1024, **shard_kwargs):
        if shards < 1:
            raise ValueError("shards must be >= 1")
        if policy not in SHARD_POLICIES:
            raise ValueError(f"unknown shard policy {policy!r}")
        super().__init__(sim, link, disk, params)
        self.policy = policy
        self.accept_latency = accept_latency
        # Shards divide the host: the shared CPU pool and disk replace
        # each shard's private ones, and the app-cache budget is split.
        self.shards: List[EventDrivenServer] = []
        for _ in range(shards):
            shard = EventDrivenServer(
                sim, link, disk, params,
                cache_bytes=max(1, cache_bytes // shards), **shard_kwargs)
            shard.cpu = self.cpu
            self.shards.append(shard)
        self._next = 0
        self.assigned_per_shard = [0] * shards

    def start(self) -> None:
        for shard in self.shards:
            shard.start()
        self.sim.process(self._accept_plane(), name="shard-acceptor")

    # -- placement --------------------------------------------------------
    def _pick(self, conn) -> int:
        if self.policy == "round-robin":
            index = self._next
            self._next = (self._next + 1) % len(self.shards)
            return index
        if self.policy == "connection-hash":
            key = str(getattr(conn, "client_id", conn.conn_id)).encode()
            return zlib.crc32(key) % len(self.shards)
        return min(range(len(self.shards)),
                   key=lambda i: self.shards[i].open_connections)

    def _accept_plane(self):
        while True:
            conn = yield self.listen.accept()
            index = self._pick(conn)
            self.assigned_per_shard[index] += 1
            # Hand off into the shard's backlog; its acceptor (with its
            # own overload gate) triggers conn.accepted.
            if not self.shards[index].listen.try_syn(conn):
                spill = min(range(len(self.shards)),
                            key=lambda i: self.shards[i].listen.depth)
                self.shards[spill].listen.try_syn(conn)
            if self.accept_latency:
                yield self.sim.timeout(self.accept_latency)

    # -- aggregated stats ----------------------------------------------------
    @property
    def open_connections(self) -> int:  # type: ignore[override]
        return sum(shard.open_connections for shard in self.shards)

    @open_connections.setter
    def open_connections(self, value) -> None:
        # BaseSimServer.__init__ assigns 0; per-shard counters rule after.
        pass

    @property
    def requests_served_total(self) -> int:
        return sum(shard.requests_served for shard in self.shards)

    @property
    def pending_events(self) -> int:
        return sum(shard.pending_events for shard in self.shards)
