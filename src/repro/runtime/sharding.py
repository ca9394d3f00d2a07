"""Connection placement for multi-reactor sharding (option O14).

The paper's servers run a single reactor loop; the classic step past
one core is N reactors behind one listening socket.  The template's
``mod_sharding.py`` generates that shape when O14>1: a ``Sharding``
component builds N Reactors, lets only the primary listen, and places
every accepted connection on one shard.  Placement is a pluggable
:class:`ShardPolicy` — round-robin, least-connections, or
connection-hash affinity — chosen by the generated
``ServerConfiguration.shard_policy`` knob through
:func:`make_shard_policy`.
"""

from __future__ import annotations

import zlib
from typing import Callable, Optional, Sequence

from repro.lint.locks import access, make_lock

__all__ = [
    "ShardPolicy",
    "RoundRobinPolicy",
    "LeastConnectionsPolicy",
    "ConnectionHashPolicy",
    "make_shard_policy",
]


class ShardPolicy:
    """Chooses the shard index for each accepted connection."""

    name = "policy"

    def __init__(self, shard_count: int):
        if shard_count < 1:
            raise ValueError("shard_count must be >= 1")
        self.shard_count = shard_count

    def pick(self, handle) -> int:
        """The shard index for one accepted connection handle."""
        raise NotImplementedError


class RoundRobinPolicy(ShardPolicy):
    """Strict rotation — uniform placement regardless of lifetime."""

    name = "round-robin"

    def __init__(self, shard_count: int):
        super().__init__(shard_count)
        self._next = 0
        self._lock = make_lock("RoundRobinPolicy")

    def pick(self, handle) -> int:
        """Next index in strict rotation (lock-protected cursor)."""
        with self._lock:
            access(self, "_next")
            index = self._next
            self._next = (index + 1) % self.shard_count
        return index


class LeastConnectionsPolicy(ShardPolicy):
    """Place on the shard with the fewest open connections (ties go to
    the lowest shard id).  ``loads`` holds one zero-argument probe per
    shard returning its current connection count."""

    name = "least-connections"

    def __init__(self, shard_count: int,
                 loads: Sequence[Callable[[], int]]):
        super().__init__(shard_count)
        if len(loads) != shard_count:
            raise ValueError("one load probe per shard required")
        self.loads = list(loads)

    def pick(self, handle) -> int:
        """Index of the least-loaded shard; lowest id wins ties."""
        return min(range(self.shard_count),
                   key=lambda i: (self.loads[i](), i))


class ConnectionHashPolicy(ShardPolicy):
    """Peer-address affinity: the same client host always lands on the
    same shard (CRC32 of the peer address — stable across processes,
    unlike ``hash`` under ``PYTHONHASHSEED``)."""

    name = "connection-hash"

    def pick(self, handle) -> int:
        """Stable index from the peer host's CRC32."""
        peer = getattr(handle, "name", "") or ""
        host = peer.rsplit(":", 1)[0]
        return zlib.crc32(host.encode("utf-8", "replace")) % self.shard_count


def make_shard_policy(name: str, shard_count: int,
                      loads: Optional[Sequence[Callable[[], int]]] = None
                      ) -> ShardPolicy:
    """Policy factory keyed by the names the CLI and the generated
    ``ServerConfiguration.shard_policy`` knob use."""
    if name in ("round-robin", "rr"):
        return RoundRobinPolicy(shard_count)
    if name in ("least-connections", "least"):
        if loads is None:
            raise ValueError("least-connections needs per-shard load probes")
        return LeastConnectionsPolicy(shard_count, loads)
    if name in ("connection-hash", "hash"):
        return ConnectionHashPolicy(shard_count)
    raise ValueError(f"unknown shard policy {name!r}")
