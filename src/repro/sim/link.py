"""Shared network link model.

Stands in for the paper's switched Ethernet whose "actual network
bandwidth is limited to something slightly higher than 100 MBits/sec"
with a 1500-byte MTU.  Transfers are serialised FIFO on the link
resource at message granularity; per-packet framing overhead reduces the
effective payload rate exactly as the MTU does.  Propagation latency is
added outside the serialisation (it does not occupy the link).
"""

from __future__ import annotations

import math

from repro.sim.core import Resource, Simulator

__all__ = ["Link"]

ETH_HEADER = 40  # Ethernet + IP + TCP framing per packet, bytes


class Link:
    """A FIFO shared-bandwidth link."""

    def __init__(self, sim: Simulator, bandwidth_bps: float = 105e6,
                 mtu: int = 1500, latency: float = 0.0002):
        if bandwidth_bps <= 0:
            raise ValueError("bandwidth must be positive")
        if mtu <= ETH_HEADER:
            raise ValueError("mtu too small")
        self.sim = sim
        self.bandwidth_bps = bandwidth_bps
        self.mtu = mtu
        self.latency = latency
        self._res = Resource(sim, capacity=1)
        self.bytes_carried = 0
        self.messages = 0

    def serialization_time(self, nbytes: int) -> float:
        """Wire time for ``nbytes`` of payload including packet framing."""
        payload_per_packet = self.mtu - ETH_HEADER
        packets = max(1, math.ceil(nbytes / payload_per_packet))
        wire_bytes = nbytes + packets * ETH_HEADER
        return wire_bytes * 8.0 / self.bandwidth_bps

    def transfer(self, nbytes: int):
        """Process-style transfer: ``yield from link.transfer(n)``."""
        req = self._res.request()
        yield req
        try:
            yield self.sim.timeout(self.serialization_time(nbytes))
        finally:
            self._res.release(req)
        self.bytes_carried += nbytes
        self.messages += 1
        if self.latency:
            yield self.sim.timeout(self.latency)

    def utilization(self, elapsed: float) -> float:
        """Fraction of ``elapsed`` spent serialising, reconstructed from
        the bytes carried (close enough for reporting)."""
        if elapsed <= 0:
            return 0.0
        payload_per_packet = self.mtu - ETH_HEADER
        packets = max(1, math.ceil(self.bytes_carried / payload_per_packet))
        wire = self.bytes_carried + packets * ETH_HEADER
        return min(1.0, wire * 8.0 / self.bandwidth_bps / elapsed)
