"""Disk and OS buffer cache models.

The paper's testbed: COPS-HTTP has a 20 MB application file cache and
"the file system has a memory buffer of size 80 MB"; the 204.8 MB
SpecWeb99 set does not fit, so misses reach the disk.

The OS buffer cache reuses the *real* cache implementation
(:class:`repro.cache.Cache` with LRU) over size-only entries — the same
replacement code the generated servers run.
"""

from __future__ import annotations

from repro.cache import Cache, LRUPolicy
from repro.sim.core import Resource, Simulator

__all__ = ["OsBufferCache", "Disk"]


class OsBufferCache:
    """Size-budgeted LRU page cache keyed by file path."""

    def __init__(self, capacity_bytes: int = 80 * 1024 * 1024):
        self.cache = Cache(capacity=capacity_bytes, policy=LRUPolicy())

    def lookup(self, path: str, size: int) -> bool:
        """True on hit.  A miss inserts the file (read-through)."""
        if self.cache.get(path) is not None:
            return True
        self.cache.put(path, size)
        return False

    @property
    def stats(self):
        return self.cache.stats


class Disk:
    """Single-arm disk: seek + transfer, FIFO-serialised."""

    def __init__(self, sim: Simulator, seek_time: float = 0.008,
                 bandwidth_bps: float = 320e6,
                 buffer_cache: OsBufferCache | None = None):
        self.sim = sim
        self.seek_time = seek_time
        self.bandwidth_bps = bandwidth_bps
        self.buffer = buffer_cache if buffer_cache is not None else OsBufferCache()
        self._arm = Resource(sim, capacity=1)
        self.physical_reads = 0
        self.buffered_reads = 0

    def service_time(self, nbytes: int) -> float:
        return self.seek_time + nbytes * 8.0 / self.bandwidth_bps

    def read(self, path: str, nbytes: int):
        """Process-style read: fast on an OS-buffer hit, seek+transfer
        on a miss.  ``yield from disk.read(path, n)``."""
        if self.buffer.lookup(path, nbytes):
            self.buffered_reads += 1
            # Memory copy cost: effectively instantaneous at this scale.
            yield self.sim.timeout(nbytes / 4e9)
            return
        req = self._arm.request()
        yield req
        try:
            yield self.sim.timeout(self.service_time(nbytes))
        finally:
            self._arm.release(req)
        self.physical_reads += 1
