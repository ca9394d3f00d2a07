"""Pooled read buffers: a size-classed pool of reusable bytearrays.

Every live connection reads into one buffer checked out of the event
source's :class:`BufferPool` (``SocketHandle.try_recv``) and hands it
back at close, so a busy server reuses a bounded set of buffers instead
of allocating one per connection.  Hit/miss statistics surface through
the O11 observability sampler as ``server_read_pool_hit_rate``.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from repro.lint.locks import access, make_lock

__all__ = ["BufferPool", "BufferPoolStats", "PooledBuffer",
           "DEFAULT_SIZE_CLASSES"]

#: size classes of a pool built without explicit ones
DEFAULT_SIZE_CLASSES = (1024, 4096, 16384, 65536)


class BufferPoolStats:
    """Acquire/release accounting; ``hit_rate`` is the sampler gauge.

    Counter updates happen inside the owning pool's critical sections,
    so the stats object *shares* the pool's lock — readers
    (``hit_rate``, ``snapshot``, the O11 sampler) take it too, instead
    of the old torn-read-prone unlocked reads.
    """

    __slots__ = ("_lock", "hits", "misses", "releases", "discards")

    def __init__(self, lock=None):
        self._lock = lock if lock is not None else make_lock("BufferPoolStats")
        self.hits = 0
        self.misses = 0
        self.releases = 0
        self.discards = 0

    @property
    def acquires(self) -> int:
        """Total acquires (hits + misses)."""
        with self._lock:
            access(self, "hits", write=False)
            return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        with self._lock:
            access(self, "hits", write=False)
            hits, total = self.hits, self.hits + self.misses
        return hits / total if total else 0.0

    def snapshot(self) -> dict:
        with self._lock:
            access(self, "hits", write=False)
            snap = {
                "hits": self.hits,
                "misses": self.misses,
                "releases": self.releases,
                "discards": self.discards,
            }
        total = snap["hits"] + snap["misses"]
        snap["hit_rate"] = snap["hits"] / total if total else 0.0
        return snap


class PooledBuffer:
    """One reusable buffer checked out of a :class:`BufferPool`.

    The pool only re-issues a buffer after :meth:`release`, so storage
    still in use is never handed to a second owner.
    """

    __slots__ = ("pool", "data", "in_use")

    def __init__(self, pool: Optional["BufferPool"], capacity: int):
        self.pool = pool
        self.data = bytearray(capacity)
        self.in_use = True

    @property
    def capacity(self) -> int:
        """The backing storage size in bytes."""
        return len(self.data)

    def release(self) -> None:
        """Hand the buffer back to its pool, if it came from one."""
        if self.pool is not None:
            self.pool.release(self)


class BufferPool:
    """Size-classed pool of :class:`PooledBuffer` objects.

    ``acquire(size)`` returns a buffer whose capacity is the smallest
    size class >= ``size`` (an exact-size one-shot buffer for oversize
    requests).  Only *released* buffers sit in the free lists, so the
    pool can never hand out storage that is still referenced.  At most
    ``per_class`` buffers are retained per class; extra releases are
    discarded to bound memory.
    """

    def __init__(self, classes: Sequence[int] = DEFAULT_SIZE_CLASSES,
                 per_class: int = 64):
        if not classes:
            raise ValueError("at least one size class required")
        self.classes: Tuple[int, ...] = tuple(sorted(int(c) for c in classes))
        if self.classes[0] <= 0:
            raise ValueError("size classes must be positive")
        self.per_class = int(per_class)
        self._free = {c: [] for c in self.classes}
        self._lock = make_lock("BufferPool")
        self.stats = BufferPoolStats(self._lock)

    def size_class(self, size: int) -> Optional[int]:
        """The smallest size class >= ``size``; None when oversize."""
        for c in self.classes:
            if size <= c:
                return c
        return None

    def acquire(self, size: int) -> PooledBuffer:
        """Check out a buffer with room for ``size`` bytes."""
        cls = self.size_class(size)
        if cls is not None:
            with self._lock:
                access(self, "_free")
                access(self.stats, "hits")
                free = self._free[cls]
                if free:
                    self.stats.hits += 1
                    buf = free.pop()
                    buf.in_use = True
                    return buf
                self.stats.misses += 1
            return PooledBuffer(self, cls)
        with self._lock:
            access(self.stats, "hits")
            self.stats.misses += 1
        return PooledBuffer(self, size)

    def release(self, buf: PooledBuffer) -> None:
        """Return a buffer to its free list (discarded over ``per_class``)."""
        if buf.pool is not self:
            raise ValueError("buffer belongs to a different pool")
        with self._lock:
            access(self, "_free")
            access(self.stats, "hits")
            if not buf.in_use:
                raise ValueError("double release of pooled buffer")
            buf.in_use = False
            self.stats.releases += 1
            free = self._free.get(len(buf.data))
            if free is not None and len(free) < self.per_class:
                free.append(buf)
            else:
                self.stats.discards += 1

    def free_count(self) -> int:
        """Buffers currently sitting in the free lists."""
        with self._lock:
            access(self, "_free", write=False)
            return sum(len(free) for free in self._free.values())
