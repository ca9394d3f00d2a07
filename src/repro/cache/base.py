"""Core cache model: entries, statistics, and the policy interface.

The N-Server template's O6 option ("File cache") selects one of five
replacement policies — LRU, LFU, LRU-MIN, LRU-Threshold, Hyper-G — or a
user-supplied *custom* policy hook (section IV of the paper).  The cache
itself is policy-agnostic: a byte-budgeted map from keys to payloads
that consults a :class:`ReplacementPolicy` for admission and eviction.

Payloads are opaque.  The real-socket servers store file bytes; the
simulation testbed stores size-only placeholders so a 200 MB SpecWeb99
file set costs no real memory.
"""

from __future__ import annotations

import itertools
from abc import ABC, abstractmethod
from typing import Any, Dict, Iterable, Optional

__all__ = ["CacheEntry", "CacheStats", "ReplacementPolicy", "Cache"]


class CacheEntry:
    """One cached object plus the bookkeeping every policy may need:
    ``last_access`` is the logical timestamp of the most recent access
    (a monotone counter), ``inserted_at`` that of insertion, and
    ``frequency`` the hits since insertion (insertion itself counts as 1)."""

    __slots__ = ("key", "size", "payload", "last_access", "inserted_at",
                 "frequency")

    def __init__(self, key: Any, size: int, payload: Any = None,
                 last_access: int = 0, inserted_at: int = 0,
                 frequency: int = 1):
        self.key = key
        self.size = size
        self.payload = payload
        self.last_access = last_access
        self.inserted_at = inserted_at
        self.frequency = frequency


class CacheStats:
    """Hit/miss/eviction counters; ``hit_rate`` is the paper's profiling stat."""

    __slots__ = ("hits", "misses", "insertions", "evictions", "rejections",
                 "bytes_evicted")

    def __init__(self, hits: int = 0, misses: int = 0, insertions: int = 0,
                 evictions: int = 0, rejections: int = 0,
                 bytes_evicted: int = 0):
        self.hits = hits
        self.misses = misses
        self.insertions = insertions
        self.evictions = evictions
        self.rejections = rejections
        self.bytes_evicted = bytes_evicted

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def snapshot(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "insertions": self.insertions,
            "evictions": self.evictions,
            "rejections": self.rejections,
            "hit_rate": self.hit_rate,
        }


class ReplacementPolicy(ABC):
    """Strategy consulted by :class:`Cache` for admission and eviction."""

    #: human-readable policy name (matches Table 1's O6 legal values)
    name: str = "abstract"

    def admits(self, entry: CacheEntry, cache: "Cache") -> bool:
        """May ``entry`` be cached at all?  (LRU-Threshold says no to
        documents above its size threshold.)  Default: anything that fits
        in an empty cache."""
        return entry.size <= cache.capacity

    @abstractmethod
    def select_victims(self, cache: "Cache", needed: int) -> Iterable[Any]:
        """Yield keys to evict, in order, until ``needed`` bytes could be
        freed.  The cache stops consuming once enough space is free, so
        policies may over-yield."""

    def on_access(self, entry: CacheEntry, cache: "Cache") -> None:
        """Hook called on every hit (after bookkeeping is updated)."""

    def on_insert(self, entry: CacheEntry, cache: "Cache") -> None:
        """Hook called after an entry is inserted."""

    def on_evict(self, entry: CacheEntry, cache: "Cache") -> None:
        """Hook called after an entry is evicted."""


class Cache:
    """Byte-budgeted object cache with pluggable replacement.

    >>> from repro.cache import Cache, LRUPolicy
    >>> c = Cache(capacity=100, policy=LRUPolicy())
    >>> c.put("/index.html", 60, b"...")
    True
    >>> c.get("/index.html") is not None
    True
    """

    def __init__(self, capacity: int, policy: ReplacementPolicy):
        if capacity <= 0:
            raise ValueError("cache capacity must be positive")
        self.capacity = int(capacity)
        self.policy = policy
        self.stats = CacheStats()
        self._entries: Dict[Any, CacheEntry] = {}
        self._used = 0
        self._clock = itertools.count(1)

    # -- introspection ---------------------------------------------------
    @property
    def used(self) -> int:
        """Bytes currently cached."""
        return self._used

    @property
    def free(self) -> int:
        return self.capacity - self._used

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Any) -> bool:
        return key in self._entries

    def entries(self) -> Iterable[CacheEntry]:
        """Live view of all entries (policies iterate this to pick victims)."""
        return self._entries.values()

    def peek(self, key: Any) -> Optional[CacheEntry]:
        """Look up without touching recency/frequency bookkeeping."""
        return self._entries.get(key)

    # -- operations --------------------------------------------------------
    def get(self, key: Any) -> Optional[CacheEntry]:
        """Return the entry for ``key`` (updating bookkeeping) or ``None``."""
        entry = self._entries.get(key)
        if entry is None:
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        entry.last_access = next(self._clock)
        entry.frequency += 1
        self.policy.on_access(entry, self)
        return entry

    def put(self, key: Any, size: int, payload: Any = None) -> bool:
        """Insert (or replace) ``key``.  Returns False when the policy
        refuses admission or the object cannot fit even after evictions."""
        if size < 0:
            raise ValueError("negative size")
        if key in self._entries:
            self.invalidate(key)
        now = next(self._clock)
        entry = CacheEntry(key=key, size=size, payload=payload,
                           last_access=now, inserted_at=now)
        if not self.policy.admits(entry, self):
            self.stats.rejections += 1
            return False
        if not self._make_room(size):
            self.stats.rejections += 1
            return False
        self._entries[key] = entry
        self._used += size
        self.stats.insertions += 1
        self.policy.on_insert(entry, self)
        return True

    def invalidate(self, key: Any) -> bool:
        """Drop ``key`` without counting it as an eviction (e.g. file
        modified on disk).  Returns True when the key was present."""
        entry = self._entries.pop(key, None)
        if entry is None:
            return False
        self._used -= entry.size
        return True

    def clear(self) -> None:
        self._entries.clear()
        self._used = 0

    # -- internals ---------------------------------------------------------
    def _make_room(self, needed: int) -> bool:
        if needed > self.capacity:
            return False
        if self.free >= needed:
            return True
        for key in list(self.policy.select_victims(self, needed - self.free)):
            entry = self._entries.pop(key, None)
            if entry is None:
                continue
            self._used -= entry.size
            self.stats.evictions += 1
            self.stats.bytes_evicted += entry.size
            self.policy.on_evict(entry, self)
            if self.free >= needed:
                return True
        return self.free >= needed
