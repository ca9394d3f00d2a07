"""File cache: the cache front-end generated servers actually call.

Wraps :class:`repro.cache.base.Cache` with a *loader* so a miss fetches
the file through whatever backing store the deployment uses:

* real servers pass a loader that reads from disk;
* the simulation testbed passes a loader that consults the simulated
  disk model (returning sizes only).

This mirrors the paper's transparent caching: "programmers have no extra
development effort" — the generated Read-file path goes through
``get_file`` and the cache is invisible to hook code.

Every docroot read in the framework goes through :func:`read_body`: the
cache's directory loader, the uncached asynchronous read and the
generated synchronous read.  A body of at least one page lives in its
own anonymous mapping rather than on the malloc heap, so an evicted
body's pages go back to the kernel as soon as its last reference (the
cache entry, or a reply segment still queued) drops.
"""

from __future__ import annotations

import mmap
import os
from typing import Any, Callable, Optional

from repro.cache.base import Cache, ReplacementPolicy
from repro.cache.policies import make_policy
from repro.lint.locks import access, make_lock, shared

__all__ = ["FileCache", "FileNotCacheable", "CachedFile", "read_body"]


def read_body(root: Optional[str], path: str):
    """The body of the file at ``path`` under the document ``root``.

    ``..`` traversal out of ``root`` — including into a sibling that
    merely shares its prefix, like ``<root>-secrets`` — and a missing
    ``root`` raise ``FileNotFoundError``.  The body is read-only and
    bytes-like: ``bytes`` below one page, a ``memoryview`` of a private
    anonymous mapping from one page up.  Nothing closes the mapping;
    its pages are unmapped when the last view of it is dropped.
    """
    if root is None:
        raise FileNotFoundError(path)
    root = os.path.abspath(root)
    full = os.path.abspath(os.path.join(root, path.lstrip("/")))
    if full != root and not full.startswith(root + os.sep):
        raise FileNotFoundError(path)
    with open(full, "rb", buffering=0) as fh:
        size = os.fstat(fh.fileno()).st_size
        if size >= mmap.PAGESIZE:
            try:
                pages = mmap.mmap(-1, size, flags=mmap.MAP_PRIVATE)
            except OSError:
                # e.g. vm.max_map_count exhausted: the heap still works
                return fh.read()
            view = memoryview(pages)
            got = 0
            while got < size:
                n = fh.readinto(view[got:])
                if not n:
                    break
                got += n
            return view[:got].toreadonly()
        return fh.read()


class FileNotCacheable(Exception):
    """Raised by loaders to signal a file exists but must not be cached."""


class CachedFile:
    """What ``get_file`` returns: payload plus where it came from.

    A docroot payload is a read-only bytes-like object (see
    :func:`read_body`); a custom loader's payload is whatever it
    returned."""

    __slots__ = ("path", "size", "payload", "from_cache")

    def __init__(self, path: str, size: int, payload: Any, from_cache: bool):
        self.path = path
        self.size = size
        self.payload = payload
        self.from_cache = from_cache


class FileCache:
    """Transparent read-through file cache.

    ``loader(path)`` must return ``(size, payload)`` or raise
    ``FileNotFoundError`` / :class:`FileNotCacheable`.

    Safe to share between threads: one lock guards the cache's entries
    and statistics, and is never held across a load, so a slow disk
    read blocks no hit.  Every ``get_file`` or successful ``lookup``
    counts exactly one hit or one miss.
    """

    def __init__(
        self,
        capacity: int,
        policy: ReplacementPolicy | str = "LRU",
        loader: Optional[Callable[[str], tuple]] = None,
        **policy_kwargs,
    ):
        if isinstance(policy, str):
            policy = make_policy(policy, **policy_kwargs)
        self.cache = Cache(capacity=capacity, policy=policy)
        self.loader = loader
        self._lock = make_lock("FileCache")
        shared(self.cache, "_entries", label="FileCache")

    @property
    def stats(self):
        return self.cache.stats

    @property
    def policy_name(self) -> str:
        return self.cache.policy.name

    def lookup(self, path: str) -> Optional[CachedFile]:
        """The cached file at ``path`` counted as a hit, or None — one
        locked call that never loads and counts no miss (the load that
        follows a None counts it)."""
        with self._lock:
            access(self.cache, "_entries")
            entry = self.cache.peek(path)
            if entry is None:
                return None
            self.cache.touch(entry)
        return CachedFile(path=path, size=entry.size, payload=entry.payload,
                          from_cache=True)

    def get_file(self, path: str) -> CachedFile:
        """Return the file at ``path``, from cache when possible.

        Raises ``FileNotFoundError`` when the loader does.
        """
        with self._lock:
            access(self.cache, "_entries")
            entry = self.cache.get(path)
        if entry is not None:
            return CachedFile(path=path, size=entry.size,
                              payload=entry.payload, from_cache=True)
        if self.loader is None:
            raise FileNotFoundError(path)
        try:
            size, payload = self.loader(path)
        except FileNotCacheable as exc:
            size, payload = exc.args if len(exc.args) == 2 else (0, None)
            return CachedFile(path=path, size=size, payload=payload,
                              from_cache=False)
        with self._lock:
            access(self.cache, "_entries")
            self.cache.put(path, size, payload)
        return CachedFile(path=path, size=size, payload=payload,
                          from_cache=False)

    def contains(self, path: str) -> bool:
        """Is ``path`` cached?  (No bookkeeping, no hit or miss.)"""
        with self._lock:
            access(self.cache, "_entries", write=False)
            return path in self.cache

    def invalidate(self, path: str) -> bool:
        """Drop a (possibly stale) file from the cache."""
        with self._lock:
            access(self.cache, "_entries")
            return self.cache.invalidate(path)

    @classmethod
    def for_directory(cls, root: str, capacity: int,
                      policy: ReplacementPolicy | str = "LRU",
                      **policy_kwargs) -> "FileCache":
        """Convenience: a cache that reads real files under ``root``
        with :func:`read_body` (paths relative to ``root``, ``..``
        traversal rejected).  An entry's size is the file's size."""
        def loader(path: str):
            body = read_body(root, path)
            return len(body), body

        return cls(capacity=capacity, policy=policy, loader=loader,
                   **policy_kwargs)
