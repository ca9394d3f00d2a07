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
generated synchronous read.  A body of at least one page is an open
:class:`~repro.runtime.handles.FileHandle`, not a copy: the kernel page
cache holds its bytes once for every process, and a reply sends them
with ``os.sendfile``.  A cache therefore holds file descriptors, and
bounds them to a share of the soft ``RLIMIT_NOFILE`` besides its byte
budget.
"""

from __future__ import annotations

import os
import resource
import threading
from typing import Any, Callable, Optional

from repro.cache.base import Cache, ReplacementPolicy
from repro.cache.policies import make_policy
from repro.lint.locks import access, make_lock, shared
from repro.runtime.handles import FileHandle

__all__ = ["FileCache", "FileNotCacheable", "CachedFile", "read_body"]

#: bodies of at least this many bytes are sent from the page cache
PAGE = resource.getpagesize()

#: a cache holds at most 1/FD_SHARE of the soft RLIMIT_NOFILE open as
#: file bodies; the rest stays for connections and queued replies
FD_SHARE = 2

#: bytes per read of the warming pass (one buffer per reading thread)
WARM_CHUNK = 64 * 1024

_warm = threading.local()


def read_body(root: Optional[str], path: str):
    """The body of the file at ``path`` under the document ``root``.

    ``..`` traversal out of ``root`` — including into a sibling that
    merely shares its prefix, like ``<root>-secrets`` — and a missing
    ``root`` raise ``FileNotFoundError``.  The body is read-only:
    ``bytes`` below one page, an open :class:`FileHandle` from one page
    up.  A file body is read once through this thread's reused buffer
    so its pages are in the page cache when a sender gets to them; that
    copy is dropped, and the fd closes with the body's last reference.
    """
    if root is None:
        raise FileNotFoundError(path)
    root = os.path.abspath(root)
    full = os.path.abspath(os.path.join(root, path.lstrip("/")))
    if full != root and not full.startswith(root + os.sep):
        raise FileNotFoundError(path)
    body = FileHandle(full)
    if body.size < PAGE:
        data = bytes(body)
        body.close()
        return data
    body.size = _read_through(body)
    return body


def _read_through(body: FileHandle) -> int:
    """Read ``body`` once into this thread's warming buffer; returns the
    bytes the file still had (fewer than ``body.size`` if it shrank)."""
    buf = getattr(_warm, "buf", None)
    if buf is None:
        buf = _warm.buf = memoryview(bytearray(WARM_CHUNK))
    fd, got, size = body.fileno(), 0, body.size
    while got < size:
        n = os.preadv(fd, [buf[:size - got]], got)
        if not n:
            break
        got += n
    return got


def fd_budget() -> Optional[int]:
    """The file bodies a cache may hold open: a share of the soft
    ``RLIMIT_NOFILE`` (None when unlimited)."""
    soft, _hard = resource.getrlimit(resource.RLIMIT_NOFILE)
    if soft == resource.RLIM_INFINITY:
        return None
    return max(1, soft // FD_SHARE)


class FileNotCacheable(Exception):
    """Raised by loaders to signal a file exists but must not be cached."""


class CachedFile:
    """What ``get_file`` returns: payload plus where it came from.

    A docroot payload is ``bytes`` or a :class:`FileHandle` (see
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

    A :class:`FileHandle` payload holds an fd: the cache keeps at most
    :func:`fd_budget` of them, read when the cache is built, and evicts
    for them in the same pass as for bytes.
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
        self.cache = Cache(capacity=capacity, policy=policy,
                           max_fds=fd_budget())
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
            self.cache.put(path, size, payload,
                           fds=int(isinstance(payload, FileHandle)))
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
