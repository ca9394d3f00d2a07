"""File cache: the cache front-end generated servers actually call.

Wraps :class:`repro.cache.base.Cache` with a *loader* so a miss fetches
the file through whatever backing store the deployment uses:

* real servers pass a loader that reads from disk;
* the simulation testbed passes a loader that consults the simulated
  disk model (returning sizes only).

This mirrors the paper's transparent caching: "programmers have no extra
development effort" — the generated Read-file path goes through
``get_file`` and the cache is invisible to hook code.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.cache.base import Cache, ReplacementPolicy
from repro.cache.policies import make_policy

__all__ = ["FileCache", "FileNotCacheable", "CachedFile"]


class FileNotCacheable(Exception):
    """Raised by loaders to signal a file exists but must not be cached."""


class CachedFile:
    """What ``get_file`` returns: payload plus where it came from."""

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

    @property
    def stats(self):
        return self.cache.stats

    @property
    def policy_name(self) -> str:
        return self.cache.policy.name

    def get_file(self, path: str) -> CachedFile:
        """Return the file at ``path``, from cache when possible.

        Raises ``FileNotFoundError`` when the loader does.
        """
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
        self.cache.put(path, size, payload)
        return CachedFile(path=path, size=size, payload=payload,
                          from_cache=False)

    def contains(self, path: str) -> bool:
        return path in self.cache

    def invalidate(self, path: str) -> bool:
        """Drop a (possibly stale) file from the cache."""
        return self.cache.invalidate(path)

    @classmethod
    def for_directory(cls, root: str, capacity: int,
                      policy: ReplacementPolicy | str = "LRU",
                      **policy_kwargs) -> "FileCache":
        """Convenience: a cache that reads real files under ``root``.

        Paths are interpreted relative to ``root``; ``..`` traversal is
        rejected (same check the generated HTTP servers apply).
        """
        import os

        root = os.path.abspath(root)

        def loader(path: str):
            full = os.path.abspath(os.path.join(root, path.lstrip("/")))
            if not full.startswith(root + os.sep) and full != root:
                raise FileNotFoundError(path)
            with open(full, "rb") as fh:
                data = fh.read()
            return len(data), data

        return cls(capacity=capacity, policy=policy, loader=loader,
                   **policy_kwargs)
