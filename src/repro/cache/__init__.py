"""File caching subsystem (N-Server option O6).

Provides the byte-budgeted :class:`Cache` with the paper's five
replacement policies (LRU, LFU, LRU-MIN, LRU-Threshold, Hyper-G) plus
the custom-policy hook, and the read-through :class:`FileCache` used by
generated servers.
"""

from repro import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, globals(), {
    "base": ("Cache", "CacheEntry", "CacheStats", "ReplacementPolicy"),
    "file_cache": ("CachedFile", "FileCache", "FileNotCacheable"),
    "policies": (
        "POLICIES", "CustomPolicy", "HyperGPolicy", "LFUPolicy",
        "LRUMinPolicy", "LRUPolicy", "LRUThresholdPolicy", "make_policy",
    ),
})
