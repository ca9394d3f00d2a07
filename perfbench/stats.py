"""Percentiles that refuse to guess, and the fixed-probe rate bisection."""

from __future__ import annotations

import math
from typing import Callable, List, Optional, Sequence, Tuple

#: a percentile is reported only when at least this many samples lie
#: beyond it (p99 needs 1000 samples, p50 needs 20)
MIN_BEYOND = 10


def percentile(values: Sequence[float], q: float) -> Optional[float]:
    """Nearest-rank ``q``-quantile (0 < q < 1), or None when fewer than
    :data:`MIN_BEYOND` samples lie beyond it."""
    n = len(values)
    if n == 0 or n * (1.0 - q) < MIN_BEYOND - 1e-9:
        return None
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * n) - 1)]


def bisect_rate(lo: float, hi: float, probes: int,
                passes: Callable[[float], bool]) -> Tuple[float, List[Tuple[float, bool]]]:
    """Highest rate in ``[lo, hi]`` that ``passes``, by geometric
    bisection with exactly ``probes`` probes (so the run length never
    depends on the outcome).

    ``lo`` is taken to pass and ``hi`` to fail without being probed;
    returns ``(sustained, [(rate, passed), ...])``.
    """
    history = []
    for _ in range(probes):
        mid = math.sqrt(lo * hi)
        ok = passes(mid)
        history.append((mid, ok))
        if ok:
            lo = mid
        else:
            hi = mid
    return lo, history
