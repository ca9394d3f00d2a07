"""Thread-safe metrics registry: counters, gauges, bucketed histograms.

The unified observability layer behind the paper's option O11
("important statistical information of the server application can be
automatically gathered").  The generated frameworks' ``Observability``
component and the :class:`~repro.obs.spans.SpanRecorder` register their
counters directly on it; generated code bumps them with no layer in
between.

Design points:

* **Per-metric locking.**  Every counter/gauge/histogram carries its own
  lock, so two threads updating *different* metrics never contend — the
  fix for the old single-lock profiler hot path (every byte-count
  update on the read/send path used to serialise on one lock).
* **Labeled families.**  ``registry.counter("x_total", labels=("kind",))``
  returns a family; ``family.labels(kind="read")`` returns (and caches)
  the child metric.  Unlabeled registrations return the metric directly.
* **Null object.**  :data:`NULL_METRIC` keeps the O11=No path
  branch-free: a library call site defaults to it, so every recording
  call is a no-op method on a singleton, never an ``if enabled`` check.
* **Race-tracked.**  Metric locks come from
  :func:`repro.lint.locks.make_lock` and the shared fields carry
  :func:`~repro.lint.locks.access` annotations, so the tier-1 suite can
  run under the Eraser-style lockset detector
  (``REPRO_RACE_DETECTOR=1``) and prove the locking discipline holds.
"""

from __future__ import annotations

import bisect
import math
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.lint.locks import access, make_lock

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricFamily",
    "MetricsRegistry",
    "NullMetric",
    "NULL_METRIC",
    "DEFAULT_BUCKETS",
]

#: default latency buckets (seconds): sub-millisecond to multi-second,
#: roughly logarithmic — the range a Python server's request stages span.
DEFAULT_BUCKETS = (0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
                   0.1, 0.25, 0.5, 1.0, 2.5, 5.0)


class Counter:
    """Monotonically increasing counter with its own lock."""

    kind = "counter"
    __slots__ = ("_lock", "_value")

    def __init__(self):
        self._lock = make_lock("Counter")
        self._value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        with self._lock:
            access(self, "_value")
            self._value += amount

    @property
    def value(self):
        with self._lock:
            access(self, "_value", write=False)
            return self._value


class Gauge:
    """Instantaneous value; set by samplers, inc/dec by accounting code."""

    kind = "gauge"
    __slots__ = ("_lock", "_value")

    def __init__(self):
        self._lock = make_lock("Gauge")
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            access(self, "_value")
            self._value = value

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            access(self, "_value")
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        with self._lock:
            access(self, "_value")
            self._value -= amount

    @property
    def value(self):
        with self._lock:
            access(self, "_value", write=False)
            return self._value


class Histogram:
    """Fixed-bucket histogram with p50/p90/p99 quantile estimation.

    Buckets are cumulative-upper-bound style (Prometheus ``le``): an
    observation lands in the first bucket whose bound is >= the value,
    with a final implicit ``+Inf`` bucket.  Quantiles are estimated by
    linear interpolation inside the containing bucket, clamped to the
    observed min/max so estimates never leave the data range.
    """

    kind = "histogram"
    __slots__ = ("_lock", "bounds", "_counts", "_count", "_sum",
                 "_min", "_max")

    def __init__(self, buckets: Sequence[float] = DEFAULT_BUCKETS):
        bounds = [float(b) for b in buckets]
        if not bounds:
            raise ValueError("need at least one bucket bound")
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ValueError("bucket bounds must be strictly increasing")
        if math.isinf(bounds[-1]):
            bounds.pop()
        self._lock = make_lock("Histogram")
        self.bounds: Tuple[float, ...] = tuple(bounds)
        self._counts = [0] * (len(bounds) + 1)   # final slot = +Inf
        self._count = 0
        self._sum = 0.0
        self._min: Optional[float] = None
        self._max: Optional[float] = None

    def observe(self, value: float) -> None:
        idx = bisect.bisect_left(self.bounds, value)
        with self._lock:
            access(self, "_counts")
            self._counts[idx] += 1
            self._count += 1
            self._sum += value
            if self._min is None or value < self._min:
                self._min = value
            if self._max is None or value > self._max:
                self._max = value

    @property
    def count(self) -> int:
        with self._lock:
            access(self, "_counts", write=False)
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            access(self, "_counts", write=False)
            return self._sum

    def quantile(self, q: float) -> Optional[float]:
        """Estimated q-quantile (0 <= q <= 1); None while empty."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("q must be in [0, 1]")
        with self._lock:
            access(self, "_counts", write=False)
            counts = list(self._counts)
            total = self._count
            lo_seen, hi_seen = self._min, self._max
        if total == 0:
            return None
        rank = q * total
        cumulative = 0
        for idx, bucket_count in enumerate(counts):
            if cumulative + bucket_count >= rank:
                lower = self.bounds[idx - 1] if idx > 0 else 0.0
                upper = (self.bounds[idx] if idx < len(self.bounds)
                         else hi_seen)
                if bucket_count == 0:
                    estimate = lower
                else:
                    frac = (rank - cumulative) / bucket_count
                    estimate = lower + frac * (upper - lower)
                return min(max(estimate, lo_seen), hi_seen)
            cumulative += bucket_count
        return hi_seen

    def snapshot(self) -> dict:
        with self._lock:
            access(self, "_counts", write=False)
            counts = list(self._counts)
            total, total_sum = self._count, self._sum
            lo, hi = self._min, self._max
        cumulative, buckets = 0, []
        for bound, n in zip(self.bounds + (math.inf,), counts):
            cumulative += n
            buckets.append((bound, cumulative))
        return {
            "count": total,
            "sum": total_sum,
            "min": lo,
            "max": hi,
            "buckets": buckets,
            "p50": self.quantile(0.50),
            "p90": self.quantile(0.90),
            "p99": self.quantile(0.99),
        }


class MetricFamily:
    """A named set of children distinguished by label values."""

    def __init__(self, name: str, help: str, kind: str,
                 label_names: Tuple[str, ...], factory):
        self.name = name
        self.help = help
        self.kind = kind
        self.label_names = label_names
        self._factory = factory
        self._lock = make_lock("MetricFamily")
        self._children: Dict[Tuple[str, ...], object] = {}

    def labels(self, **labels):
        """The child metric for these label values (created on demand)."""
        if set(labels) != set(self.label_names):
            raise ValueError(
                f"metric {self.name!r} takes labels {self.label_names}, "
                f"got {tuple(labels)}")
        key = tuple(str(labels[n]) for n in self.label_names)
        # Lock-free fast path: a dict probe is GIL-atomic and children
        # are never removed, so a stale miss only costs the slow path.
        # Intentional discipline violation — suppressed in the baseline.
        access(self, "_children", write=False)
        child = self._children.get(key)
        if child is None:
            with self._lock:
                access(self, "_children")
                child = self._children.setdefault(key, self._factory())
        return child

    def children(self) -> List[Tuple[Dict[str, str], object]]:
        with self._lock:
            access(self, "_children", write=False)
            items = list(self._children.items())
        return [(dict(zip(self.label_names, key)), metric)
                for key, metric in sorted(items)]


class MetricsRegistry:
    """Registration-ordered collection of metric families."""

    enabled = True

    def __init__(self):
        self._lock = make_lock("MetricsRegistry")
        self._families: Dict[str, MetricFamily] = {}

    def _register(self, name: str, help: str, kind: str,
                  label_names: Tuple[str, ...], factory):
        with self._lock:
            access(self, "_families")
            family = self._families.get(name)
            if family is None:
                family = MetricFamily(name, help, kind, label_names, factory)
                self._families[name] = family
            elif family.kind != kind or family.label_names != label_names:
                raise ValueError(
                    f"metric {name!r} already registered as {family.kind} "
                    f"with labels {family.label_names}")
        if not label_names:
            return family.labels()
        return family

    def counter(self, name: str, help: str = "",
                labels: Sequence[str] = ()):
        return self._register(name, help, "counter", tuple(labels), Counter)

    def gauge(self, name: str, help: str = "",
              labels: Sequence[str] = ()):
        return self._register(name, help, "gauge", tuple(labels), Gauge)

    def histogram(self, name: str, help: str = "",
                  labels: Sequence[str] = (),
                  buckets: Sequence[float] = DEFAULT_BUCKETS):
        return self._register(name, help, "histogram", tuple(labels),
                              lambda: Histogram(buckets))

    def collect(self) -> List[MetricFamily]:
        """Families in registration order (exposition walks this)."""
        with self._lock:
            access(self, "_families", write=False)
            return list(self._families.values())

    def get(self, name: str) -> Optional[MetricFamily]:
        with self._lock:
            access(self, "_families", write=False)
            return self._families.get(name)

    def value(self, name: str, **labels):
        """Convenience scalar lookup (tests, status pages); None if the
        metric or child does not exist."""
        family = self.get(name)
        if family is None:
            return None
        key = tuple(str(labels[n]) for n in family.label_names
                    if n in labels)
        if len(key) != len(family.label_names):
            return None
        with family._lock:
            access(family, "_children", write=False)
            child = family._children.get(key)
        if child is None:
            return None
        return child.value if hasattr(child, "value") else child


class NullMetric:
    """Absorbs every recording call; reads as empty/zero."""

    kind = "null"
    __slots__ = ()

    def inc(self, amount=1) -> None:
        pass

    def dec(self, amount=1) -> None:
        pass

    def set(self, value) -> None:
        pass

    def observe(self, value) -> None:
        pass

    def labels(self, **labels) -> "NullMetric":
        return self

    def quantile(self, q):
        return None

    def snapshot(self) -> dict:
        return {}

    @property
    def value(self):
        return 0

    @property
    def count(self):
        return 0

    @property
    def sum(self):
        return 0.0


NULL_METRIC = NullMetric()
