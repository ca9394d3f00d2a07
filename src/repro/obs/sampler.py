"""Periodic gauge sampling.

Counters and histograms are pushed from the hot path; *state* metrics —
processor queue depth, pool size, open connections, overload trip state,
cache hit rate — have to be pulled.  :class:`PeriodicSampler` holds
(gauge, probe) pairs and copies probe values into gauges on every
:meth:`sample` tick.

The sampler owns no thread: the generated frameworks re-arm an
``obs-sample`` timer through their Timer Event Source and call
:meth:`sample` from the generated ServerEventHandler, so sampling flows
through the same event machinery as everything else.

Probe exceptions are swallowed (a dying probe must not take the server
down) and ``None`` returns skip the tick, so probes may be attached
before their subsystem is live.
"""

from __future__ import annotations

import threading
from typing import Callable, List, Optional, Tuple

__all__ = ["PeriodicSampler"]


class PeriodicSampler:
    """Copies probe callables into registry gauges on a timer tick."""

    def __init__(self, registry, interval: float = 1.0):
        if interval <= 0:
            raise ValueError("interval must be positive")
        self.registry = registry
        #: nominal period of the tick that drives :meth:`sample`
        self.interval = interval
        self._probes: List[Tuple[object, Callable[[], Optional[float]]]] = []
        self._lock = threading.Lock()
        self.ticks = registry.counter(
            "server_sampler_ticks_total", "Sampler ticks executed")

    def add_probe(self, name: str, probe: Callable[[], Optional[float]],
                  help: str = ""):
        """Register ``probe`` to feed the gauge ``name``; returns the gauge."""
        gauge = self.registry.gauge(name, help)
        with self._lock:
            self._probes.append((gauge, probe))
        return gauge

    def sample(self) -> None:
        """One sampling pass over every probe."""
        with self._lock:
            probes = list(self._probes)
        for gauge, probe in probes:
            try:
                value = probe()
            except Exception:  # noqa: BLE001 - a probe must not kill the server
                continue
            if value is None:
                continue
            gauge.set(float(value))
        self.ticks.inc()
