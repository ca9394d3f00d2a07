"""Automatic overload control (N-Server option O9).

The paper provides two mechanisms:

1. a cap on simultaneous connections (the trivial one multiprogramming
   servers get for free from their bounded process pool);
2. watermark control: the generated code "queries the length of multiple
   queues.  Each queue stores events of certain types.  If there is a
   queue whose length exceeds its specified high watermark, then new
   connection requests are postponed until the length drops below a
   specified low watermark."

Fig 6 uses mechanism 2 with high=20 / low=5 on the reactive Event
Processor queue.  :class:`OverloadController` implements both; the
Acceptor asks :meth:`accepting` before taking new connections.

All mutable state lives behind one tracked lock: ``accepting()`` runs on
the dispatcher thread, ``connection_opened``/``connection_closed`` on
acceptor and teardown paths, ``status()`` on the O11 sampler thread, and
the O17 :class:`~repro.runtime.degradation.AdaptiveController` retunes
watermarks from its own control loop — the lockset annotations let the
race detector prove they never collide.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional

from repro.lint.locks import access, make_lock, shared

__all__ = ["Watermark", "OverloadController"]


@dataclass
class Watermark:
    """Hysteresis pair for one watched queue."""

    high: int
    low: int

    def __post_init__(self):
        if self.low < 0 or self.high <= self.low:
            raise ValueError(
                f"need 0 <= low < high, got low={self.low} high={self.high}")


class OverloadController:
    """Watermark-based admission control over any number of queues.

    Queues are registered with a name, a length probe (callable) and a
    :class:`Watermark`.  The controller latches *overloaded* state per
    queue: it trips when length > high and clears only when
    length < low (hysteresis, so accepts don't flap).
    """

    def __init__(self, max_connections: Optional[int] = None):
        if max_connections is not None and max_connections < 1:
            raise ValueError("max_connections must be >= 1")
        self.max_connections = max_connections
        self._lock = make_lock("OverloadController")
        self._probes: Dict[str, Callable[[], int]] = {}
        self._marks: Dict[str, Watermark] = {}
        self._tripped: Dict[str, bool] = {}
        #: number of currently-open connections, maintained by the caller
        self.open_connections = 0
        #: accounting for the experiment harness
        self.postponed_accepts = 0
        shared(self, "_tripped", "open_connections", "postponed_accepts",
               label="overload admission state (dispatcher vs sampler "
                     "vs adaptive controller)")

    def watch(self, name: str, probe: Callable[[], int], mark: Watermark) -> None:
        """Register a queue to watch.  ``probe()`` must return its length."""
        with self._lock:
            self._probes[name] = probe
            self._marks[name] = mark
            access(self, "_tripped")
            self._tripped[name] = False

    def unwatch(self, name: str) -> None:
        """Forget a watched queue (idempotent)."""
        with self._lock:
            self._probes.pop(name, None)
            self._marks.pop(name, None)
            access(self, "_tripped")
            self._tripped.pop(name, None)

    # -- watermark access (the O17 adaptive controller's surface) --------
    def watermark(self, name: str) -> Optional[Watermark]:
        """The current hysteresis pair for one watched queue."""
        with self._lock:
            return self._marks.get(name)

    def retune(self, name: str, high: int, low: int) -> None:
        """Replace a queue's watermarks in place (validated).

        The tripped latch is preserved: hysteresis keeps working across
        a retune, so the adaptive controller cannot cause flapping by
        merely moving the band.
        """
        mark = Watermark(high=high, low=low)  # validates
        with self._lock:
            if name not in self._marks:
                raise KeyError(f"no watched queue named {name!r}")
            self._marks[name] = mark

    # -- connection accounting (mechanism 1) -----------------------------
    def connection_opened(self) -> None:
        """The Acceptor took one more connection."""
        with self._lock:
            access(self, "open_connections")
            self.open_connections += 1

    def connection_closed(self) -> None:
        """One connection tore down."""
        with self._lock:
            access(self, "open_connections")
            self.open_connections = max(0, self.open_connections - 1)

    def at_connection_limit(self) -> bool:
        """Is mechanism 1 (the connection cap) the binding constraint?"""
        with self._lock:
            access(self, "open_connections", write=False)
            return (self.max_connections is not None
                    and self.open_connections >= self.max_connections)

    # -- the admission decision -------------------------------------------
    def _postponed(self) -> None:
        """Account one postponed accept (caller holds the lock)."""
        access(self, "postponed_accepts")
        self.postponed_accepts += 1

    def accepting(self) -> bool:
        """May the Acceptor take a new connection right now?"""
        with self._lock:
            access(self, "open_connections", write=False)
            if (self.max_connections is not None
                    and self.open_connections >= self.max_connections):
                self._postponed()
                return False
            for name, probe in self._probes.items():
                mark = self._marks[name]
                length = probe()
                access(self, "_tripped")
                if self._tripped[name]:
                    if length < mark.low:
                        self._tripped[name] = False
                    else:
                        self._postponed()
                        return False
                elif length > mark.high:
                    self._tripped[name] = True
                    self._postponed()
                    return False
            return True

    def overloaded_queues(self) -> list:
        """Names of queues currently in the tripped state."""
        with self._lock:
            access(self, "_tripped", write=False)
            return [name for name, tripped in self._tripped.items()
                    if tripped]

    def status(self) -> dict:
        """Snapshot of the controller state for samplers / status pages.

        Unlike :meth:`accepting` this is read-only: probing lengths here
        never trips or clears a watermark latch.
        """
        with self._lock:
            probes = dict(self._probes)
            marks = dict(self._marks)
            access(self, "_tripped", write=False)
            tripped = dict(self._tripped)
            access(self, "open_connections", write=False)
            open_connections = self.open_connections
            access(self, "postponed_accepts", write=False)
            postponed = self.postponed_accepts
        queues = {}
        for name, probe in probes.items():
            try:
                length = probe()
            except Exception:  # noqa: BLE001 - status must not raise
                length = None
            mark = marks[name]
            queues[name] = {
                "length": length,
                "high": mark.high,
                "low": mark.low,
                "tripped": tripped[name],
            }
        return {
            "open_connections": open_connections,
            "max_connections": self.max_connections,
            "postponed_accepts": postponed,
            "tripped": [name for name, t in tripped.items() if t],
            "queues": queues,
        }
