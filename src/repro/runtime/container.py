"""Container Component (Table 2): owns the live Communicators.

Routes per-handle readiness events to the right Communicator and gives
the idle reaper / shutdown path one place to find every connection.
"""

from __future__ import annotations

import threading
from typing import Dict, Iterable, Optional

from repro.runtime.communicator import Communicator
from repro.runtime.events import Event

__all__ = ["Container"]


class Container:
    """Thread-safe handle -> Communicator registry (keyed by the handle
    object, which stays a valid key even after the socket closes)."""

    def __init__(self):
        self._lock = threading.Lock()
        self._by_handle: Dict[object, Communicator] = {}

    def add(self, conn: Communicator) -> None:
        with self._lock:
            self._by_handle[conn.handle] = conn

    def remove(self, conn: Communicator) -> None:
        with self._lock:
            self._by_handle.pop(conn.handle, None)

    def lookup(self, handle) -> Optional[Communicator]:
        with self._lock:
            return self._by_handle.get(handle)

    def connections(self) -> Iterable[Communicator]:
        with self._lock:
            return list(self._by_handle.values())

    def __len__(self) -> int:
        with self._lock:
            return len(self._by_handle)

    # -- dispatcher targets -------------------------------------------------
    def route_readable(self, event: Event) -> None:
        conn = self.lookup(event.handle)
        if conn is not None:
            conn.on_readable(event)

    def route_writable(self, event: Event) -> None:
        conn = self.lookup(event.handle)
        if conn is not None:
            conn.on_writable(event)

    def close_all(self) -> None:
        for conn in self.connections():
            conn.close()
