"""The fault plane facade: one object wiring a schedule into a server.

A :class:`FaultPlane` owns a :class:`FaultSchedule` and knows the three
injection seams:

* accepted sockets — via a fault-injecting ``handle_cls`` installed on
  the server's :class:`~repro.runtime.handles.ListenHandle`;
* the async file-I/O loader — via ``AsyncFileIO.fault_hook``;
* the application hooks — via :meth:`wrap_hooks` (done by the caller at
  construction time, since hooks are baked into the server).

``install`` targets a generated framework's ``Server`` facade, whose
Reactor builds the listen handle at construction: install any time
before ``start()``.
"""

from __future__ import annotations

import errno
from typing import Callable, Optional

from repro.faults.hooks import FaultyHooks
from repro.faults.schedule import FaultSchedule, FaultSpec
from repro.faults.sockets import faulty_handle_cls
from repro.runtime.handles import SocketHandle

__all__ = ["FaultPlane"]


class FaultPlane:
    """Facade bundling a seeded schedule with its injection adapters."""

    def __init__(self, spec: Optional[FaultSpec] = None, seed: int = 0):
        self.spec = spec if spec is not None else FaultSpec()
        self.schedule = FaultSchedule(self.spec, seed=seed)

    # -- adapters ------------------------------------------------------------
    def handle_cls(self, base: type = SocketHandle) -> type:
        """A fault-injecting subclass of ``base`` for accepted sockets."""
        return faulty_handle_cls(self.schedule, base=base)

    def wrap_hooks(self, hooks) -> FaultyHooks:
        """Wrap application hooks so Handle Request consults the plane."""
        return FaultyHooks(hooks, self.schedule)

    def file_fault_hook(self) -> Callable[[str], None]:
        """A hook for ``AsyncFileIO.fault_hook``: raises ``OSError`` for
        reads the schedule marks as disk errors."""
        def hook(path: str) -> None:
            if self.schedule.decide("disk", "disk") == "error":
                raise OSError(errno.EIO, f"injected disk error: {path}")
        return hook

    # -- installation ---------------------------------------------------------
    def install(self, server):
        """Attach socket and disk faults to a not-yet-started server.

        Understands the generated ``Server`` facade in its
        single-reactor and O14-sharded forms.  In the sharded form only
        the primary listens, so its listen handle gets the faulty handle
        class (every accepted socket passes through it) and each
        shard's own file loader gets the disk-fault hook.

        Returns the server for chaining.  Hook faults are separate —
        pass ``plane.wrap_hooks(hooks)`` when building the server.
        """
        listen = server.reactor.server_component.listen
        listen.handle_cls = self.handle_cls(base=listen.handle_cls)
        sharding = getattr(server, "sharding", None)
        shards = sharding.shards if sharding is not None else [server.reactor]
        for shard in shards:
            file_io = getattr(shard, "file_io", None)
            if file_io is not None:
                file_io.fault_hook = self.file_fault_hook()
        return server

    # -- inspection -----------------------------------------------------------
    @property
    def log(self):
        return self.schedule.actions()

    def counts(self):
        return self.schedule.counts()
