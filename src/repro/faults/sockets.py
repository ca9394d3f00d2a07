"""Fault-injecting socket handles.

:func:`faulty_handle_cls` builds a dynamic subclass of any
:class:`~repro.runtime.handles.SocketHandle`-compatible base (the
library handle or a generated framework's ``Handle``) whose
``try_recv`` and every send (the optimistic one in ``write`` as well
as the ``try_send`` drain) consult a :class:`FaultSchedule` before
touching the real socket:

* ``eagain`` — report "would block" although the kernel had data/room
  (an EAGAIN storm is just this fault at high probability);
* ``reset``  — simulate a mid-stream connection reset: the handle closes
  and the runtime sees the usual EOF/closed-handle path;
* ``partial`` — cap the operation at a few bytes, modelling a trickling
  peer or a congested send buffer.

Faults are injected *above* the socket, so the peer is unaffected —
what is being tested is how the server reacts to the syscall outcomes.
"""

from __future__ import annotations

from repro.faults.schedule import FaultSchedule
from repro.runtime.handles import SocketHandle

__all__ = ["faulty_handle_cls"]


def faulty_handle_cls(schedule: FaultSchedule, base: type = SocketHandle,
                      stream_prefix: str = "conn") -> type:
    """A ``base`` subclass whose socket I/O consults ``schedule``.

    Handles name their fault stream by construction order
    (``conn-0``, ``conn-1``, ...), so per-connection fault sequences
    replay exactly under the same seed.
    """

    class FaultySocketHandle(base):  # type: ignore[misc, valid-type]

        def __init__(self, sock, name: str = ""):
            super().__init__(sock, name=name)
            self.fault_stream = schedule.next_stream(stream_prefix)

        def try_recv(self, max_bytes: int = 65536):
            kind = schedule.decide("recv", self.fault_stream,
                                   trace_id=getattr(self, "trace_id", 0))
            if kind == "eagain":
                return None
            if kind == "reset":
                self.close()
                return b""
            if kind == "partial":
                max_bytes = max(1, min(max_bytes,
                                       schedule.spec.partial_read_bytes))
            return super().try_recv(max_bytes)

        def _send(self, iov) -> int:
            kind = schedule.decide("send", self.fault_stream,
                                   trace_id=getattr(self, "trace_id", 0))
            if kind == "eagain":
                return 0
            if kind == "reset":
                self.close()
                return 0
            if kind == "partial":
                iov = _capped(iov, max(1, schedule.spec.partial_write_bytes))
            return super()._send(iov)

    FaultySocketHandle.__name__ = f"Faulty{base.__name__}"
    FaultySocketHandle.__qualname__ = FaultySocketHandle.__name__
    return FaultySocketHandle


def _capped(iov, cap: int) -> list:
    """The leading ``cap`` bytes of ``iov``, as slices of its segments
    (memory views or file ranges)."""
    out = []
    for segment in iov:
        if cap <= 0:
            break
        part = segment[:cap]
        out.append(part)
        cap -= len(part)
    return out
