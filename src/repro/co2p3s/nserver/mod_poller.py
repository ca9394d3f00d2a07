"""N-Server template: the ``poller`` module (option O18).

Fifth structural extension, following O13/O17: when O18=epoll
the template generates a ``Poller`` component that pins the Reactor's
readiness selection to the edge-triggered Linux epoll backend
(:func:`repro.runtime.make_poller`) — O(ready) per wait instead of
O(registered) — and owns the edge-correctness duty that comes with it:
an accept loop that stops draining early (batch bound, overload
postpone, degradation shed) must re-post the listener, because an
edge, once consumed, is never re-delivered.  When O18=select the
module is not emitted and no poller call site appears anywhere in the
generated framework — the paper's portable scan-based shape, untouched
(the runtime then picks its platform default, still overridable with
``REPRO_POLLER`` for oracle runs).

Table 2 extension row:

======  ==========================================================
Poller  exists iff O18=epoll; the body is option-independent (the
        accept-drain bound comes from the ServerConfiguration knob)
======  ==========================================================
"""

from __future__ import annotations

from repro.co2p3s.codegen import ClassSpec, Fragment, ModuleSpec

__all__ = ["MODULE_POLLER"]


def _epoll(o):
    return o["O18"] == "epoll"


MODULE_POLLER = ModuleSpec(
    name="poller",
    doc="Edge-triggered readiness selection generated by option O18: "
        "the Reactor's event source runs on the epoll backend, and "
        "every early-stopped accept drain re-posts its listener.",
    imports=[
        Fragment("from repro import runtime as rt"),
    ],
    classes=[
        ClassSpec(
            name="Poller",
            doc="Owns the edge-triggered epoll backend the Reactor's "
                "socket event source selects on (one instance per "
                "reactor).",
            exists=_epoll,
            exists_options=("O18",),
            fragments=[
                Fragment(
                    '''
                    def __init__(self, reactor):
                        self.reactor = reactor
                        self.backend = rt.make_poller("epoll")

                    def repost_accept(self, listen):
                        """Re-post a listener whose drain stopped before
                        EAGAIN: the consumed edge will not repeat, so the
                        backlog would otherwise strand until the *next*
                        connection arrives."""
                        self.reactor.socket_source.force_ready(listen)
                    '''
                ),
            ],
        ),
    ],
)
