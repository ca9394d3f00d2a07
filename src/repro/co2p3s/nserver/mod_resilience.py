"""N-Server template: the ``resilience`` module (option O13).

Extends the template with a declared fault-tolerance option, following
the O11 observability extension: when O13=Yes the template generates a
``Resilience`` component owning the per-stage deadline monitor, the
Event Processor worker supervisor and the poison-event quarantine, plus
the hardened accept loop and the quiescence probe the graceful-drain
path polls.  When O13=No the module is not emitted and no resilience
call site appears anywhere in the generated framework.

Table 2 extension row:

==========  =====================================================
Resilience  exists iff O13; body depends on O2 (supervisor and
            quarantine guard the Event Processor pool), O11
            (counters registered on the shared obs registry) and O12
            (monitor logging)
==========  =====================================================
"""

from __future__ import annotations

from repro.co2p3s.codegen import ClassSpec, Fragment, ModuleSpec
from repro.co2p3s.nserver.options import enabled

__all__ = ["MODULE_RESILIENCE"]


MODULE_RESILIENCE = ModuleSpec(
    name="resilience",
    doc="Fault-tolerance layer generated by option O13: per-stage "
        "connection deadlines, worker supervision, poison-event "
        "quarantine, hardened accept loop and the drain quiescence "
        "probe.",
    imports=[
        Fragment("import time"),
        Fragment("from repro import runtime as rt"),
    ],
    classes=[
        ClassSpec(
            name="Resilience",
            doc="Owns the resilience runtime for the generated server: "
                "deadline monitor, worker supervisor and event "
                "quarantine, assembled from the configuration's tuning "
                "values.",
            exists=enabled("O13"),
            exists_options=("O13",),
            fragments=[
                Fragment(
                    '''
                    def __init__(self, reactor):
                        self.reactor = reactor
                        configuration = reactor.configuration
                        self.accept_errors = 0
                        policy = rt.DeadlinePolicy(
                            header=configuration.header_timeout,
                            request=configuration.request_timeout,
                            write=configuration.write_timeout)
                        $make_deadlines
                        $make_supervisor
                        $make_quarantine
                    ''',
                    options=("O2", "O11", "O12"),
                ),
                Fragment(
                    '''
                    def safe_accept(self, listen):
                        """Hardened accept: a transient OSError (aborted
                        connection, interrupted call) retries at once;
                        resource exhaustion (EMFILE and friends) backs off
                        and sheds — the kernel backlog keeps connections
                        queued and the listener is re-armed."""
                        while True:
                            try:
                                return listen.try_accept()
                            except OSError as exc:
                                self.accept_errors += 1
                                $count_accept_errors
                                $log_accept_error
                                if rt.is_transient_accept_error(exc):
                                    continue
                                time.sleep(self.reactor.configuration.accept_backoff)
                                self.reactor.socket_source.rearm_listener(listen)
                                return None
                    ''',
                    options=("O11", "O12"),
                ),
                Fragment(
                    '''
                    def quiescent(self):
                        """True when the server owes no work: no queued or
                        in-flight events and no connection with a pending
                        request or unflushed reply (polled by drain)."""
                        reactor = self.reactor
                        $quiescent_queue_check
                        return all(not conn.busy()
                                   for conn in reactor.container.connections())
                    ''',
                    options=("O2",),
                ),
            ],
        ),
    ],
)
