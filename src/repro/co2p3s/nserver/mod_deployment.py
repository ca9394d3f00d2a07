"""N-Server template: the ``deployment`` module (option O16).

Extends the template with a declared multi-process option: when O16>1
the template generates a ``Deployment`` component that runs N worker
*processes* (each a fresh interpreter executing its own reactor)
accepting from one shared ``SO_REUSEPORT`` listening socket,
plus the ``Worker`` adapter each child process builds.  Crash respawn,
SIGHUP rolling restarts and the merge of every worker's status fields
(asked for over each worker's control socket) live in the runtime's
``ProcessSupervisor``; the generated component only carries the
option-resolved wiring.  When O16=1 the module is not emitted and
no deployment call site appears anywhere in the generated framework.

Table 2 extension rows:

==========  ======================================================
Deployment  exists iff O16>1; body depends on O11 (cluster-wide
            aggregated status fields) and O13 (the cross-process
            drain barrier)
Worker      exists iff O16>1; body depends on O11 (per-worker status
            fields the supervisor aggregates) and O13 (graceful
            per-worker drain)
==========  ======================================================
"""

from __future__ import annotations

from repro.co2p3s.codegen import ClassSpec, Fragment, ModuleSpec
from repro.co2p3s.nserver.options import enabled, multiproc

__all__ = ["MODULE_DEPLOYMENT"]


MODULE_DEPLOYMENT = ModuleSpec(
    name="deployment",
    doc="Multi-process deployment generated by option O16: N worker "
        "processes behind one shared SO_REUSEPORT listening socket, "
        "under the runtime's crash-respawning, rolling-restartable "
        "process supervisor.",
    imports=[
        Fragment("from repro import obs",
                 guard=enabled("O11"), options=("O11",)),
        Fragment("from repro import runtime as rt"),
        Fragment("from $package.reactor import Reactor"),
    ],
    classes=[
        ClassSpec(
            name="Deployment",
            doc="Owns the worker processes: binds the shared listening "
                "socket, spawns one Worker per process, respawns "
                "crashed workers within a bounded budget, and replaces "
                "the whole set zero-downtime on a rolling restart.",
            exists=multiproc,
            exists_options=("O16",),
            fragments=[
                Fragment(
                    '''
                    def __init__(self, configuration, hooks):
                        self.configuration = configuration
                        self.hooks = hooks
                        self.supervisor = rt.ProcessSupervisor(
                            factory="repro.runtime.deployment:generated_worker",
                            args=rt.generated_worker_args(
                                __name__, __file__, configuration, hooks),
                            procs=$proc_count,
                            host=configuration.host,
                            port=configuration.port,
                            backlog=configuration.backlog,
                            ready_timeout=configuration.worker_ready_timeout,
                            drain_timeout=configuration.worker_drain_timeout,
                            respawn_limit=configuration.respawn_limit,
                            respawn_window=configuration.respawn_window)

                    @property
                    def port(self):
                        return self.supervisor.port

                    def start(self):
                        self.supervisor.start()

                    def stop(self):
                        self.supervisor.stop()

                    def rolling_restart(self, drain_timeout=None):
                        """Replace every worker process with a fresh one,
                        zero downtime: each successor accepts on the
                        shared socket before its predecessor drains."""
                        self.supervisor.rolling_restart(drain_timeout)

                    def install_signals(self):
                        """Operator signal plane (CLI main thread only):
                        SIGHUP rolling-restarts, SIGTERM drains,
                        SIGUSR2 is forwarded to every worker."""
                        self.supervisor.install_signals()
                    ''',
                    options=("O16",),
                ),
                Fragment(
                    '''
                    def drain(self, timeout=None):
                        """Cross-process drain barrier: every worker
                        finishes its in-flight work, then the deployment
                        stops.  Returns True if all workers exited
                        voluntarily before the deadline."""
                        if timeout is None:
                            timeout = self.configuration.drain_timeout
                        return self.supervisor.drain(timeout)
                    ''',
                    guard=enabled("O13"), options=("O13",),
                ),
                Fragment(
                    '''
                    def status_fields(self):
                        """Cluster-wide status fields (option O11): every
                        worker's registry summed, then each worker's own
                        gauges re-labelled ``worker="pid"``."""
                        return self.supervisor.aggregated_status_fields()
                    ''',
                    guard=enabled("O11"), options=("O11",),
                ),
            ],
        ),
        ClassSpec(
            name="Worker",
            doc="The per-process server one worker runs: built inside a "
                "fresh interpreter from the supervisor's spec, accepting "
                "on the shared listening socket it adopted.",
            exists=multiproc,
            exists_options=("O16",),
            fragments=[
                Fragment(
                    '''
                    def __init__(self, hooks, configuration):
                        self.configuration = configuration
                        self.hooks = hooks
                        self.server = Reactor(configuration, hooks)

                    @property
                    def port(self):
                        return self.server.server_component.port

                    def start(self):
                        self.server.start()

                    def stop(self):
                        self.server.stop()
                    '''
                ),
                Fragment(
                    '''
                    def drain(self, timeout=None):
                        """Graceful per-worker drain: in-flight work
                        finishes before this process exits."""
                        return self.server.drain(timeout)
                    ''',
                    guard=enabled("O13"), options=("O13",),
                ),
                Fragment(
                    '''
                    def status_fields(self):
                        """This worker's own status fields (option O11);
                        the supervisor aggregates them across the
                        deployment."""
                        self.server.observability.sample()
                        return obs.status_fields(
                            self.server.observability.registry,
                            uptime=self.server.observability.uptime())
                    ''',
                    guard=enabled("O11"), options=("O11",),
                ),
            ],
        ),
    ],
)
