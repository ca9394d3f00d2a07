"""N-Server template: the ``reactor`` and ``server`` modules.

Table 2 rows covered:

========  =========================================================
Reactor   body depends on O1 O2 O4 O5 O6 O8 O9 O10 O11 O12 O13 O17
          (NOT O3 — step handlers are installed by the
          handlers module's ``install_step_handlers``; NOT O7 — idle
          wiring lives in ServerComponent / ServerEventHandler /
          Container)
Server    body depends on O3, O13 (the ``drain`` facade method) and
          O16 (delegation to the Deployment component, plus the
          ``rolling_restart`` facade)
========  =========================================================
"""

from __future__ import annotations

from repro.co2p3s.codegen import ClassSpec, Fragment, ModuleSpec
from repro.co2p3s.nserver.options import (
    enabled,
    disabled,
    debug_mode,
    async_io,
    sync_io,
    dynamic_threads,
    multiproc,
)

__all__ = ["MODULE_REACTOR", "MODULE_SERVER"]


MODULE_REACTOR = ModuleSpec(
    name="reactor",
    doc="Central wiring of the generated framework: the extended Reactor "
        "with Event Source decorators, Event Processors and the feature "
        "subsystems selected by the template options.",
    imports=[
        Fragment("import time"),
        Fragment("import os",
                 guard=lambda o: o["O1"] == "2N", options=("O1",)),
        Fragment("from repro import runtime as rt"),
        Fragment("from repro.cache.file_cache import read_body",
                 guard=lambda o: sync_io(o) and not o["O6"],
                 options=("O4", "O6")),
        Fragment("from $package import handlers"),
        Fragment("from $package.communication import ("
                 "AcceptorEventHandler, ApplicationEventHandler, "
                 "ClientComponent, ConnectorEventHandler, "
                 "ContainerComponent, ServerComponent, ServerEventHandler)"),
        Fragment("from $package.processing import EventDispatcher, EventProcessor"),
        Fragment("from $package.processing import ProcessorController",
                 guard=lambda o: o["O2"] and dynamic_threads(o),
                 options=("O2", "O5")),
        Fragment("from $package.cache import Cache",
                 guard=enabled("O6"), options=("O6",)),
        Fragment("from $package.observability import Observability",
                 guard=enabled("O11"), options=("O11",)),
        Fragment("from $package.resilience import Resilience",
                 guard=enabled("O13"), options=("O13",)),
        Fragment("from $package.degradation import Degradation",
                 guard=enabled("O17"), options=("O17",)),
    ],
    classes=[
        ClassSpec(
            name="Reactor",
            doc="Specialised, extended Reactor: event demultiplexing and "
                "dispatching for a network server, with support for "
                "multiple event sources and multiple processors.",
            fragments=[
                # -- construction ------------------------------------------
                Fragment(
                    '''
                    def __init__(self, configuration, hooks):
                        self.configuration = configuration
                        self.hooks = hooks
                        self.clock = time.monotonic
                        $make_tracer
                        $make_log
                        $make_observability
                        self.socket_source = rt.SocketEventSource()
                        self.timer_source = rt.TimerEventSource(self.socket_source)
                        self.source = rt.QueueEventSource(self.timer_source)
                        self.container = ContainerComponent(self)
                        $make_cache
                        $make_processor
                        $make_controller
                        $make_overload
                        $watch_overload
                        $make_degradation
                        $make_file_io
                        handlers.install_step_handlers(self)
                        self.acceptor_event_handler = AcceptorEventHandler(self)
                        self.server_event_handler = ServerEventHandler(self)
                        self.application_event_handler = ApplicationEventHandler(self)
                        self.connector_event_handler = ConnectorEventHandler(self)
                        self.client_component = ClientComponent(self)
                        self.server_component = ServerComponent(self, configuration)
                        self.dispatcher = EventDispatcher(self, threads=$dispatcher_threads_expr)
                        $enable_cache_profiling
                        $wire_processor_error_trace
                        $wire_observability
                        $make_resilience
                    ''',
                    # $make_resilience comes last so EventQuarantine.attach
                    # chains (not clobbers) the Debug-mode error_hook.
                    # $make_degradation sits between the overload
                    # controller it upgrades and the file I/O it breaks.
                    options=("O1", "O2", "O4", "O5", "O6", "O8", "O9",
                             "O10", "O11", "O12", "O13", "O17"),
                ),
                # -- connection plumbing -------------------------------------
                Fragment(
                    '''
                    def register_communicator(self, conn):
                        self.container.add(conn)
                        self.socket_source.register(conn.handle)
                        $deadline_watch
                    ''',
                    options=("O13",),
                ),
                Fragment(
                    '''
                    def teardown_communicator(self, conn):
                        self.container.remove(conn)
                        self.socket_source.deregister(conn.handle)
                        $deadline_unwatch
                        $teardown_overload
                        $teardown_log
                    ''',
                    options=("O9", "O12", "O13"),
                ),
                # -- event submission (O2=Yes: hand off to the pool) ----------
                Fragment(
                    '''
                    def submit_readable(self, event):
                        # One-shot read interest: readiness does not
                        # re-post while the event waits; the connection's
                        # read step resumes it.
                        self.socket_source.pause(event.handle)
                        $stamp_readable_priority
                        $submit_call

                    def submit_writable(self, event):
                        $stamp_writable_priority
                        $submit_call
                    ''',
                    guard=enabled("O2"), options=("O2", "O8"),
                ),
                Fragment(
                    '''
                    def submit_completion(self, event):
                        $submit_call
                    ''',
                    guard=lambda o: o["O2"] and async_io(o),
                    options=("O2", "O4", "O8"),
                ),
                Fragment(
                    '''
                    def _connection_priority(self, handle):
                        conn = self.container.lookup(handle)
                        return conn.priority if conn is not None else 0
                    ''',
                    guard=lambda o: o["O2"] and o["O8"],
                    options=("O2", "O8"),
                ),
                # -- event processing (pool handler / inline fallthrough) -----
                Fragment(
                    '''
                    def process_event(self, event):
                        kind = event.kind
                        if kind == rt.EventKind.READABLE:
                            self.read_request_event_handler.handle(event)
                        elif kind == rt.EventKind.WRITABLE:
                            self.send_reply_event_handler.handle(event)
                        else:
                            self.process_other(event)
                    ''',
                    options=("O2",),
                ),
                Fragment(
                    '''
                    def process_other(self, event):
                        if event.kind == rt.EventKind.COMPLETION:
                            event.complete()
                    ''',
                    guard=async_io, options=("O4",),
                ),
                Fragment(
                    '''
                    def process_other(self, event):
                        # Completion events are synchronous: nothing besides
                        # readiness events reaches the processing path.
                        pass
                    ''',
                    guard=sync_io, options=("O4",),
                ),
                # -- file access services ---------------------------------------
                Fragment(
                    '''
                    def read_file_async(self, path, act, priority=0):
                        """Emulated non-blocking file read (Proactor/ACT)."""
                        self.file_io.read_file(path, act=act, priority=priority)
                    ''',
                    guard=async_io, options=("O4",),
                ),
                Fragment(
                    '''
                    def read_file_sync(self, path):
                        """Blocking file read through the generated cache."""
                        return self.cache.get_file(path).payload
                    ''',
                    guard=lambda o: sync_io(o) and o["O6"],
                    options=("O4", "O6"),
                ),
                Fragment(
                    '''
                    def read_file_sync(self, path):
                        """Blocking, uncached file read."""
                        return read_body(self.configuration.document_root, path)
                    ''',
                    guard=lambda o: sync_io(o) and not o["O6"],
                    options=("O4", "O6"),
                ),
                # -- lifecycle ----------------------------------------------------
                Fragment(
                    '''
                    def start(self):
                        self.server_component.open()
                        $start_processor
                        $start_file_io
                        $arm_deadline_timer
                        $arm_supervision_timer
                        $arm_control_timer
                        self.dispatcher.start()
                        $log_started

                    def stop(self):
                        self.dispatcher.stop()
                        self.server_component.close()
                        self.container.close_all()
                        $stop_processor
                        $stop_file_io
                        self.source.close()
                        $final_obs_sample
                        $write_debug_trace
                        $log_stopped
                    ''',
                    options=("O2", "O4", "O5", "O10", "O11", "O12", "O13"),
                ),
                Fragment(
                    '''
                    def write_debug_trace(self):
                        """Write the internal event trace to the
                        configured file, one event per line (option
                        O10=Debug: events are "written into a file")."""
                        path = self.configuration.debug_trace_path
                        if path is not None:
                            with open(path, "w", encoding="utf-8") as sink:
                                self.tracer.dump(sink)
                    ''',
                    guard=debug_mode, options=("O10",),
                ),
                Fragment(
                    '''
                    def drain(self, timeout=None):
                        """Graceful shutdown: stop accepting, let accepted
                        work finish up to the deadline, then force-stop.
                        Returns True if the server went quiescent."""
                        if timeout is None:
                            timeout = self.configuration.drain_timeout
                        $log_drain
                        self.server_component.close()
                        deadline = self.clock() + timeout
                        drained = False
                        settle = None
                        while self.clock() < deadline:
                            if self.resilience.quiescent():
                                # Hold quiescent briefly: a reply fully
                                # flushed may still spawn a final event.
                                if settle is None:
                                    settle = self.clock()
                                elif self.clock() - settle >= 0.05:
                                    drained = True
                                    break
                            else:
                                settle = None
                            time.sleep(0.005)
                        self.stop()
                        return drained
                    ''',
                    guard=enabled("O13"), options=("O13", "O12"),
                ),
            ],
        ),
    ],
)


MODULE_SERVER = ModuleSpec(
    name="server",
    doc="The generated Server facade: the class application code "
        "instantiates.",
    imports=[
        Fragment("from $package.communication import ServerConfiguration"),
        Fragment("from $package.reactor import Reactor",
                 guard=lambda o: not multiproc(o), options=("O16",)),
        Fragment("from $package.deployment import Deployment",
                 guard=multiproc, options=("O16",)),
    ],
    classes=[
        ClassSpec(
            name="Server",
            doc="Facade over the generated framework.  Applications provide "
                "only the hook methods (decode / handle / encode, framing, "
                "and lifecycle callbacks) — the paper's programming model.",
            fragments=[
                Fragment(
                    '''
                    pipeline = $server_pipeline
                    ''',
                    options=("O3",),
                ),
                Fragment(
                    '''
                    def __init__(self, hooks, configuration=None,
                                 host="127.0.0.1", port=0):
                        if configuration is None:
                            configuration = ServerConfiguration(host=host, port=port)
                        self.configuration = configuration
                        self.hooks = hooks
                        $server_make_reactor

                    @property
                    def port(self):
                        return $server_port_expr

                    def start(self):
                        $server_start_call

                    def stop(self):
                        $server_stop_call

                    def connect(self, client_configuration):
                        """Open an outbound connection through the framework."""
                        $server_connect_body

                    def __enter__(self):
                        self.start()
                        return self

                    def __exit__(self, *exc_info):
                        self.stop()
                    ''',
                    options=("O16",),
                ),
                Fragment(
                    '''
                    def drain(self, timeout=None):
                        """Gracefully drain in-flight work, then stop."""
                        $server_drain_call
                    ''',
                    guard=enabled("O13"), options=("O13", "O16"),
                ),
                Fragment(
                    '''
                    def rolling_restart(self, drain_timeout=None):
                        """Replace every worker process with a fresh one,
                        zero downtime (option O16): each successor
                        accepts on the shared socket before its
                        predecessor drains."""
                        self.deployment.rolling_restart(drain_timeout)
                    ''',
                    guard=multiproc, options=("O16",),
                ),
            ],
        ),
    ],
)
