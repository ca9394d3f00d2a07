"""N-Server template: the ``communication`` module.

Table 2 rows covered (all '+' entries, i.e. body-altering options):

=========================  ============================
Communicator Component     O3 O7 O8 O11
Server Component           O7 O10 O11 O12 O16
Client Component           O7 O10 O12
Server Event Handler       O2 O5 O7 O10 O11 O13
Connector Event Handler    O3 O10 O12
Acceptor Event Handler     O3 O9 O10 O11 O12 O13 O17
Container Component        O7 O10 O12
Application Event Handler  O7 O10
Client Configuration       none
Server Configuration       O10 O11 O13 O16 O17
=========================  ============================

The paper's O3 cells on the Server and Client Components, its O3 and
O10 cells on the Client Configuration and its O11 cells on the
Connector, Container and Application handlers came from fields nothing
read; ``table2.TABLE2_DIVERGENCES`` lists them.  The Server Event
Handler's O2, O5 and O13 cells are extensions: it runs every periodic
duty, and the worker supervisor (O13, with a pool to supervise) and
the Processor Controller (O5=Dynamic) are periodic duties.
"""

from __future__ import annotations

import textwrap

from repro.co2p3s.codegen import ClassSpec, Fragment, ModuleSpec
from repro.co2p3s.nserver.options import (
    enabled,
    disabled,
    debug_mode,
    production_mode,
    multiproc,
    dynamic_threads,
)

__all__ = ["MODULE_COMMUNICATION"]


def _timer_duty(method, payload, doc, run, period, guard, options):
    """The Server Event Handler method for one periodic duty.

    Every periodic duty of a generated server is a timer event on the
    reactor's timer source, handled on a dispatcher thread: when the
    duty's own timer (``payload``) fires, the method runs one pass
    (``run``) and re-arms the timer ``period`` seconds out.  The first
    timer is armed at start-up: by ``ServerComponent.open`` for O7 and
    O11, by ``Reactor.start`` for O5 and O13.
    """
    body = (f'"""{doc}"""\n'
            f'if event.payload != "{payload}":\n'
            f"    return\n"
            f"{run}\n"
            f"self.reactor.timer_source.schedule(\n"
            f"    {period},\n"
            f'    payload="{payload}")')
    return Fragment(f"def {method}(self, event):\n"
                    + textwrap.indent(body, "    "),
                    guard=guard, options=options)


MODULE_COMMUNICATION = ModuleSpec(
    name="communication",
    doc="Connection-level components generated by the N-Server template "
        "(Acceptor-Connector pattern plus the Communicator that runs the "
        "request cycle).",
    imports=[
        Fragment("from repro import runtime as rt"),
    ],
    classes=[
        ClassSpec(
            name="CommunicatorComponent",
            doc="One instance per network connection; drives the request "
                "cycle through the generated step handlers.",
            bases=("rt.Communicator",),
            fragments=[
                Fragment(
                    '''
                    def __init__(self, handle, hooks, reactor):
                        self.reactor = reactor
                        super().__init__(
                            handle,
                            hooks,
                            on_teardown=reactor.teardown_communicator,
                            update_interest=reactor.socket_source.update_interest,
                            resume_read=reactor.socket_source.resume,
                            schedule=reactor.source.post,
                            $communicator_spans_arg
                        )
                    ''',
                    options=("O11",),
                ),
                Fragment(
                    '''
                    def step_decode(self, raw):
                        return self.reactor.decode_request_event_handler.handle(raw, self)

                    def step_handle(self, request):
                        return self.reactor.compute_request_event_handler.handle(request, self)

                    def step_encode(self, result):
                        return self.reactor.encode_reply_event_handler.handle(result, self)
                    ''',
                    guard=enabled("O3"), options=("O3",),
                ),
                Fragment(
                    '''
                    # No encoding/decoding steps were generated (Fig 2):
                    # raw request bytes go straight to the Handle step.
                    def step_decode(self, raw):
                        return raw

                    def step_handle(self, request):
                        return self.reactor.compute_request_event_handler.handle(request, self)

                    def step_encode(self, result):
                        return result
                    ''',
                    guard=disabled("O3"), options=("O3",),
                ),
                Fragment(
                    '''
                    def touch(self):
                        """Refresh the idle clock (shutdown-long-idle, O7)."""
                        self.handle.last_activity = self.reactor.clock()
                    ''',
                    guard=enabled("O7"), options=("O7",),
                ),
                Fragment(
                    '''
                    def get_priority(self):
                        """Scheduling priority of this connection's events."""
                        return self.priority

                    def set_priority(self, priority):
                        self.priority = int(priority)
                        self.handle.write_priority = self.priority
                    ''',
                    guard=enabled("O8"), options=("O8",),
                ),
            ],
        ),
        ClassSpec(
            name="ServerComponent",
            doc="The listening endpoint (accept half of Acceptor-Connector): "
                "owns the server socket and builds Communicators for "
                "accepted connections.",
            fragments=[
                Fragment(
                    '''
                    def __init__(self, reactor, configuration):
                        self.reactor = reactor
                        self.configuration = configuration
                        self.listen = $server_component_listen_expr

                    @property
                    def port(self):
                        return self.listen.port
                    ''',
                    options=("O16",),
                ),
                Fragment(
                    '''
                    def open(self):
                        self.reactor.socket_source.register(self.listen)
                        $server_open_trace
                        $server_open_log
                        $server_open_idle_timer
                        $server_open_obs_timer

                    def close(self):
                        # Idempotent: shutdown paths may close twice.
                        if self.listen.closed:
                            return
                        self.reactor.socket_source.deregister(self.listen)
                        self.listen.close()
                    ''',
                    options=("O7", "O10", "O11", "O12"),
                ),
                Fragment(
                    '''
                    def make_communicator(self, handle):
                        conn = CommunicatorComponent(handle, self.reactor.hooks,
                                                     self.reactor)
                        $touch_new_communicator
                        return conn
                    ''',
                    options=("O7",),
                ),
            ],
        ),
        ClassSpec(
            name="ClientComponent",
            doc="Outbound connections (connect half of Acceptor-Connector); "
                "COPS-FTP uses this for active-mode data connections.",
            fragments=[
                Fragment(
                    '''
                    def __init__(self, reactor):
                        self.reactor = reactor
                        self.connector = None
                    '''
                ),
                Fragment(
                    '''
                    def connect(self, client_configuration):
                        """Establish an outbound connection and hand it to the
                        framework as a Communicator."""
                        if self.connector is None:
                            self.connector = rt.Connector()
                        handle = self.connector.connect(client_configuration.host,
                                                        client_configuration.port)
                        $client_connect_trace
                        $client_connect_log
                        $client_connect_touch
                        hooks = client_configuration.hooks or self.reactor.hooks
                        conn = CommunicatorComponent(handle, hooks, self.reactor)
                        self.reactor.source.post(
                            rt.ConnectEvent(handle=handle, payload=conn))
                        return conn
                    ''',
                    options=("O7", "O10", "O12"),
                ),
            ],
        ),
        ClassSpec(
            name="ServerEventHandler",
            doc="Server-level events: timers and shutdown.",
            fragments=[
                Fragment(
                    '''
                    def __init__(self, reactor):
                        self.reactor = reactor
                    '''
                ),
                Fragment(
                    '''
                    def handle(self, event):
                        $trace_server_event
                        $idle_scan_dispatch
                        $obs_sample_dispatch
                        $deadline_tick_dispatch
                        $supervise_dispatch
                        $control_dispatch
                        if hasattr(self.reactor.hooks, "on_timer"):
                            self.reactor.hooks.on_timer(event)
                    ''',
                    options=("O2", "O5", "O7", "O10", "O11", "O13"),
                ),
                _timer_duty(
                    "_obs_sample", "obs-sample",
                    "Sample the observability gauges and re-arm the\n"
                    "sampling timer (option O11).",
                    "self.reactor.observability.sample()",
                    "self.reactor.configuration.obs_sample_interval",
                    guard=enabled("O11"), options=("O11",),
                ),
                _timer_duty(
                    "_idle_scan", "idle-scan",
                    "Reap long-idle connections and re-arm the scan\n"
                    "timer (option O7).",
                    "self.reactor.container.reap_idle(\n"
                    "    self.reactor.configuration.idle_limit)",
                    "self.reactor.configuration.idle_scan_interval",
                    guard=enabled("O7"), options=("O7",),
                ),
                _timer_duty(
                    "_deadline_tick", "deadline-tick",
                    "Close connections that blew a stage deadline and\n"
                    "re-arm the deadline timer (option O13).",
                    "self.reactor.resilience.deadlines.tick()",
                    "self.reactor.configuration.deadline_interval",
                    guard=enabled("O13"), options=("O13",),
                ),
                _timer_duty(
                    "_supervise", "supervise",
                    "Replace dead Event Processor workers and re-arm the\n"
                    "supervision timer (option O13).",
                    "self.reactor.resilience.supervisor.check()",
                    "self.reactor.configuration.supervision_interval",
                    guard=lambda o: o["O2"] and o["O13"],
                    options=("O2", "O13"),
                ),
                _timer_duty(
                    "_control", "control",
                    "Grow or shrink the reactive pool and re-arm the\n"
                    "control timer (option O5=Dynamic).",
                    "self.reactor.processor_controller.evaluate()",
                    "self.reactor.processor_controller.period",
                    guard=lambda o: o["O2"] and dynamic_threads(o),
                    options=("O2", "O5"),
                ),
            ],
        ),
        ClassSpec(
            name="ConnectorEventHandler",
            doc="Finalises outbound connections: registers the Communicator "
                "and sends the client-side greeting if the application "
                "defines one.",
            fragments=[
                Fragment(
                    '''
                    def __init__(self, reactor):
                        self.reactor = reactor
                    '''
                ),
                Fragment(
                    '''
                    def handle(self, event):
                        conn = event.payload
                        $trace_connect_event
                        $log_connect_event
                        self.reactor.register_communicator(conn)
                        if hasattr(conn.hooks, "client_greeting"):
                            $send_client_greeting
                    ''',
                    options=("O3", "O10", "O12"),
                ),
            ],
        ),
        ClassSpec(
            name="AcceptorEventHandler",
            doc="Accept half of Acceptor-Connector: drains the kernel "
                "accept queue and establishes Communicators.",
            fragments=[
                Fragment(
                    '''
                    def __init__(self, reactor):
                        self.reactor = reactor
                    '''
                ),
                Fragment(
                    '''
                    def handle(self, event):
                        listen = event.handle
                        while True:
                            handle = $try_accept_expr
                            if handle is None:
                                return
                            self._establish(handle)
                    ''',
                    options=("O13",),
                ),
                Fragment(
                    '''
                    def handle_guarded(self, event):
                        """Accept loop with overload control (option O9): when
                        a watched queue is over its high watermark, new
                        connections stay in the kernel backlog until the
                        queue drains below the low watermark."""
                        listen = event.handle
                        while True:
                            if not self.reactor.overload.accepting():
                                self.reactor.socket_source.rearm_listener(listen)
                                return
                            handle = $try_accept_expr
                            if handle is None:
                                return
                            self.reactor.overload.connection_opened()
                            self._establish(handle)
                    ''',
                    guard=lambda o: o["O9"] and not o["O17"],
                    options=("O9", "O13", "O17"),
                ),
                Fragment(
                    '''
                    def handle_guarded(self, event):
                        """Accept loop with the graceful-degradation plane
                        (option O17): overload answers every waiting client
                        with the cheap canned rejection instead of silently
                        postponing, and accepted peers pass the per-client
                        rate limit before a Communicator is built."""
                        listen = event.handle
                        shedding = self.reactor.degradation.shedding
                        while True:
                            decision = shedding.admit_accept()
                            if decision.action == "postpone":
                                self.reactor.socket_source.rearm_listener(listen)
                                return
                            handle = $try_accept_expr
                            if handle is None:
                                return
                            if not decision.admitted:
                                shedding.record_rejection(
                                    decision, f"client={handle.name}",
                                    $accept_trace_id)
                                self._reject(handle)
                                continue
                            client = handle.name.rsplit(":", 1)[0]
                            limited = shedding.admit_client(
                                client, $accept_trace_id)
                            if not limited.admitted:
                                self._reject(handle)
                                continue
                            self.reactor.overload.connection_opened()
                            self._establish(handle)

                    def _reject(self, handle):
                        """Cheap write-path rejection: canned payload, flush,
                        close — no Communicator, no handler, no disk."""
                        rt.reject_handle(handle, self.reactor.degradation.reject_payload)
                    ''',
                    guard=enabled("O17"), options=("O11", "O13", "O17"),
                ),
                Fragment(
                    '''
                    def _establish(self, handle):
                        $trace_accept
                        $log_accept
                        $count_connections_accepted
                        conn = self.reactor.server_component.make_communicator(handle)
                        self.reactor.register_communicator(conn)
                        if hasattr(conn.hooks, "server_greeting"):
                            $send_server_greeting
                    ''',
                    options=("O3", "O10", "O11", "O12"),
                ),
            ],
        ),
        ClassSpec(
            name="ContainerComponent",
            doc="Owns the live Communicators; routes per-connection events "
                "and supports idle reaping.",
            bases=("rt.Container",),
            fragments=[
                Fragment(
                    '''
                    def __init__(self, reactor):
                        super().__init__()
                        self.reactor = reactor
                    '''
                ),
                Fragment(
                    '''
                    def remove(self, conn):
                        self.reactor.tracer.record(
                            "container", f"remove {conn.handle.name}")
                        super().remove(conn)
                    ''',
                    guard=debug_mode, options=("O10",),
                ),
                Fragment(
                    '''
                    def close_all(self):
                        self.reactor.log.info(
                            f"closing {len(self)} connections")
                        super().close_all()
                    ''',
                    guard=enabled("O12"), options=("O12",),
                ),
                Fragment(
                    '''
                    def reap_idle(self, idle_limit):
                        """Close connections idle for longer than
                        ``idle_limit`` seconds (option O7)."""
                        now = self.reactor.clock()
                        reaped = 0
                        for conn in self.connections():
                            if conn.closed:
                                continue
                            if now - conn.handle.last_activity > idle_limit:
                                conn.close()
                                reaped += 1
                        return reaped
                    ''',
                    guard=enabled("O7"), options=("O7",),
                ),
            ],
        ),
        ClassSpec(
            name="ApplicationEventHandler",
            doc="Dispatches application-posted events to the hook object.",
            fragments=[
                Fragment(
                    '''
                    def __init__(self, reactor):
                        self.reactor = reactor
                    '''
                ),
                Fragment(
                    '''
                    def handle(self, event):
                        $trace_app_event
                        $touch_app_event
                        if hasattr(self.reactor.hooks, "on_user_event"):
                            self.reactor.hooks.on_user_event(event)
                    ''',
                    options=("O7", "O10"),
                ),
            ],
        ),
        ClassSpec(
            name="ClientConfiguration",
            doc="Settings for one outbound connection.",
            fragments=[
                Fragment(
                    '''
                    def __init__(self, host, port, hooks=None):
                        self.host = host
                        self.port = int(port)
                        self.hooks = hooks
                    '''
                ),
            ],
        ),
        ClassSpec(
            name="ServerConfiguration",
            doc="Runtime-tunable settings of the generated server.  The "
                "*structure* of the server is fixed at generation time by "
                "the template options; these values tune the generated "
                "structure without changing it.",
            fragments=[
                Fragment(
                    '''
                    def __init__(self, host="127.0.0.1", port=0, backlog=128,
                                 document_root=None, **overrides):
                        self.host = host
                        self.port = int(port)
                        self.backlog = int(backlog)
                        self.document_root = document_root
                        self.processor_threads = 2
                        self.file_io_threads = 2
                        self.grow_at = 4
                        self.idle_limit = 30.0
                        self.idle_scan_interval = 1.0
                        self.scheduling_quotas = {}
                        self.max_connections = None
                        self.overload_high = 20
                        self.overload_low = 5
                        self.cache_capacity = 20 * 1024 * 1024
                        self.cache_threshold = 512 * 1024
                        for key, value in overrides.items():
                            if not hasattr(self, key):
                                raise TypeError(f"unknown setting {key!r}")
                            setattr(self, key, value)
                    '''
                ),
                Fragment(
                    '''
                    # Observability tuning (option O11): gauge-sampling
                    # period and the capacity of the finished-span ring
                    # behind /server-status?trace.
                    obs_sample_interval = 1.0
                    trace_ring_capacity = 256
                    ''',
                    guard=enabled("O11"), options=("O11",),
                ),
                Fragment(
                    '''
                    # Fault-tolerance tuning (option O13): per-stage
                    # connection deadlines, monitor cadences, accept-error
                    # back-off, poison-event retry budget and the graceful
                    # drain deadline.
                    header_timeout = 5.0
                    request_timeout = 30.0
                    write_timeout = 30.0
                    deadline_interval = 0.1
                    supervision_interval = 0.05
                    accept_backoff = 0.05
                    max_event_retries = 2
                    drain_timeout = 5.0
                    ''',
                    guard=enabled("O13"), options=("O13",),
                ),
                Fragment(
                    '''
                    # Degradation-plane tuning (option O17): per-client
                    # token-bucket rate, overload response (reject vs the
                    # O9-style postpone), and the file-I/O circuit
                    # breaker and retry-budget knobs.
                    shed_rate = 100.0
                    shed_burst = 20.0
                    shed_max_clients = 1024
                    shed_retry_after = 1.0
                    shed_on_overload = "reject"
                    breaker_failures = 5
                    breaker_recovery = 5.0
                    breaker_probes = 1
                    retry_budget_ratio = 0.1
                    ''',
                    guard=enabled("O17"), options=("O17",),
                ),
                Fragment(
                    '''
                    # Multi-process deployment tuning (option O16>1):
                    # worker-ready and per-worker drain deadlines, and
                    # the crash-respawn budget of the process supervisor
                    # (at most respawn_limit respawns per respawn_window
                    # seconds before the storm guard latches).
                    worker_ready_timeout = 15.0
                    worker_drain_timeout = 5.0
                    respawn_limit = 5
                    respawn_window = 30.0
                    ''',
                    guard=multiproc, options=("O16",),
                ),
                Fragment(
                    '''
                    # Debug builds write the internal event trace to this
                    # file when they stop, for post-mortem analysis
                    # (option O10=Debug; None keeps it in memory only).
                    debug_trace_path = None
                    ''',
                    guard=debug_mode, options=("O10",),
                ),
                Fragment(
                    '''
                    # Production build: the internal event trace is not
                    # generated (option O10=Production).
                    pass
                    ''',
                    guard=production_mode, options=("O10",),
                ),
            ],
        ),
    ],
)
