"""N-Server template: the ``observability`` module (option O11).

Extends the paper's performance-profiling option into a unified
observability layer: when O11=Yes the template generates an
``Observability`` component owning a metrics registry, the request-span
recorder, and a periodic gauge sampler, plus the two exposition
surfaces (Prometheus text and a ``mod_status``-style report).  It
registers the counters the generated accept loop and dispatcher bump
directly; the span recorder registers the per-connection ones.  When
O11=No the module is not emitted at all and no metric or span call
site appears anywhere in the generated framework.

Table 2 extension row:

=============  ====================================================
Observability  exists iff O11; body depends on O2 (pool probes),
               O9 (overload probes), O10 (span events mirrored into
               the debug event ring), O16 (status report aggregated across worker
               processes by the supervisor) and
               O17 (shed-total and breaker-state probes)
=============  ====================================================
"""

from __future__ import annotations

from repro.co2p3s.codegen import ClassSpec, Fragment, ModuleSpec
from repro.co2p3s.nserver.options import enabled, multiproc

__all__ = ["MODULE_OBSERVABILITY"]


MODULE_OBSERVABILITY = ModuleSpec(
    name="observability",
    doc="Unified observability layer generated by option O11: metrics "
        "registry, request-lifecycle spans, periodic gauge sampling and "
        "the status/Prometheus exposition surfaces.",
    imports=[
        Fragment("from repro import obs"),
        Fragment("from repro import runtime as rt",
                 guard=multiproc, options=("O16",)),
    ],
    classes=[
        ClassSpec(
            name="Observability",
            doc="Owns the metrics registry shared by the generated "
                "counters, the span recorder and the gauge sampler; "
                "renders the Prometheus and server-status exposition "
                "surfaces.",
            exists=enabled("O11"),
            exists_options=("O11",),
            fragments=[
                Fragment(
                    '''
                    def __init__(self, reactor):
                        self.reactor = reactor
                        self.start_time = reactor.clock()
                        self.registry = obs.MetricsRegistry()
                        self.connections_accepted = self.registry.counter("server_connections_accepted_total", "Connections accepted")
                        self.events_dispatched = self.registry.counter("server_events_dispatched_total", "Events routed by dispatchers")
                        self.accept_errors = self.registry.counter("server_accept_errors_total", "OSErrors survived by the accept loop")
                        self.exporter = obs.RingExporter(reactor.configuration.trace_ring_capacity)
                        self.spans = obs.SpanRecorder(self.registry, tracer=$spans_tracer, exporter=self.exporter)
                        self.sampler = obs.PeriodicSampler(self.registry)
                    ''',
                    options=("O10",),
                ),
                Fragment(
                    '''
                    def wire(self):
                        """Attach gauge probes to the subsystems the template
                        generated (called once the Reactor is assembled)."""
                        reactor = self.reactor
                        sampler = self.sampler
                        sampler.add_probe("server_open_connections", lambda: len(reactor.container), help="Currently open connections")
                        $probe_queue_depth
                        $probe_pool_threads
                        $probe_pool_busy
                        $probe_overload_tripped
                        $probe_postponed_accepts
                        $probe_shed_total
                        $probe_breaker_open
                    ''',
                    options=("O2", "O9", "O17"),
                ),
                Fragment(
                    '''
                    def sample(self):
                        """Take one gauge sample (driven by the obs-sample
                        timer through the Server Event Handler)."""
                        self.sampler.sample()

                    def uptime(self):
                        return self.reactor.clock() - self.start_time

                    def prometheus(self):
                        """Prometheus text exposition of every metric,
                        with trace-id exemplars on the request
                        histograms."""
                        return obs.render_prometheus(self.registry, exemplars=self.spans.exemplars())
                    '''
                ),
                Fragment(
                    '''
                    def status_report(self, auto=False):
                        """mod_status-style report: Apache-compatible
                        ``?auto`` machine format or an HTML table."""
                        self.sample()
                        fields = obs.status_fields(self.registry, uptime=self.uptime())
                        if auto:
                            return obs.render_status_auto(fields)
                        return obs.render_status_html(fields)
                    ''',
                    guard=lambda o: not multiproc(o), options=("O16",),
                ),
                Fragment(
                    '''
                    def status_report(self, auto=False):
                        """mod_status-style report aggregated across the
                        worker processes (option O16): asked over the
                        control socket, the supervisor sums every
                        worker's registry and re-labels per-worker gauges
                        ``worker="pid"``; outside a supervisor this
                        worker build falls back to its own process-local
                        fields."""
                        fields = rt.cluster_status_fields()
                        if fields is None:
                            self.sample()
                            fields = obs.status_fields(self.registry, uptime=self.uptime())
                        if auto:
                            return obs.render_status_auto(fields)
                        return obs.render_status_html(fields)
                    ''',
                    guard=multiproc, options=("O16",),
                ),
                Fragment(
                    '''
                    def trace_report(self):
                        """Recent finished request spans, one line per
                        trace (the ``/server-status?trace`` surface)."""
                        return obs.render_trace_report(self.exporter.records())
                    '''
                ),
            ],
        ),
    ],
)
