"""N-Server template: ``processing`` and ``cache`` modules.

Table 2 rows covered:

====================  =================================================
Event Processor       body depends on O5, O8, O9, O10
Processor Controller  exists iff O5=Dynamic
Event Dispatcher      body depends on O2, O4, O9, O10, O11
Cache                 exists iff O6; body depends on O11
====================  =================================================
"""

from __future__ import annotations

from repro.co2p3s.codegen import ClassSpec, Fragment, ModuleSpec
from repro.co2p3s.nserver.options import (
    enabled,
    disabled,
    debug_mode,
    dynamic_threads,
    static_threads,
)

__all__ = ["MODULE_PROCESSING", "MODULE_CACHE"]


MODULE_PROCESSING = ModuleSpec(
    name="processing",
    doc="Event Processor / Dispatcher wiring generated by the N-Server "
        "template.",
    imports=[
        Fragment("from repro import runtime as rt"),
        Fragment("from repro.runtime import EventKind"),
    ],
    classes=[
        ClassSpec(
            name="EventProcessor",
            doc="Event queue plus worker pool; the Event Dispatcher hands "
                "ready events here so multiple processors are exploited.",
            bases=("rt.EventProcessor",),
            fragments=[
                Fragment(
                    '''
                    def __init__(self, reactor, queue, threads, name="reactive"):
                        # Static thread allocation: the pool size is fixed at
                        # construction (option O5=Static).
                        super().__init__(handler=reactor.process_event,
                                         threads=threads, queue=queue, name=name)
                        self.reactor = reactor
                    ''',
                    guard=static_threads, options=("O5",),
                ),
                Fragment(
                    '''
                    def __init__(self, reactor, queue, threads, name="reactive"):
                        # Dynamic thread allocation: start minimal, the
                        # Processor Controller grows/shrinks the pool
                        # (option O5=Dynamic).
                        super().__init__(handler=reactor.process_event,
                                         threads=1, queue=queue, name=name)
                        self.reactor = reactor
                        self.target_threads = threads
                    ''',
                    guard=dynamic_threads, options=("O5",),
                ),
                Fragment(
                    '''
                    def submit_scheduled(self, event):
                        """Queue an event at its scheduling priority
                        (event scheduling, option O8)."""
                        self.queue.push(event, priority=event.priority)
                    ''',
                    guard=enabled("O8"), options=("O8",),
                ),
                Fragment(
                    '''
                    def queue_probe(self):
                        """Queue-length probe for the overload controller
                        (option O9)."""
                        return self.queue_length
                    ''',
                    guard=enabled("O9"), options=("O9",),
                ),
                Fragment(
                    '''
                    def trace_error(self, event, exc):
                        """Debug mode: record handler failures in the
                        internal event trace."""
                        self.reactor.tracer.record(
                            "processor-error", f"{event!r}: {exc!r}")
                    ''',
                    guard=debug_mode, options=("O10",),
                ),
            ],
        ),
        ClassSpec(
            name="ProcessorController",
            doc="Dynamic thread allocation: grows the reactive pool when "
                "the queue backs up, shrinks it when idle (option "
                "O5=Dynamic).",
            bases=("rt.ProcessorController",),
            exists=dynamic_threads,
            exists_options=("O5",),
            fragments=[
                Fragment(
                    '''
                    def __init__(self, reactor, processor):
                        super().__init__(
                            processor,
                            min_threads=1,
                            max_threads=max(processor.target_threads, 2),
                            grow_at=reactor.configuration.grow_at,
                        )
                        self.reactor = reactor
                    '''
                ),
            ],
        ),
        ClassSpec(
            name="EventDispatcher",
            doc="Queries the Event Source for ready events and passes them "
                "to the Event Processor (or handles them inline when no "
                "separate pool was generated).",
            bases=("rt.EventDispatcher",),
            fragments=[
                Fragment(
                    '''
                    def __init__(self, reactor, threads):
                        super().__init__(reactor.source, threads=threads,
                                         poll_timeout=0.05)
                        self.reactor = reactor
                        self.wire_routes()
                    '''
                ),
                Fragment(
                    '''
                    def wire_routes(self):
                        # Separate thread pool (O2=Yes): readiness events are
                        # queued on the reactive Event Processor.
                        reactor = self.reactor
                        self.route(EventKind.ACCEPT, $accept_target)
                        self.route(EventKind.READABLE, reactor.submit_readable)
                        self.route(EventKind.WRITABLE, reactor.submit_writable)
                        $completion_route_pool
                        self.route(EventKind.CONNECT, reactor.connector_event_handler.handle)
                        self.route(EventKind.TIMER, reactor.server_event_handler.handle)
                        self.route(EventKind.USER, reactor.application_event_handler.handle)
                    ''',
                    guard=enabled("O2"), options=("O2", "O4", "O9"),
                ),
                Fragment(
                    '''
                    def wire_routes(self):
                        # Standard Reactor (O2=No): events are handled inline
                        # on the dispatcher thread.
                        reactor = self.reactor
                        self.route(EventKind.ACCEPT, $accept_target)
                        self.route(EventKind.READABLE, reactor.read_request_event_handler.handle)
                        self.route(EventKind.WRITABLE, reactor.send_reply_event_handler.handle)
                        $completion_route_inline
                        self.route(EventKind.CONNECT, reactor.connector_event_handler.handle)
                        self.route(EventKind.TIMER, reactor.server_event_handler.handle)
                        self.route(EventKind.USER, reactor.application_event_handler.handle)
                    ''',
                    guard=disabled("O2"),
                    options=("O2", "O4", "O9"),
                ),
                Fragment(
                    '''
                    def dispatch(self, event):
                        $trace_dispatch
                        $count_dispatch
                        super().dispatch(event)
                    ''',
                    guard=lambda o: debug_mode(o) or o["O11"],
                    options=("O10", "O11"),
                ),
            ],
        ),
    ],
)


MODULE_CACHE = ModuleSpec(
    name="cache",
    doc="File cache generated by option O6.",
    imports=[
        Fragment("from repro.cache import FileCache"),
        Fragment("from repro.cache import make_policy",
                 guard=lambda o: o["O6"] == "LRU-Threshold",
                 options=("O6",)),
    ],
    classes=[
        ClassSpec(
            name="Cache",
            doc="Transparent file cache; the replacement policy selected by "
                "option O6 is baked in at generation time.",
            exists=enabled("O6"),
            exists_options=("O6",),
            fragments=[
                Fragment(
                    '''
                    def __init__(self, reactor):
                        configuration = reactor.configuration
                        policy = $cache_policy_expr
                        if configuration.document_root is not None:
                            self.file_cache = FileCache.for_directory(
                                configuration.document_root,
                                capacity=configuration.cache_capacity,
                                policy=policy)
                        else:
                            self.file_cache = FileCache(
                                capacity=configuration.cache_capacity,
                                policy=policy,
                                loader=getattr(reactor.hooks, "cache_loader", None))
                    ''',
                    options=("O6",),
                ),
                Fragment(
                    '''
                    def get_file(self, path):
                        return self.file_cache.get_file(path)

                    @property
                    def stats(self):
                        return self.file_cache.stats
                    '''
                ),
                Fragment(
                    '''
                    def enable_profiling(self, sampler):
                        """Publish the hit rate as a sampled gauge
                        (profiling, O11)."""
                        sampler.add_probe("server_cache_hit_rate", lambda: self.file_cache.stats.hit_rate, help="File cache hit rate (0..1)")
                    ''',
                    guard=enabled("O11"), options=("O11",),
                ),
            ],
        ),
    ],
)
