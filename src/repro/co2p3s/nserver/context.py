"""Substitution context for the N-Server template.

Maps the options (the paper's twelve plus the O13 fault-tolerance,
O16 deployment and O17 degradation extensions) to the
``$parameter`` values the fragments use.
Option-disabled instrumentation lines expand to :data:`OMIT`, which the
fragment renderer deletes — this is the crosscutting weave: a feature's
call sites exist in the generated text only when its option is on.
"""

from __future__ import annotations

from typing import Any, Dict

from repro.co2p3s.codegen import OMIT
from repro.co2p3s.options import OptionSet
from repro.co2p3s.nserver import options as opt

__all__ = ["build_context"]


def build_context(o: OptionSet) -> Dict[str, Any]:
    debug = opt.debug_mode(o)
    profiling = bool(o["O11"])
    logging = bool(o["O12"])
    idle = bool(o["O7"])
    sched = bool(o["O8"])
    overload = bool(o["O9"])
    codec = bool(o["O3"])
    pool = bool(o["O2"])
    async_io = opt.async_io(o)
    cache = o["O6"]
    dynamic = opt.dynamic_threads(o)
    resilient = bool(o["O13"])
    multiproc = opt.multiproc(o)
    degradation = bool(o["O17"])

    def on(flag: bool, line: str) -> str:
        return line if flag else OMIT

    ctx: Dict[str, Any] = {}

    # -- handlers module -------------------------------------------------
    for step, label in (("read_request", "readable"),
                        ("send_reply", "writable")):
        tag = step.replace("_", "-")
        ctx[f"trace_{step}"] = on(
            debug, f'self.reactor.tracer.record("{tag}", event.handle.name)')
        ctx[f"log_{step}"] = on(
            logging, f'self.reactor.log.debug(f"{label}: {{event.handle.name}}")')
        ctx[f"touch_{step}"] = on(
            idle, "conn.handle.last_activity = self.reactor.clock()")

    for step in ("decode", "encode", "compute"):
        ctx[f"trace_{step}"] = on(
            debug, f'self.reactor.tracer.record("{step}", conn.handle.name)')
        ctx[f"log_{step}"] = on(
            logging, f'self.reactor.log.debug(f"{step}: {{conn.handle.name}}")')
        ctx[f"touch_{step}"] = on(idle, "conn.touch()")

    ctx["reclassify_priority"] = on(
        sched, "conn.set_priority(conn.hooks.classify_priority(conn))")
    # Handling may change a connection's service class (e.g. after
    # authentication), so the Handle step re-evaluates the priority too.
    ctx["compute_reclassify"] = on(
        sched, "conn.set_priority(conn.hooks.classify_priority(conn))")
    ctx["stamp_write_priority"] = on(
        sched, "conn.handle.write_priority = conn.get_priority()")
    ctx["compute_result_check"] = (
        "# the result flows on to the Encode Reply step (Fig 1)"
        if codec else
        'if not (result is PENDING or result is CLOSE or result is None '
        'or isinstance(result, (bytes, bytearray))): '
        'raise TypeError("handle() must return bytes when no codec steps '
        'are generated")')

    # -- processing module ----------------------------------------------------
    ctx["accept_target"] = (
        "reactor.acceptor_event_handler.handle_guarded" if overload
        else "reactor.acceptor_event_handler.handle")
    ctx["completion_route_pool"] = on(
        async_io, "self.route(EventKind.COMPLETION, reactor.submit_completion)")
    ctx["completion_route_inline"] = on(
        async_io, "self.route(EventKind.COMPLETION, reactor.process_other)")
    if cache == "Custom":
        ctx["cache_policy_expr"] = "reactor.hooks.make_cache_policy()"
    elif cache == "LRU-Threshold":
        ctx["cache_policy_expr"] = ('make_policy("LRU-Threshold", '
                                    'threshold=configuration.cache_threshold)')
    elif cache is not None:
        ctx["cache_policy_expr"] = f'"{cache}"'
    else:
        ctx["cache_policy_expr"] = OMIT  # Cache class not generated

    # -- observability module -------------------------------------------------
    ctx["spans_tracer"] = "reactor.tracer" if debug else "None"
    ctx["probe_queue_depth"] = on(
        pool, 'sampler.add_probe("server_queue_depth", '
              'lambda: reactor.processor.queue_length, '
              'help="Reactive Event Processor queue length")')
    ctx["probe_pool_threads"] = on(
        pool, 'sampler.add_probe("server_pool_threads", '
              'lambda: reactor.processor.thread_count, '
              'help="Event Processor pool size")')
    ctx["probe_pool_busy"] = on(
        pool, 'sampler.add_probe("server_pool_busy", '
              'lambda: reactor.processor.busy_count, '
              'help="Event Processor threads currently handling events")')
    ctx["probe_overload_tripped"] = on(
        overload, 'sampler.add_probe("server_overload_tripped", '
                  'lambda: len(reactor.overload.overloaded_queues()), '
                  'help="Watermark queues currently in the tripped state")')
    ctx["probe_postponed_accepts"] = on(
        overload, 'sampler.add_probe("server_postponed_accepts", '
                  'lambda: reactor.overload.postponed_accepts, '
                  'help="Accepts postponed by overload control")')
    ctx["probe_shed_total"] = on(
        degradation, 'sampler.add_probe("server_shed_total", '
                     'lambda: reactor.degradation.shedding.shed_total, '
                     'help="Connections and requests shed by the '
                     'degradation policy")')
    ctx["probe_breaker_open"] = on(
        degradation, 'sampler.add_probe("server_breaker_open", '
                     'lambda: 0.0 if reactor.degradation.breaker.state '
                     '== "closed" else 1.0, '
                     'help="File-I/O circuit breaker not closed (0/1)")')

    # -- communication module -----------------------------------------------------
    ctx["communicator_spans_arg"] = on(
        profiling, "spans=reactor.observability.spans,")
    ctx["server_pipeline"] = (
        '("read request", "decode request", "handle request", '
        '"encode reply", "send reply")' if codec else
        '("read request", "handle request", "send reply")')

    ctx["server_open_trace"] = on(
        debug, 'self.reactor.tracer.record("server", f"open port {self.port}")')
    ctx["server_open_log"] = on(
        logging, 'self.reactor.log.info(f"listening on port {self.port}")')
    ctx["server_open_idle_timer"] = on(
        idle, "self.reactor.timer_source.schedule("
              'self.configuration.idle_scan_interval, payload="idle-scan")')
    ctx["server_open_obs_timer"] = on(
        profiling, "self.reactor.timer_source.schedule("
                   'self.configuration.obs_sample_interval, '
                   'payload="obs-sample")')
    ctx["touch_new_communicator"] = on(idle, "conn.touch()")

    ctx["client_connect_trace"] = on(
        debug, 'self.reactor.tracer.record("connect", handle.name)')
    ctx["client_connect_log"] = on(
        logging, 'self.reactor.log.info(f"connecting to '
                 '{client_configuration.host}:{client_configuration.port}")')
    ctx["client_connect_touch"] = on(
        idle, "handle.last_activity = self.reactor.clock()")

    ctx["trace_server_event"] = on(
        debug, 'self.reactor.tracer.record("server-event", str(event.payload))')
    ctx["idle_scan_dispatch"] = on(idle, "self._idle_scan(event)")
    ctx["obs_sample_dispatch"] = on(profiling, "self._obs_sample(event)")
    ctx["deadline_tick_dispatch"] = on(resilient, "self._deadline_tick(event)")
    ctx["supervise_dispatch"] = on(resilient and pool, "self._supervise(event)")
    ctx["control_dispatch"] = on(pool and dynamic, "self._control(event)")

    ctx["trace_connect_event"] = on(
        debug, 'self.reactor.tracer.record("connect", conn.handle.name)')
    ctx["log_connect_event"] = on(
        logging, 'self.reactor.log.info(f"connected to {conn.handle.name}")')
    ctx["send_client_greeting"] = (
        "conn.send_bytes(conn.hooks.encode("
        "conn.hooks.client_greeting(conn), conn))"
        if codec else
        "conn.send_bytes(conn.hooks.client_greeting(conn))")

    ctx["trace_accept"] = on(
        debug, 'self.reactor.tracer.record("accept", handle.name)')
    ctx["log_accept"] = on(
        logging, 'self.reactor.log.info(f"accepted {handle.name}")')
    ctx["count_connections_accepted"] = on(
        profiling, "self.reactor.observability.connections_accepted.inc()")
    ctx["send_server_greeting"] = (
        "conn.send_bytes(conn.hooks.encode("
        "conn.hooks.server_greeting(conn), conn))"
        if codec else
        "conn.send_bytes(conn.hooks.server_greeting(conn))")

    ctx["trace_app_event"] = on(
        debug, 'self.reactor.tracer.record("app-event", str(event.payload))')
    ctx["touch_app_event"] = on(
        idle, "if event.handle is not None: "
              "event.handle.last_activity = self.reactor.clock()")

    # -- reactor module ------------------------------------------------------------
    ctx["make_tracer"] = on(debug, "self.tracer = rt.debug_ring()")
    ctx["make_log"] = on(logging, "self.log = rt.ServerLog()")
    # The tracer is built first: the Observability span recorder mirrors
    # span events into it when the build is O10=Debug.
    ctx["make_observability"] = on(
        profiling, "self.observability = Observability(self)")
    ctx["wire_observability"] = on(profiling, "self.observability.wire()")
    ctx["make_cache"] = on(cache is not None, "self.cache = Cache(self)")
    if pool and sched:
        queue_expr = "rt.QuotaPriorityQueue(configuration.scheduling_quotas)"
    elif pool:
        queue_expr = "rt.FifoEventQueue()"
    else:
        queue_expr = None
    if queue_expr is not None:
        ctx["make_processor"] = (
            f"self.processor = EventProcessor(self, {queue_expr}, "
            "configuration.processor_threads)")
    else:
        ctx["make_processor"] = OMIT
    ctx["make_controller"] = on(
        pool and dynamic,
        "self.processor_controller = ProcessorController(self, self.processor)")
    ctx["make_overload"] = on(
        overload, "self.overload = rt.OverloadController("
                  "max_connections=configuration.max_connections)")
    ctx["watch_overload"] = on(
        overload, 'self.overload.watch("reactive", self.processor.queue_probe, '
                  "rt.Watermark(configuration.overload_high, "
                  "configuration.overload_low))")
    if async_io:
        sink = "self.processor.submit" if pool else "self.source.post"
        io_cache = "self.cache.file_cache" if cache is not None else "None"
        io_extra = (", breaker=self.degradation.breaker, "
                    "retry_budget=self.degradation.retry_budget"
                    if degradation else "")
        ctx["make_file_io"] = (
            f"self.file_io = rt.AsyncFileIO(sink={sink}, "
            f"threads=configuration.file_io_threads, cache={io_cache}, "
            f"root=configuration.document_root{io_extra})")
    else:
        ctx["make_file_io"] = OMIT
    ctx["dispatcher_threads_expr"] = (
        "1" if o["O1"] == "1" else "2 * (os.cpu_count() or 1)")
    ctx["trace_dispatch"] = on(
        debug, 'self.reactor.tracer.record("dispatch", type(event).__name__)')
    ctx["count_dispatch"] = on(
        profiling, "self.reactor.observability.events_dispatched.inc()")
    ctx["enable_cache_profiling"] = on(
        profiling and cache is not None,
        "self.cache.enable_profiling(self.observability.sampler)")
    ctx["wire_processor_error_trace"] = on(
        debug and pool,
        "self.processor.error_hook = self.processor.trace_error")

    ctx["teardown_overload"] = on(overload, "self.overload.connection_closed()")
    ctx["teardown_log"] = on(
        logging, 'self.log.debug(f"teardown {conn.handle.name}")')

    ctx["stamp_readable_priority"] = on(
        sched, "event.priority = self._connection_priority(event.handle)")
    ctx["stamp_writable_priority"] = on(
        sched, 'event.priority = getattr(event.handle, "write_priority", 0)')
    ctx["submit_call"] = ("self.processor.submit_scheduled(event)" if sched
                          else "self.processor.submit(event)")

    ctx["start_processor"] = on(pool, "self.processor.start()")
    ctx["start_file_io"] = on(async_io, "self.file_io.start()")
    # The first timer of each O5/O13 periodic duty; the Server Event
    # Handler re-arms it after every pass.
    ctx["arm_deadline_timer"] = on(
        resilient, "self.timer_source.schedule("
                   'self.configuration.deadline_interval, '
                   'payload="deadline-tick")')
    ctx["arm_supervision_timer"] = on(
        resilient and pool, "self.timer_source.schedule("
                            "self.configuration.supervision_interval, "
                            'payload="supervise")')
    ctx["arm_control_timer"] = on(
        pool and dynamic, "self.timer_source.schedule("
                          'self.processor_controller.period, '
                          'payload="control")')
    ctx["log_started"] = on(
        logging,
        'self.log.info(f"server listening on port '
        '{self.server_component.port}")')
    ctx["stop_processor"] = on(pool, "self.processor.stop()")
    ctx["stop_file_io"] = on(async_io, "self.file_io.stop()")
    ctx["final_obs_sample"] = on(
        profiling, "self.observability.sample()")
    ctx["write_debug_trace"] = on(debug, "self.write_debug_trace()")
    ctx["log_stopped"] = on(logging, 'self.log.info("server stopped")')

    # -- resilience module (O13) --------------------------------------------------
    dl_extra = ""
    sup_extra = ""
    q_extra = ""
    if profiling:
        dl_extra += (', counter=reactor.observability.registry.counter('
                     '"server_deadline_timeouts_total", '
                     '"Connections closed for blowing a stage deadline")')
        sup_extra += (', counter=reactor.observability.registry.counter('
                      '"server_worker_restarts_total", '
                      '"Dead Event Processor workers replaced")')
        q_extra += (', counter=reactor.observability.registry.counter('
                    '"server_quarantined_events_total", '
                    '"Poison events quarantined after retries")')
    if logging:
        dl_extra += ", log=reactor.log"
        sup_extra += ", log=reactor.log"
        q_extra += ", log=reactor.log"
    ctx["make_deadlines"] = (
        "self.deadlines = rt.DeadlineMonitor(policy, "
        "interval=configuration.deadline_interval" + dl_extra + ")")
    ctx["make_supervisor"] = on(
        pool, "self.supervisor = rt.WorkerSupervisor(reactor.processor"
              + sup_extra + ")")
    ctx["make_quarantine"] = on(
        pool, "self.quarantine = rt.EventQuarantine.attach(reactor.processor, "
              "max_retries=configuration.max_event_retries" + q_extra + ")")
    ctx["quiescent_queue_check"] = on(
        pool, "if reactor.processor.queue_length or "
              "reactor.processor.busy_count: return False")
    ctx["count_accept_errors"] = on(
        profiling, "self.reactor.observability.accept_errors.inc()")
    ctx["log_accept_error"] = on(
        logging, 'self.reactor.log.error(f"accept error: {exc!r}")')
    ctx["make_resilience"] = on(resilient, "self.resilience = Resilience(self)")
    # Wheel-backed deadline arming: a watched connection costs O(1) per
    # re-arm instead of a full scan per monitor interval.
    ctx["deadline_watch"] = on(
        resilient, "self.resilience.deadlines.watch(conn)")
    ctx["deadline_unwatch"] = on(
        resilient, "self.resilience.deadlines.unwatch(conn)")
    ctx["try_accept_expr"] = (
        "self.reactor.resilience.safe_accept(listen)" if resilient
        else "listen.try_accept()")
    ctx["log_drain"] = on(
        logging, 'self.log.info(f"draining (timeout={timeout}s)")')

    # -- degradation module (O17) -------------------------------------------------
    ctx["make_degradation"] = on(
        degradation, "self.degradation = Degradation(self)")
    # Shed records carry the request trace id only when the tracing
    # plane exists (O11) — an O11=No build must not mention trace ids.
    ctx["accept_trace_id"] = (
        'getattr(handle, "trace_id", 0)' if profiling else "0")

    # -- deployment module (O16) --------------------------------------------
    # At O16>1 the server component runs inside a worker process and
    # adopts the supervisor's shared SO_REUSEPORT socket instead of
    # binding its own (a worker build run outside a supervisor still
    # binds, with SO_REUSEPORT, so the generated package stands alone).
    ctx["server_component_listen_expr"] = (
        "rt.worker_listen_handle(configuration)" if multiproc else
        "rt.ListenHandle(configuration.host, configuration.port, "
        "configuration.backlog)")
    ctx["server_make_reactor"] = (
        "self.deployment = Deployment(configuration, hooks)" if multiproc
        else "self.reactor = Reactor(configuration, hooks)")
    ctx["server_start_call"] = ("self.deployment.start()" if multiproc
                                else "self.reactor.start()")
    ctx["server_stop_call"] = ("self.deployment.stop()" if multiproc
                               else "self.reactor.stop()")
    ctx["server_drain_call"] = (
        "return self.deployment.drain(timeout)" if multiproc
        else "return self.reactor.drain(timeout)")
    ctx["proc_count"] = str(int(o["O16"]))
    ctx["server_port_expr"] = (
        "self.deployment.port" if multiproc
        else "self.reactor.server_component.port")
    # The supervisor process runs no reactor, so outbound connections
    # can only be opened from hooks inside the worker processes.
    ctx["server_connect_body"] = (
        'raise RuntimeError("connect() needs an in-process reactor; '
        "at O16>1 open outbound connections from hooks inside the "
        'worker processes")'
        if multiproc else
        "return self.reactor.client_component.connect(client_configuration)")

    return ctx
