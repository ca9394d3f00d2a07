"""Event-driven server runtime: the library layer generated N-Server
frameworks import.

Synthesises the four patterns from section II of the paper: Reactor
(readiness selection + dispatch), Proactor and Asynchronous Completion
Tokens (emulated non-blocking file I/O), and Acceptor-Connector
(connection establishment).  Feature subsystems map to template options:
scheduler (O8), overload (O9), tracing (the O10=Debug event ring and
the O12 log).  O11 profiling lives in :mod:`repro.obs`: generated code
bumps the metrics registry and the span recorder directly.
"""

from repro import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, globals(), {
    "acceptor": ("Connector", "is_transient_accept_error"),
    "communicator": ("CLOSE", "PENDING", "Communicator", "ServerHooks"),
    "container": ("Container",),
    "degradation": (
        "CircuitBreaker", "CircuitOpenError", "ClientRateLimiter",
        "RetryBudget", "ShedDecision", "SheddingPolicy", "SojournQueue",
        "TokenBucket", "hill_climb", "reject_handle", "rejection_response",
    ),
    "deployment": (
        "ProcessSupervisor", "adopted_listen_socket", "cluster_status_fields",
        "generated_worker", "generated_worker_args", "worker_listen_handle",
    ),
    "dispatcher": ("EventDispatcher",),
    "event_source": (
        "EventSource", "EventSourceDecorator", "NullEventSource",
        "QueueEventSource", "SocketEventSource", "TimerEventSource",
    ),
    "events": (
        "AcceptEvent", "AsynchronousCompletionToken", "CompletionEvent",
        "ConnectEvent", "Event", "EventKind", "FileOpenEvent", "FileReadEvent",
        "ReadableEvent", "TimerEvent", "UserEvent", "WritableEvent",
    ),
    "file_io": ("AsyncFileIO",),
    "handles": (
        "FileHandle", "Handle", "ListenHandle", "OutBuffer", "SocketHandle",
    ),
    "overload": ("OverloadController", "Watermark"),
    "poller": (
        "EpollPoller", "Poller", "SelectPoller", "available_pollers",
        "make_poller",
    ),
    "nulls": ("NULL_LOG", "NullLog"),
    "processor": ("EventProcessor", "ProcessorController"),
    "resilience": (
        "DeadlineMonitor", "DeadlinePolicy", "EventQuarantine",
        "WorkerSupervisor",
    ),
    "scheduler": ("FifoEventQueue", "QuotaPriorityQueue"),
    "timerwheel": ("TimerWheel",),
    "tracing": ("ServerLog", "debug_ring"),
})
