"""Event-driven server runtime: the library layer generated N-Server
frameworks import.

Synthesises the four patterns from section II of the paper: Reactor
(readiness selection + dispatch), Proactor and Asynchronous Completion
Tokens (emulated non-blocking file I/O), and Acceptor-Connector
(connection establishment).  Feature subsystems map to template options:
scheduler (O8), overload (O9), profiling (O11), tracing (O10/O12),
idle (O7).
"""

from repro import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, globals(), {
    "acceptor": ("Connector", "is_transient_accept_error"),
    "buffers": (
        "BufferPool", "BufferPoolStats", "OutBuffer", "PooledBuffer",
        "segment_bytes",
    ),
    "communicator": ("CLOSE", "PENDING", "Communicator", "ServerHooks"),
    "container": ("Container",),
    "degradation": (
        "AdaptiveController", "BrownoutController", "CircuitBreaker",
        "CircuitOpenError", "ClientRateLimiter", "RetryBudget", "ShedDecision",
        "SheddingPolicy", "SojournQueue", "TokenBucket", "hill_climb",
        "reject_handle", "rejection_response",
    ),
    "deployment": (
        "STATS_SOCKET_ENV", "ProcessSupervisor", "adopted_listen_socket",
        "cluster_status_fields", "generated_worker", "generated_worker_args",
        "in_worker_process", "worker_listen_handle",
    ),
    "dispatcher": ("EventDispatcher",),
    "event_source": (
        "EventSource", "EventSourceDecorator", "NullEventSource",
        "QueueEventSource", "SocketEventSource", "TimerEventSource",
    ),
    "events": (
        "AcceptEvent", "AsynchronousCompletionToken", "CompletionEvent",
        "ConnectEvent", "Event", "EventKind", "FileOpenEvent", "FileReadEvent",
        "ReadableEvent", "ShutdownEvent", "TimerEvent", "UserEvent",
        "WritableEvent",
    ),
    "file_io": ("AsyncFileIO",),
    "handles": ("FileHandle", "Handle", "ListenHandle", "SocketHandle"),
    "idle": ("IdleConnectionReaper",),
    "overload": ("OverloadController", "Watermark"),
    "poller": (
        "EpollPoller", "Poller", "SelectPoller", "available_pollers",
        "make_poller",
    ),
    "nulls": (
        "NULL_LOG", "NULL_PROFILER", "NULL_TRACER", "NullLog", "NullProfiler",
        "NullTracer",
    ),
    "processor": ("EventProcessor", "ProcessorController"),
    "profiling": ("Profiler", "ServerProfile"),
    "resilience": (
        "DeadlineMonitor", "DeadlinePolicy", "EventQuarantine",
        "WorkerSupervisor",
    ),
    "scheduler": ("FifoEventQueue", "QuotaPriorityQueue"),
    "sharding": (
        "ConnectionHashPolicy", "LeastConnectionsPolicy", "RoundRobinPolicy",
        "ShardPolicy", "make_shard_policy",
    ),
    "timerwheel": ("TimerWheel",),
    "tracing": ("EventTracer", "ServerLog", "TraceRecord"),
})
