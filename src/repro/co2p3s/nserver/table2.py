"""The paper's Table 2, as data.

``PAPER_TABLE2[class_name][option_key]`` is ``"O"`` (option controls the
class's existence), ``"+"`` (option alters the generated code of the
class), or absent (no dependency).  The crosscut benches and tests
compare the empirically computed matrix against this.

This reproduction extends the template with an ``Observability`` class
(the unified O11 layer: registry + spans + sampler + exposition) that
the paper's table does not have.  The extension rows live in
:data:`TABLE2_EXTENSIONS`; :data:`EXPECTED_TABLE2` is the paper table
with the extensions merged in — the matrix codegen must actually
produce.  ``PAPER_TABLE2`` itself stays verbatim.
"""

from __future__ import annotations

__all__ = ["PAPER_TABLE2", "TABLE2_CLASS_ORDER", "TABLE2_EXTENSIONS",
           "EXPECTED_TABLE2"]

TABLE2_CLASS_ORDER = [
    "Event",
    "CompletionEvent",
    "FileOpenEvent",
    "FileReadEvent",
    "Handle",
    "FileHandle",
    "ReadRequestEventHandler",
    "SendReplyEventHandler",
    "DecodeRequestEventHandler",
    "EncodeReplyEventHandler",
    "ComputeRequestEventHandler",
    "EventProcessor",
    "ProcessorController",
    "EventDispatcher",
    "Cache",
    "Reactor",
    "CommunicatorComponent",
    "ServerComponent",
    "ClientComponent",
    "ServerEventHandler",
    "ConnectorEventHandler",
    "AcceptorEventHandler",
    "ContainerComponent",
    "ApplicationEventHandler",
    "ClientConfiguration",
    "ServerConfiguration",
    "Server",
    "Observability",
    "Resilience",
    "Buffers",
    "Degradation",
    "Poller",
    "Deployment",
    "Worker",
]

PAPER_TABLE2 = {
    "Event": {"O4": "+", "O8": "+"},
    "CompletionEvent": {"O4": "O"},
    "FileOpenEvent": {"O4": "O", "O6": "+"},
    "FileReadEvent": {"O4": "O", "O6": "+"},
    "Handle": {"O1": "+"},
    "FileHandle": {"O4": "O", "O6": "+"},
    "ReadRequestEventHandler": {"O7": "+", "O10": "+", "O11": "+", "O12": "+"},
    "SendReplyEventHandler": {"O7": "+", "O10": "+", "O11": "+", "O12": "+"},
    "DecodeRequestEventHandler": {"O3": "O", "O7": "+", "O8": "+",
                                  "O10": "+", "O12": "+"},
    "EncodeReplyEventHandler": {"O3": "O", "O7": "+", "O8": "+",
                                "O10": "+", "O12": "+"},
    "ComputeRequestEventHandler": {"O3": "+", "O4": "+", "O7": "+",
                                   "O8": "+", "O10": "+", "O12": "+"},
    "EventProcessor": {"O5": "+", "O8": "+", "O9": "+", "O10": "+"},
    "ProcessorController": {"O5": "O"},
    "EventDispatcher": {"O2": "+", "O4": "+", "O9": "+", "O10": "+",
                        "O11": "+"},
    "Cache": {"O6": "O", "O11": "+"},
    "Reactor": {"O1": "+", "O2": "+", "O4": "+", "O5": "+", "O6": "+",
                "O8": "+", "O9": "+", "O10": "+", "O11": "+", "O12": "+"},
    "CommunicatorComponent": {"O3": "+", "O7": "+", "O8": "+", "O11": "+"},
    "ServerComponent": {"O3": "+", "O7": "+", "O10": "+", "O12": "+"},
    "ClientComponent": {"O3": "+", "O7": "+", "O10": "+", "O12": "+"},
    "ServerEventHandler": {"O7": "+", "O10": "+", "O11": "+"},
    "ConnectorEventHandler": {"O3": "+", "O10": "+", "O11": "+", "O12": "+"},
    "AcceptorEventHandler": {"O3": "+", "O9": "+", "O10": "+", "O11": "+",
                             "O12": "+"},
    "ContainerComponent": {"O7": "+", "O10": "+", "O11": "+", "O12": "+"},
    "ApplicationEventHandler": {"O7": "+", "O10": "+", "O11": "+"},
    "ClientConfiguration": {"O3": "+", "O10": "+"},
    "ServerConfiguration": {"O10": "+"},
    "Server": {"O3": "+"},
}

#: Rows (and extra cells) this reproduction adds beyond the paper's
#: table: the Observability component exists iff O11 and its body
#: depends on which subsystems there are to probe; the Server
#: Component arms the sampling timer and the Server Configuration
#: carries its period, so both gain an O11 ``+``.  The O13
#: fault-tolerance extension adds the Resilience row (exists iff O13;
#: body depends on the pool it supervises, the counters it registers,
#: the log it writes and, per O18, how the listener is re-posted
#: after an accept backoff) and '+' cells where the option weaves in:
#: the accept loop, the configuration's tuning block, the Reactor's
#: construction/lifecycle/drain and the Server's drain facade.
#: The O15 zero-copy write path adds the Buffers row (exists iff
#: O15=zerocopy; the body itself is option-independent) and '+'
#: cells where the option weaves in: the Reactor builds the Buffers
#: component, the Communicator takes the shared header pool, the
#: Server Component swaps in segmented out-buffers, the
#: configuration carries the pool geometry and the Observability
#: wire probes the pool hit rate.  The O17 graceful-degradation
#: extension adds the Degradation row (exists iff O17; body depends
#: on O11 — the adaptive controller reads the request-latency p99
#: from the shared registry — and O12, the retune log argument) and
#: '+' cells where the plane weaves in: the Reactor builds, starts
#: and stops the component (and wraps the processor queue / breaks
#: the file I/O through it), the accept loop swaps silent
#: postponement for explicit shedding, the
#: configuration carries the tuning block and the Observability
#: wire probes shed totals, brownout level and breaker state.
#: The O18 edge-triggered poller extension adds the Poller row
#: (exists iff O18=epoll; the body itself is option-independent) and
#: '+' cells where the backend weaves in: the Reactor builds the
#: component and hands its backend to the socket event source, the
#: accept loops bound their drain and re-post early-stopped
#: listeners, and the configuration carries the batch knob.
#: The O16 multi-process deployment extension adds the Deployment row
#: (exists iff O16>1; body depends on O11 — cluster-wide aggregated
#: status fields — and O13, the cross-process drain barrier) and the
#: Worker row (exists iff O16>1; body depends on O11 and O13), and
#: '+' cells where the option weaves in: the Server facade delegates
#: to the Deployment component (and gains the rolling-restart facade),
#: the Server Component adopts the shared SO_REUSEPORT listen socket,
#: the configuration carries the worker deadlines and respawn budget,
#: and the Observability status report aggregates across worker
#: processes through the stats socket.
TABLE2_EXTENSIONS = {
    "Observability": {"O2": "+", "O9": "+", "O10": "+", "O11": "O",
                      "O15": "+", "O16": "+", "O17": "+"},
    "ServerComponent": {"O11": "+", "O15": "+", "O16": "+"},
    "ServerConfiguration": {"O11": "+", "O13": "+", "O15": "+", "O16": "+",
                            "O17": "+", "O18": "+"},
    "Resilience": {"O2": "+", "O11": "+", "O12": "+", "O13": "O", "O18": "+"},
    "Reactor": {"O13": "+", "O15": "+", "O17": "+", "O18": "+"},
    "AcceptorEventHandler": {"O13": "+", "O17": "+", "O18": "+"},
    "Server": {"O13": "+", "O16": "+"},
    "CommunicatorComponent": {"O15": "+"},
    "Buffers": {"O15": "O"},
    "Degradation": {"O11": "+", "O12": "+", "O17": "O"},
    "Poller": {"O18": "O"},
    "Deployment": {"O11": "+", "O13": "+", "O16": "O"},
    "Worker": {"O11": "+", "O13": "+", "O16": "O"},
}


def _merge(paper, extensions):
    merged = {name: dict(row) for name, row in paper.items()}
    for name, row in extensions.items():
        merged.setdefault(name, {}).update(row)
    return merged


#: What the generator must actually produce: paper + extensions.
EXPECTED_TABLE2 = _merge(PAPER_TABLE2, TABLE2_EXTENSIONS)
