"""The paper's Table 2, as data.

``PAPER_TABLE2[class_name][option_key]`` is ``"O"`` (option controls the
class's existence), ``"+"`` (option alters the generated code of the
class), or absent (no dependency).  The crosscut benches and tests
compare the empirically computed matrix against the expected one.

The expected matrix differs from the paper's in two ways, each listed
here so ``PAPER_TABLE2`` itself stays verbatim:

* :data:`TABLE2_DIVERGENCES` — paper cells the generator no longer
  produces.  A generated element stays only if something runs it; the
  code behind these cells was never run, so it was deleted and the
  cell emptied.  Each carries the reason, naming the deleted code.
* :data:`TABLE2_EXTENSIONS` — rows and cells this reproduction adds
  (the O11 Observability layer and the O13, O16 and O17 planes).

:data:`EXPECTED_TABLE2` is paper − divergences + extensions: the matrix
codegen must actually produce.
"""

from __future__ import annotations

__all__ = ["PAPER_TABLE2", "TABLE2_CLASS_ORDER", "TABLE2_DIVERGENCES",
           "TABLE2_EXTENSIONS", "EXPECTED_TABLE2"]

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
    "Degradation",
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

_DELETED_SUBCLASS = "generated subclass deleted: "

#: Paper cells the generator does not reproduce: the code that made the
#: option reach the class was never run (nothing imported, constructed,
#: called or read it), so it was deleted.  ``{class: {option: reason}}``.
TABLE2_DIVERGENCES = {
    "Event": {
        "O4": _DELETED_SUBCLASS + "nothing imported the events module or "
              "read its O4 is_completion flag",
        "O8": _DELETED_SUBCLASS + "nothing called its O8 "
              "get_priority/set_priority",
    },
    "CompletionEvent": {
        "O4": _DELETED_SUBCLASS + "nothing imported the events module or "
              "constructed it",
    },
    "FileOpenEvent": {
        "O4": _DELETED_SUBCLASS + "no file-open completion is ever posted "
              "(rt.FileOpenEvent went with it)",
        "O6": _DELETED_SUBCLASS + "its O6 from_cache field was never set",
    },
    "FileReadEvent": {
        "O4": _DELETED_SUBCLASS + "AsyncFileIO posts rt.FileReadEvent, "
              "never the generated class",
        "O6": _DELETED_SUBCLASS + "its O6 from_cache field was never set",
    },
    "Handle": {
        "O1": _DELETED_SUBCLASS + "at O1=2N its io_lock serialised sends "
              "the connection strand already serialises; accepted "
              "sockets are rt.SocketHandle",
    },
    "FileHandle": {
        "O4": _DELETED_SUBCLASS + "nothing named it; the file cache opens "
              "rt.FileHandle",
        "O6": _DELETED_SUBCLASS + "nothing called its O6 cache_key",
    },
    "ReadRequestEventHandler": {
        "O11": "the events_handled counter was never read",
    },
    "SendReplyEventHandler": {
        "O11": "the events_handled counter was never read",
    },
    "ServerComponent": {
        "O3": "the pipeline_steps field was never read "
              "(Server.pipeline keeps the step list)",
    },
    "ClientComponent": {
        "O3": "the pipeline_steps field was never read",
    },
    "ConnectorEventHandler": {
        "O11": "the connections_established counter was never read",
    },
    "ContainerComponent": {
        "O11": "the peak_connections field was only read by its own update",
    },
    "ApplicationEventHandler": {
        "O11": "the events_handled counter was never read",
    },
    "ClientConfiguration": {
        "O3": "the uses_codec field was never read",
        "O10": "the trace_connects field was never read",
    },
}

#: Rows (and extra cells) this reproduction adds beyond the paper's
#: table: the Observability component exists iff O11 and its body
#: depends on which subsystems there are to probe; the Server
#: Component arms the sampling timer and the Server Configuration
#: carries its period, so both gain an O11 ``+``.  The O13
#: fault-tolerance extension adds the Resilience row (exists iff O13;
#: body depends on the pool it supervises, the counters it registers
#: and the log it writes) and '+' cells where the option weaves in:
#: the accept loop, the configuration's tuning block, the Reactor's
#: construction/lifecycle/drain and the Server's drain facade.
#: The O17 graceful-degradation extension adds the Degradation row
#: (exists iff O17; its body depends on no other option) and '+' cells
#: where the plane weaves in: the Reactor builds the component (and
#: breaks the file I/O through it), the accept loop swaps silent
#: postponement for explicit shedding, the configuration carries the
#: tuning block and the Observability wire probes shed totals and
#: breaker state.
#: The O16 multi-process deployment extension adds the Deployment row
#: (exists iff O16>1; body depends on O11 — cluster-wide aggregated
#: status fields — and O13, the cross-process drain barrier) and the
#: Worker row (exists iff O16>1; body depends on O11 and O13), and
#: '+' cells where the option weaves in: the Server facade delegates
#: to the Deployment component (and gains the rolling-restart facade),
#: the Server Component adopts the shared SO_REUSEPORT listen socket,
#: the configuration carries the worker deadlines and respawn budget,
#: and the Observability status report aggregates across worker
#: processes through the supervisor.
TABLE2_EXTENSIONS = {
    "Observability": {"O2": "+", "O9": "+", "O10": "+", "O11": "O",
                      "O16": "+", "O17": "+"},
    "ServerComponent": {"O11": "+", "O16": "+"},
    "ServerConfiguration": {"O11": "+", "O13": "+", "O16": "+",
                            "O17": "+"},
    "Resilience": {"O2": "+", "O11": "+", "O12": "+", "O13": "O"},
    "Reactor": {"O13": "+", "O17": "+"},
    "AcceptorEventHandler": {"O13": "+", "O17": "+"},
    "Server": {"O13": "+", "O16": "+"},
    "Degradation": {"O17": "O"},
    "Deployment": {"O11": "+", "O13": "+", "O16": "O"},
    "Worker": {"O11": "+", "O13": "+", "O16": "O"},
}


def _expected(paper, divergences, extensions):
    merged = {name: {key: cell for key, cell in row.items()
                     if key not in divergences.get(name, {})}
              for name, row in paper.items()}
    for name, row in extensions.items():
        merged.setdefault(name, {}).update(row)
    return {name: row for name, row in merged.items() if row}


#: What the generator must actually produce: paper − divergences +
#: extensions (rows left without a cell are dropped).
EXPECTED_TABLE2 = _expected(PAPER_TABLE2, TABLE2_DIVERGENCES,
                            TABLE2_EXTENSIONS)
