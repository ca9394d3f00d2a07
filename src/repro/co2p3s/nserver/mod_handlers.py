"""N-Server template: the ``handlers`` module — the five-step request
cycle of Fig 1 (Read Request, Decode Request, Handle Request, Encode
Reply, Send Reply).

Table 2 rows covered:

==============================  ======================================
Read Request Event Handler      O7 O10 O12 alter the body
Send Reply Event Handler        O7 O10 O12
Decode Request Event Handler    exists iff O3; O7 O8 O10 O12
Encode Reply Event Handler      exists iff O3; O7 O8 O10 O12
Compute Request Event Handler   O3 O4 O7 O8 O10 O12
==============================  ======================================

Read Request and Send Reply are the two steps the paper calls "almost
the same across different network server applications" — fully
generated; Decode/Handle/Encode wrap the programmer's hook methods.
"""

from __future__ import annotations

from repro.co2p3s.codegen import ClassSpec, Fragment, ModuleSpec
from repro.co2p3s.nserver.options import (
    enabled,
    disabled,
    debug_mode,
    async_io,
    sync_io,
)

__all__ = ["MODULE_HANDLERS"]


def _io_handler(name: str, step: str, conn_method: str) -> ClassSpec:
    """ReadRequestEventHandler / SendReplyEventHandler share a shape."""
    return ClassSpec(
        name=name,
        doc=f"Generic {step} step of the request cycle (Fig 1).",
        fragments=[
            Fragment(
                f'''
                def __init__(self, reactor):
                    self.reactor = reactor
                '''
            ),
            Fragment(
                f'''
                def handle(self, event):
                    conn = self.reactor.container.lookup(event.handle)
                    if conn is None:
                        return
                    $trace_{step.lower().replace(" ", "_")}
                    $log_{step.lower().replace(" ", "_")}
                    conn.{conn_method}(event)
                    $touch_{step.lower().replace(" ", "_")}
                ''',
                options=("O7", "O10", "O12"),
            ),
        ],
    )


# The $-parameters above expand to instrumentation lines or removal
# markers; see context.py.  Using substitutions (rather than separate
# fragments) keeps the generated method a single coherent block, exactly
# the kind of crosscutting weave the paper motivates the template
# approach with.


MODULE_HANDLERS = ModuleSpec(
    name="handlers",
    doc="Request-cycle step handlers generated by the N-Server template.",
    imports=[
        Fragment("from repro.runtime import CLOSE, PENDING"),
    ],
    epilogue=[
        Fragment(
            '''
            def install_step_handlers(reactor):
                """Instantiate the generated step handlers on a reactor
                (five-step cycle, Fig 1)."""
                reactor.read_request_event_handler = ReadRequestEventHandler(reactor)
                reactor.send_reply_event_handler = SendReplyEventHandler(reactor)
                reactor.compute_request_event_handler = ComputeRequestEventHandler(reactor)
                reactor.decode_request_event_handler = DecodeRequestEventHandler(reactor)
                reactor.encode_reply_event_handler = EncodeReplyEventHandler(reactor)
            ''',
            guard=enabled("O3"), options=("O3",),
        ),
        Fragment(
            '''
            def install_step_handlers(reactor):
                """Instantiate the generated step handlers on a reactor
                (three-step cycle, Fig 2: no encode/decode)."""
                reactor.read_request_event_handler = ReadRequestEventHandler(reactor)
                reactor.send_reply_event_handler = SendReplyEventHandler(reactor)
                reactor.compute_request_event_handler = ComputeRequestEventHandler(reactor)
            ''',
            guard=disabled("O3"), options=("O3",),
        ),
    ],
    classes=[
        _io_handler("ReadRequestEventHandler", "Read Request", "on_readable"),
        _io_handler("SendReplyEventHandler", "Send Reply", "on_writable"),
        ClassSpec(
            name="DecodeRequestEventHandler",
            doc="Decode Request step: wraps the application's decode hook.",
            exists=enabled("O3"),
            exists_options=("O3",),
            fragments=[
                Fragment(
                    '''
                    def __init__(self, reactor):
                        self.reactor = reactor
                    '''
                ),
                Fragment(
                    '''
                    def handle(self, raw, conn):
                        $trace_decode
                        $log_decode
                        $touch_decode
                        request = conn.hooks.decode(raw, conn)
                        $reclassify_priority
                        return request
                    ''',
                    options=("O7", "O8", "O10", "O12"),
                ),
            ],
        ),
        ClassSpec(
            name="EncodeReplyEventHandler",
            doc="Encode Reply step: wraps the application's encode hook.",
            exists=enabled("O3"),
            exists_options=("O3",),
            fragments=[
                Fragment(
                    '''
                    def __init__(self, reactor):
                        self.reactor = reactor
                    '''
                ),
                Fragment(
                    '''
                    def handle(self, result, conn):
                        $trace_encode
                        $log_encode
                        $touch_encode
                        data = conn.hooks.encode(result, conn)
                        $stamp_write_priority
                        return data
                    ''',
                    options=("O7", "O8", "O10", "O12"),
                ),
            ],
        ),
        ClassSpec(
            name="ComputeRequestEventHandler",
            doc="Handle Request step: runs the application's handle hook "
                "and provides the framework's file-access service.",
            fragments=[
                Fragment(
                    '''
                    def __init__(self, reactor):
                        self.reactor = reactor
                    '''
                ),
                Fragment(
                    '''
                    def handle(self, request, conn):
                        $trace_compute
                        $log_compute
                        $touch_compute
                        result = conn.hooks.handle(request, conn)
                        $compute_reclassify
                        $compute_result_check
                        return result
                    ''',
                    options=("O3", "O7", "O8", "O10", "O12"),
                ),
                Fragment(
                    '''
                    def read_file(self, path, act, priority=0):
                        """Asynchronous file access: the result arrives as a
                        FileReadEvent completion routed through the reactive
                        event path (Proactor/ACT emulation)."""
                        self.reactor.read_file_async(path, act, priority)
                    ''',
                    guard=async_io, options=("O4",),
                ),
                Fragment(
                    '''
                    def read_file(self, path):
                        """Synchronous file access: blocks the calling
                        processor thread (option O4=Synchronous)."""
                        return self.reactor.read_file_sync(path)
                    ''',
                    guard=sync_io, options=("O4",),
                ),
            ],
        ),
    ],
)
