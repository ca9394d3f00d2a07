"""N-Server template: the ``buffers`` module (option O15).

Third structural extension, following O13: when O15=zerocopy the
template generates a ``Buffers`` component that owns the reactor's
size-classed header :class:`~repro.runtime.buffers.BufferPool` and
vends the segmented :class:`~repro.runtime.buffers.OutBuffer` every
accepted connection drains with scatter-gather sends.  When
O15=buffered the module is not emitted and no buffer call site appears
anywhere in the generated framework — the copying write path is the
paper's shape, untouched.

Table 2 extension row:

=======  ========================================================
Buffers  exists iff O15=zerocopy; the body is option-independent
         (pool geometry comes from the ServerConfiguration knobs)
=======  ========================================================
"""

from __future__ import annotations

from repro.co2p3s.codegen import ClassSpec, Fragment, ModuleSpec

__all__ = ["MODULE_BUFFERS"]


def _zerocopy(o):
    return o["O15"] == "zerocopy"


MODULE_BUFFERS = ModuleSpec(
    name="buffers",
    doc="Zero-copy write path generated by option O15: a shared "
        "size-classed header buffer pool plus segmented scatter-gather "
        "out-buffers per connection.",
    imports=[
        Fragment("from repro import runtime as rt"),
    ],
    classes=[
        ClassSpec(
            name="Buffers",
            doc="Owns the write-path buffers: one header pool per "
                "reactor, and an OutBuffer factory for accepted "
                "handles.",
            exists=_zerocopy,
            exists_options=("O15",),
            fragments=[
                Fragment(
                    '''
                    def __init__(self, reactor):
                        self.reactor = reactor
                        configuration = reactor.configuration
                        self.pool = rt.BufferPool(
                            classes=configuration.buffer_size_classes,
                            per_class=configuration.buffer_pool_limit)

                    def make_out_buffer(self):
                        return rt.OutBuffer()
                    '''
                ),
            ],
        ),
    ],
)
