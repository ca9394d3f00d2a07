"""Model-based conformance plane (ROADMAP: "model-based conformance
testing").

The paper's claim is that every option-matrix corner of the generated
N-Server behaves correctly by construction.  The lint plane (PR 6)
audits *code shape*; this plane checks *wire semantics*: an executable
model of the COPS-HTTP protocol behaviour (:mod:`repro.conform.model`)
is replayed differentially against real generated servers across a
sweep of option corners (:mod:`repro.conform.checker`), driven by
seeded, fault-injected client sessions
(:mod:`repro.conform.sessions`).

The model is deliberately *loose* where the spec is loose: tolerated
freedoms (header order, Date/Server values, 503 + ``Retry-After`` under
shed, cut-short streams under injected faults) are explicit equivalence
rules, not byte equality.  Divergences carry stable idents and can be
justified in ``conform-baseline.toml`` — the same suppress-with-reason
workflow as the lint plane.  ``python -m repro.conform`` runs the sweep.
"""

from repro.conform.model import (
    Expectation,
    Freedoms,
    ModelOptions,
    ModelVFS,
    ParsedResponse,
    expected_exchanges,
    parse_responses,
)
from repro.conform.sessions import (
    Session,
    Step,
    directed_sessions,
    generate_sessions,
)
from repro.conform.checker import (
    Corner,
    Divergence,
    check_session,
    corner_matrix,
    run_corner,
    shrink_session,
)

__all__ = [
    "Corner",
    "Divergence",
    "Expectation",
    "Freedoms",
    "ModelOptions",
    "ModelVFS",
    "ParsedResponse",
    "Session",
    "Step",
    "check_session",
    "corner_matrix",
    "directed_sessions",
    "expected_exchanges",
    "generate_sessions",
    "parse_responses",
    "run_corner",
    "shrink_session",
]
