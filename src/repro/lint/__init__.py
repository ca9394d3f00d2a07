"""Concurrency correctness plane for the N-Server reproduction.

The paper's pitch is that generated servers are *correct by
construction*: only option-selected code exists, so there are no
untested feature interactions.  This package checks the parts of that
claim the Table 2 toggle-diff cannot reach, with three cooperating
analyses:

* :mod:`repro.lint.locks` — an Eraser-style **lockset race detector**.
  A :class:`~repro.lint.locks.TrackedLock` shim plus
  :func:`~repro.lint.locks.shared` / :func:`~repro.lint.locks.access`
  annotations instrument the hot shared structures (metrics registry
  counters, buffer-pool free lists, the Event Processor worker table,
  shard placement state, the event quarantine).  While a
  :class:`~repro.lint.detector.RaceDetector` is installed, every annotated
  field access refines the intersection of locksets held across
  threads; an empty intersection on a shared-modified field is a
  candidate race, reported with both access stacks.

* :mod:`repro.lint.blocking` — a **reactor blocking-call lint**: an AST
  pass over ``repro.runtime`` / ``repro.servers`` that flags blocking
  primitives (``time.sleep``, blocking ``socket.*`` constructors, bare
  ``open``) reachable from reactor-loop callbacks — the event-driven
  analogue of "no syscalls on the hot path".

* :mod:`repro.lint.auditor` — a **generated-code auditor** that renders
  and imports option-matrix corners of the N-Server template and checks
  invariants per emitted framework: every module compiles and imports,
  no module references a class a disabled option removed, no
  option-guard fragment leaves a constant-condition dead branch, and
  the AST-derived Table 2 crosscut matrix equals the declared one.

Intentional findings are recorded in the repository's
``lint-baseline.toml`` with one-line justifications
(:mod:`repro.lint.baseline`).  ``python -m repro.lint`` runs the static
analyses plus a docstring-coverage ratchet and exits non-zero on any
unsuppressed finding; the race detector activates over the tier-1 test
suite via the ``race_detector`` fixture (``REPRO_RACE_DETECTOR=1``).

This ``__init__`` is a lazy façade on purpose: the runtime imports
:mod:`repro.lint.locks` on its hot paths, and pulling the auditor (and
with it the whole generator) into that import would be a layering
inversion.  Import the analysis modules directly.
"""

from repro import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, globals(), {
    "detector": ("RaceCandidate", "RaceDetector"),
    "findings": ("Finding", "render_findings"),
    "locks": ("TrackedLock", "access", "active_detector", "make_lock", "shared"),
})
