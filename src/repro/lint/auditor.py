"""Generated-code auditor: mechanical checks over the emitted frameworks.

The Table 2 toggle-diff verifies that the declared option/class
dependencies match what codegen produces, but it compares *text* and
says nothing about whether the output is a well-formed framework.  The
auditor closes that gap with four invariants, checked per option
configuration:

1. **compiles + imports** — every emitted module byte-compiles, and the
   package as a whole imports against the runtime (a broken import in a
   rarely used corner is exactly the class of bug generators breed);
2. **no dangling references** — no emitted module mentions a class that
   a disabled option removed (the paper's "only option-selected code
   exists", enforced at the identifier level via AST);
3. **no dead branches** — generated code must never test options at
   runtime, so a constant-condition ``if``/``while`` or any reference
   to ``GENERATED_OPTIONS`` outside ``__init__`` means an option guard
   leaked a decidable branch into the output;
4. **declared == AST-derived crosscut** — the Table 2 matrix computed
   by toggling options and diffing *ASTs* (structure, not text) must
   match the template's declared fragment metadata and the checked-in
   :data:`~repro.co2p3s.nserver.table2.EXPECTED_TABLE2`.

:func:`audit_suite` sweeps a configuration set that exercises all 16
options: the shipped presets plus every single-option toggle from the
three crosscut bases.
"""

from __future__ import annotations

import ast
import os
import re
import shutil
import sys
import tempfile
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from repro.co2p3s.crosscut import declared_matrix, empirical_matrix
from repro.co2p3s.nserver import NSERVER
from repro.co2p3s.nserver.options import (
    ALL_FEATURES_ON,
    COPS_FTP_OPTIONS,
    COPS_HTTP_OPTIONS,
    COPS_HTTP_DEGRADATION_OPTIONS,
    COPS_HTTP_RESILIENCE_OPTIONS,
    DEPLOYMENT_TOGGLE_BASE,
    POOL_TOGGLE_BASE,
)
from repro.co2p3s.nserver.table2 import EXPECTED_TABLE2
from repro.co2p3s.template import load_generated_package
from repro.lint.findings import Finding
from repro.lint.spans import stage_misuses

__all__ = [
    "audit_config",
    "audit_report",
    "audit_suite",
    "class_universe",
    "crosscut_findings",
    "suite_configs",
]

_universe_cache: Optional[Set[str]] = None


def class_universe() -> Set[str]:
    """Every class the template can emit (rendered at all-features-on).

    This is the reference set the dangling-reference check subtracts
    the per-configuration emitted classes from.
    """
    global _universe_cache
    if _universe_cache is None:
        opts = NSERVER.configure(ALL_FEATURES_ON)
        report = NSERVER.render(opts, package="universe")
        _universe_cache = set(report.class_names())
    return _universe_cache


def _module_names(tree: ast.AST) -> Set[str]:
    """Every identifier a module mentions (names and attribute names)."""
    names: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.split(".")[-1])
    return names


def _constant_branches(tree: ast.AST) -> List[Tuple[int, str]]:
    """(lineno, description) for every trivially decidable branch."""
    hits: List[Tuple[int, str]] = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.If, ast.While)):
            test = node.test
            if isinstance(test, ast.Constant):
                # ``while True:`` is the event-loop idiom, not a
                # decidable branch; everything else constant is dead
                # code one way or the other.
                if isinstance(node, ast.While) and bool(test.value):
                    continue
                hits.append((node.lineno,
                             f"constant condition {test.value!r}"))
            elif (isinstance(test, ast.Compare)
                  and isinstance(test.left, ast.Constant)
                  and all(isinstance(c, ast.Constant)
                          for c in test.comparators)):
                hits.append((node.lineno, "comparison of constants"))
    return hits


#: observability vocabulary that must not survive into an O11=No build:
#: spans, exporters, exemplars, trace ids and flight-recorder hookups all
#: belong to the tracing tentpole, whose generated call sites exist only
#: when option O11 is on.  (``flight`` alone would false-positive on the
#: ordinary phrase "in-flight", hence the targeted forms.)
_O11_FORBIDDEN = re.compile(
    r"trace_id|trace_report|exporter|exemplar|\bspans?\b"
    r"|FlightRecorder|flight_|\.flight\b",
    re.IGNORECASE)

#: degradation vocabulary that must not survive into an O17=No build:
#: the shedding policy, rate limiter, brownout, breaker, retry budget,
#: sojourn queue and adaptive controller all belong to the degradation
#: tentpole, whose generated call sites exist only when O17 is on.
#: (bare ``shed``/``sheds`` would false-positive on the resilience
#: module's prose — "sheds the poisoned event" — hence the targeted
#: forms.)
_O17_FORBIDDEN = re.compile(
    r"degradation|\bshedding\b|\bshed_|ShedDecision|brownout"
    r"|\bbreaker|RetryBudget|retry_budget|sojourn|rate_limit"
    r"|RateLimiter|TokenBucket|rejection_response|retry_after"
    r"|AdaptiveController|\badaptive_|hill_climb",
    re.IGNORECASE)

#: multi-process deployment vocabulary that must not survive into an
#: O16=1 build: the process supervisor, worker-socket adoption, rolling
#: restarts, the respawn budget and the cross-process stats plane all
#: belong to the deployment tentpole, whose generated call sites exist
#: only when O16>1.  (The bare word "supervisor" would false-positive
#: on O13's in-process WorkerSupervisor prose, and bare "worker" on the
#: Event Processor's worker threads, hence the targeted forms.)
_O16_FORBIDDEN = re.compile(
    r"ProcessSupervisor|generated_worker|worker_listen|rolling_restart"
    r"|cluster_status|adopted_listen|in_worker_process|multi.?process"
    r"|\bprocs\b|worker_ready_timeout|worker_drain_timeout|respawn"
    r"|\bdeployment\b|stats.?socket|REUSEPORT",
    re.IGNORECASE)

#: fault-tolerance vocabulary that must not survive into an O13=No
#: build: the safe accept, deadline monitor, worker supervisor, event
#: quarantine and the timeouts and backoff they enforce all belong to
#: the resilience plane, whose generated call sites exist only when O13
#: is on.  (Bare ``drain``, ``supervisor`` and ``deadline`` would
#: false-positive on O16>1's graceful drain and process supervisor and
#: on O17's sojourn deadline, hence the targeted forms.)
_O13_FORBIDDEN = re.compile(
    r"resilien|safe_accept|DeadlineMonitor|DeadlinePolicy"
    r"|WorkerSupervisor|quarantin|quiescent|header_timeout"
    r"|request_timeout|write_timeout|accept_backoff|max_event_retries"
    r"|supervision_interval|deadline_interval",
    re.IGNORECASE)


#: one row per option with a residue vocabulary: (option key, the off
#: setting as messages name it, "is off" predicate, forbidden
#: vocabulary, message noun).  A build whose options set the key to an
#: off value must not mention the vocabulary outside ``__init__.py``
#: (which records every option, the disabled ones too); a missing key
#: means no scan.
_PURITY = (
    ("O11", "No", lambda value: not value, _O11_FORBIDDEN, "observability"),
    ("O13", "No", lambda value: not value, _O13_FORBIDDEN,
     "fault-tolerance plane"),
    ("O16", "1", lambda value: int(value) == 1, _O16_FORBIDDEN,
     "deployment plane"),
    ("O17", "No", lambda value: not value, _O17_FORBIDDEN,
     "degradation plane"),
)


def _purity_checks(options) -> List[Tuple[str, str, re.Pattern, str]]:
    """The :data:`_PURITY` rows (minus the predicate) whose option is
    off in ``options`` — a full OptionSet, a plain dict or a stub."""
    if options is None:
        return []
    values = options.as_dict() if hasattr(options, "as_dict") else options
    return [(key, off, forbidden, noun)
            for key, off, is_off, forbidden, noun in _PURITY
            if key in values and is_off(values[key])]


def audit_report(report, label: str,
                 options: Optional[Mapping[str, object]] = None
                 ) -> List[Finding]:
    """Static checks over one in-memory :class:`GenerationReport`.

    When the rendering ``options`` are supplied, every option that is
    off and has a row in :data:`_PURITY` has its vocabulary scanned for
    in the emitted text — the generated-not-configured contract means a
    disabled option leaves *zero* residue, down to the identifier level.
    """
    findings: List[Finding] = []
    emitted = set(report.class_names())
    absent = class_universe() - emitted
    purity = _purity_checks(options)
    for filename, text in sorted(report.files.items()):
        where = f"{label}/{filename}"
        scans = purity if filename != "__init__.py" else ()
        for key, off, forbidden, noun in scans:
            match = forbidden.search(text)
            if match is not None:
                findings.append(Finding(
                    kind="audit",
                    ident=f"audit:{key.lower()}-purity:{filename}",
                    location=where,
                    message=(f"{key}={off} build mentions {match.group(0)!r}"
                             f" — disabled {noun} left residue"),
                ))
        try:
            tree = ast.parse(text, filename=where)
            compile(text, where, "exec")
        except SyntaxError as exc:
            findings.append(Finding(
                kind="audit",
                ident=f"audit:compile:{filename}",
                location=f"{where}:{exc.lineno}",
                message=f"emitted module does not compile: {exc.msg}",
            ))
            continue
        mentioned = _module_names(tree)
        for name in sorted(mentioned & absent):
            findings.append(Finding(
                kind="audit",
                ident=f"audit:dangling:{filename}:{name}",
                location=where,
                message=(f"references {name}, which the current options "
                         f"do not generate"),
            ))
        if filename != "__init__.py" and "GENERATED_OPTIONS" in mentioned:
            findings.append(Finding(
                kind="audit",
                ident=f"audit:options-at-runtime:{filename}",
                location=where,
                message=("consults GENERATED_OPTIONS at runtime — options "
                         "must be resolved at generation time"),
            ))
        for lineno, description in _constant_branches(tree):
            findings.append(Finding(
                kind="audit",
                ident=f"audit:dead-branch:{filename}:{lineno}",
                location=f"{where}:{lineno}",
                message=f"option guard left a dead branch: {description}",
            ))
        for lineno, call in stage_misuses(tree):
            findings.append(Finding(
                kind="audit",
                ident=f"audit:span-stage:{filename}:{call}",
                location=f"{where}:{lineno}",
                message=(f"{call}(...) called outside a with statement — "
                         f"the stage-exit timestamp is never recorded"),
            ))
    return findings


def audit_config(options: Mapping[str, object], label: str,
                 import_check: bool = True) -> List[Finding]:
    """Render one configuration and run every per-framework invariant.

    With ``import_check`` the framework is also written to a temporary
    directory and actually imported against the runtime — the strongest
    form of "the emitted code is a working package".
    """
    opts = NSERVER.configure(options)
    package = f"audit_{abs(hash(label)) % 10 ** 8:08d}"
    report = NSERVER.render(opts, package=package)
    findings = audit_report(report, label, options=opts)
    if import_check and not findings:
        dest = tempfile.mkdtemp(prefix="repro-lint-audit-")
        try:
            NSERVER.generate(opts, dest, package=package)
            module = load_generated_package(dest, package)
            for required in ("Server", "ServerConfiguration", "ServerHooks"):
                if not hasattr(module, required):
                    findings.append(Finding(
                        kind="audit",
                        ident=f"audit:surface:{required}",
                        location=label,
                        message=f"imported framework lacks {required}",
                    ))
            recorded = getattr(module, "GENERATED_OPTIONS", None)
            if recorded != opts.as_dict():
                findings.append(Finding(
                    kind="audit",
                    ident="audit:options-record",
                    location=label,
                    message=("GENERATED_OPTIONS does not round-trip the "
                             "requested option settings"),
                ))
        except Exception as exc:  # noqa: BLE001 - any import failure is the finding
            findings.append(Finding(
                kind="audit",
                ident=f"audit:import:{label}",
                location=label,
                message=f"generated framework failed to import: {exc!r}",
            ))
        finally:
            for mod_name in list(sys.modules):
                if mod_name == package or mod_name.startswith(package + "."):
                    del sys.modules[mod_name]
            if dest in sys.path:
                sys.path.remove(dest)
            shutil.rmtree(dest, ignore_errors=True)
    return findings


def suite_configs() -> List[Tuple[str, Dict[str, object]]]:
    """(label, options) pairs exercising every template option.

    The shipped presets cover the paper's configurations; on top, each
    option is toggled through each of its non-base legal values from
    the three crosscut bases, skipping combinations the template's own
    constraints reject.
    """
    configs: List[Tuple[str, Dict[str, object]]] = [
        ("cops-ftp", dict(COPS_FTP_OPTIONS)),
        ("cops-http", dict(COPS_HTTP_OPTIONS)),
        ("cops-http-resilient", dict(COPS_HTTP_RESILIENCE_OPTIONS)),
        ("cops-http-degradation", dict(COPS_HTTP_DEGRADATION_OPTIONS)),
        ("all-features-on", dict(ALL_FEATURES_ON)),
        ("pool-toggle-base", dict(POOL_TOGGLE_BASE)),
        ("deployment-toggle-base", dict(DEPLOYMENT_TOGGLE_BASE)),
    ]
    seen = {tuple(sorted(c.items())) for _l, c in configs}
    for base_label, base in (("all-on", ALL_FEATURES_ON),
                             ("pool-base", POOL_TOGGLE_BASE),
                             ("deployment-base", DEPLOYMENT_TOGGLE_BASE)):
        base_opts = NSERVER.configure(base)
        for spec in base_opts.specs:
            for value in spec.values or ():
                if value == base_opts[spec.key]:
                    continue
                candidate = dict(base, **{spec.key: value})
                try:
                    NSERVER.validate(NSERVER.configure(candidate))
                except Exception:
                    continue
                key = tuple(sorted(candidate.items()))
                if key in seen:
                    continue
                seen.add(key)
                configs.append(
                    (f"{base_label}-{spec.key}={value}", candidate))
    return configs


def audit_suite(configs: Optional[Sequence[Tuple[str, Mapping[str, object]]]]
                = None, import_check: bool = True) -> List[Finding]:
    """Audit every configuration in the suite (default: full sweep)."""
    findings: List[Finding] = []
    for label, options in (configs if configs is not None
                           else suite_configs()):
        findings.extend(audit_config(options, label,
                                     import_check=import_check))
    return findings


def _ast_canon(source: str) -> str:
    """Class source -> AST dump: diffing structure instead of text."""
    return ast.dump(ast.parse(source))


def crosscut_findings() -> List[Finding]:
    """Declared vs AST-derived vs checked-in Table 2, as findings.

    Three-way agreement: the fragment metadata (declared), the
    toggle-and-diff over ASTs (derived), and the literal table the
    repository documents (:data:`EXPECTED_TABLE2`).
    """
    findings: List[Finding] = []
    derived = empirical_matrix(NSERVER, ALL_FEATURES_ON,
                               extra_bases=(POOL_TOGGLE_BASE,
                                            DEPLOYMENT_TOGGLE_BASE),
                               canon=_ast_canon)
    declared = declared_matrix(NSERVER, ALL_FEATURES_ON)
    for name, key, derived_cell, declared_cell in derived.differences(declared):
        findings.append(Finding(
            kind="audit",
            ident=f"audit:crosscut-declared:{name}:{key}",
            location=f"Table2[{name}][{key}]",
            message=(f"AST-derived crosscut {derived_cell or 'blank'!s} "
                     f"!= declared {declared_cell or 'blank'!s}"),
        ))
    for name in derived.class_names:
        expected_row = EXPECTED_TABLE2.get(name, {})
        for key in derived.option_keys:
            got = derived.cell(name, key)
            want = expected_row.get(key, "")
            if got != want:
                findings.append(Finding(
                    kind="audit",
                    ident=f"audit:crosscut-table:{name}:{key}",
                    location=f"Table2[{name}][{key}]",
                    message=(f"AST-derived crosscut {got or 'blank'!s} != "
                             f"checked-in Table 2 {want or 'blank'!s}"),
                ))
    return findings
