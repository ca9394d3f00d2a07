"""``python -m repro.lint`` — the correctness plane's CLI.

Subcommands:

* *(none)* / ``check`` — the CI gate: blocking-call lint over the
  shipped tree, the span-usage and write-path ownership lints, the
  generated-code audit sweep (every option), the Table 2 crosscut
  three-way check, and the docstring ratchet.  Exits
  1 when any finding survives the baseline.
* ``blocking [PATH...]`` — the reactor lint alone, optionally over
  explicit paths (the seeded fixtures use this: a path with a known
  blocking call must exit non-zero).
* ``race SCENARIO.py`` — import a scenario file and run its ``run()``
  under an installed :class:`~repro.lint.locks.RaceDetector`; exits 1
  when candidate races survive the baseline.
* ``audit`` — the generated-code audit sweep alone.
* ``spans [PATH...]`` — the span-usage lint alone: every ``.stage(``
  call must be a ``with`` context expression.
* ``docstrings [PATH...]`` — the coverage ratchet alone.

The baseline (``lint-baseline.toml`` at the repository root) applies
everywhere unless ``--no-baseline`` is given; suppressed findings are
listed with their justification under ``--verbose``.
"""

from __future__ import annotations

import argparse
import importlib.util
import os
import sys
from typing import List, Optional

from repro.lint.baseline import Baseline, find_baseline, load_baseline
from repro.lint.blocking import lint_paths
from repro.lint.findings import Finding, render_findings, split_suppressed
from repro.lint.docstrings import coverage_findings
from repro.lint.ownership import ownership_findings
from repro.lint.spans import span_findings

#: the default docstring ratchet; raise when coverage grows
DOCSTRING_RATCHET = 70.0


def _src_root() -> str:
    """The directory containing the ``repro`` package."""
    return os.path.dirname(os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))))


def _docstring_paths() -> List[str]:
    """The gated trees: the correctness plane and the runtime."""
    repro = os.path.join(_src_root(), "repro")
    return [os.path.join(repro, "lint"), os.path.join(repro, "runtime")]


def _resolve_baseline(args) -> Optional[Baseline]:
    """The baseline the flags select: explicit path, discovered, or none."""
    if getattr(args, "no_baseline", False):
        return None
    if getattr(args, "baseline", None):
        return load_baseline(args.baseline)
    return find_baseline()


def _report(findings: List[Finding], baseline: Optional[Baseline],
            verbose: bool, title: str) -> int:
    """Print the split report; the exit code is the live-finding count."""
    live, quiet = split_suppressed(findings, baseline)
    print(render_findings(live, title=title))
    if verbose and quiet:
        print(f"\n{len(quiet)} finding(s) suppressed by "
              f"{baseline.path if baseline else 'baseline'}:")
        for finding in quiet:
            reason = baseline.reason_for(finding.ident) if baseline else ""
            print(f"  {finding.ident}: {reason}")
    return 1 if live else 0


def _run_race_scenario(path: str, entry: str) -> List[Finding]:
    """Import a scenario file and execute ``entry()`` under a detector."""
    from repro.lint.locks import RaceDetector

    spec = importlib.util.spec_from_file_location("repro_lint_scenario", path)
    if spec is None or spec.loader is None:
        raise SystemExit(f"cannot load scenario {path}")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    func = getattr(module, entry, None)
    if func is None:
        raise SystemExit(f"scenario {path} has no {entry}() entry point")
    detector = RaceDetector()
    with detector.detecting():
        func()
    return detector.findings()


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--baseline", help="explicit lint-baseline.toml path")
    common.add_argument("--no-baseline", action="store_true",
                        help="report every finding, suppressing nothing")
    common.add_argument("--verbose", "-v", action="store_true",
                        help="also list suppressed findings with reasons")
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        parents=[common],
        description="concurrency correctness plane: race detector, "
                    "reactor lint, generated-code auditor")
    sub = parser.add_subparsers(dest="command")

    sub.add_parser("check", parents=[common],
                   help="every static analysis (the CI gate)")

    p_blocking = sub.add_parser("blocking", parents=[common],
                                help="reactor blocking-call lint")
    p_blocking.add_argument("paths", nargs="*",
                            help="files/dirs to scan (default: shipped tree)")

    p_race = sub.add_parser("race", parents=[common],
                            help="run a scenario under the race detector")
    p_race.add_argument("scenario", help="python file with a run() entry")
    p_race.add_argument("--entry", default="run",
                        help="entry-point function name (default: run)")

    p_audit = sub.add_parser("audit", parents=[common], help="generated-code audit sweep")
    p_audit.add_argument("--no-import", action="store_true",
                         help="skip the import check (render-only, faster)")

    p_spans = sub.add_parser("spans", parents=[common],
                             help="span-usage lint (.stage must be a "
                                  "with context expression)")
    p_spans.add_argument("paths", nargs="*",
                         help="files/dirs to scan (default: shipped tree)")

    p_doc = sub.add_parser("docstrings", parents=[common], help="docstring-coverage ratchet")
    p_doc.add_argument("paths", nargs="*",
                       help="trees to measure (default: lint + runtime)")
    p_doc.add_argument("--fail-under", type=float, default=DOCSTRING_RATCHET,
                       help=f"minimum percent (default {DOCSTRING_RATCHET})")

    args = parser.parse_args(argv)
    baseline = _resolve_baseline(args)
    command = args.command or "check"

    if command == "blocking":
        findings = lint_paths(args.paths or None)
        return _report(findings, baseline, args.verbose,
                       "reactor blocking-call lint")

    if command == "race":
        findings = _run_race_scenario(args.scenario, args.entry)
        return _report(findings, baseline, args.verbose,
                       f"race detector over {args.scenario}")

    if command == "audit":
        from repro.lint.auditor import audit_suite, crosscut_findings
        findings = audit_suite(import_check=not args.no_import)
        findings += crosscut_findings()
        return _report(findings, baseline, args.verbose,
                       "generated-code audit")

    if command == "spans":
        findings = span_findings(args.paths or None)
        return _report(findings, baseline, args.verbose,
                       "span-usage lint")

    if command == "docstrings":
        report, findings = coverage_findings(
            args.paths or _docstring_paths(), args.fail_under)
        print(f"docstring coverage: {report.percent:.1f}% "
              f"({report.documented}/{report.total})")
        return _report(findings, baseline, args.verbose, "docstring ratchet")

    # default: the full gate
    from repro.lint.auditor import audit_suite, crosscut_findings
    failures = 0
    failures += _report(lint_paths(), baseline, args.verbose,
                        "reactor blocking-call lint")
    print()
    failures += _report(span_findings(), baseline, args.verbose,
                        "span-usage lint")
    print()
    failures += _report(ownership_findings(), baseline, args.verbose,
                        "write-path ownership lint")
    print()
    failures += _report(audit_suite() + crosscut_findings(), baseline,
                        args.verbose, "generated-code audit")
    print()
    report, doc_findings = coverage_findings(_docstring_paths(),
                                             DOCSTRING_RATCHET)
    print(f"docstring coverage: {report.percent:.1f}% "
          f"({report.documented}/{report.total})")
    failures += _report(doc_findings, baseline, args.verbose,
                        "docstring ratchet")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
