"""``python -m repro.bench`` — the continuous-benchmark runner and gate.

Runs the registered bench suites (all of them by default), writes each
result as ``BENCH_<name>.json`` at the repository root, and fails when
a run regresses against the committed baseline:

* ``--smoke`` — shrunk workloads (the CI gate): the bench files see
  ``REPRO_BENCH_SMOKE=1`` and cut their client/request counts, long
  companion simulations are deselected, and only the median of five
  runs of each machine-portable derived ratio is gated (absolute
  seconds from a smoke run mean nothing against a full baseline);
* ``--threshold`` — the fraction of the baseline a derived ratio may
  shrink to before the gate trips (default 0.5);
* ``--no-write`` — gate only, leaving the committed baselines alone
  (what CI uses, so a green run on a fast machine never silently
  rebases the baseline);
* ``--list`` — show the registered suites and exit.

Exit status: 0 green, 1 on any pytest failure, schema violation or
regression.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional

from repro.bench import (
    DEFAULT_RATIO_FLOOR,
    SUITES,
    _repo_root,
    compare_reports,
    run_smoke,
    run_suite,
    validate_report,
)


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="run the bench suites, validate the result schema, "
                    "and gate against the committed BENCH_*.json "
                    "baselines")
    parser.add_argument("--suite", action="append", dest="suites",
                        choices=sorted(SUITES),
                        help="suite to run (repeatable; default: all)")
    parser.add_argument("--smoke", action="store_true",
                        help="shrunk workloads; gate median ratios only")
    parser.add_argument("--threshold", type=float,
                        default=DEFAULT_RATIO_FLOOR,
                        help="regression floor as a fraction of the "
                             f"baseline (default {DEFAULT_RATIO_FLOOR})")
    parser.add_argument("--no-write", action="store_true",
                        help="do not update BENCH_*.json (gate only)")
    parser.add_argument("--output-dir", default=None,
                        help="where to write results (default: repo root)")
    parser.add_argument("--baseline-dir", default=None,
                        help="where committed baselines live "
                             "(default: repo root)")
    parser.add_argument("--list", action="store_true",
                        help="list registered suites and exit")
    parser.add_argument("--verbose", "-v", action="store_true",
                        help="stream pytest output while running")
    args = parser.parse_args(argv)

    if args.list:
        for name in sorted(SUITES):
            suite = SUITES[name]
            axes = ", ".join(f"{key}={list(values)}"
                             for key, values in suite.options.items())
            print(f"{name}: benchmarks/{suite.file} ({axes})")
        return 0

    root = _repo_root()
    output_dir = args.output_dir or root
    baseline_dir = args.baseline_dir or root
    if not args.no_write:
        os.makedirs(output_dir, exist_ok=True)
    failures = 0
    for name in (args.suites or sorted(SUITES)):
        suite = SUITES[name]
        mode = "smoke" if args.smoke else "full"
        print(f"[bench] {name}: running benchmarks/{suite.file} ({mode})",
              flush=True)
        code, report = (run_smoke(suite, verbose=args.verbose) if args.smoke
                        else run_suite(suite, verbose=args.verbose))
        if code != 0 or report is None:
            print(f"[bench] {name}: pytest failed (exit {code})")
            failures += 1
            continue
        errors = validate_report(report)
        if errors:
            print(f"[bench] {name}: result violates the schema:")
            for error in errors:
                print(f"  {error}")
            failures += 1
            continue
        for key, value in sorted(report["derived"].items()):
            print(f"[bench] {name}: {key} = {value:.3f}")

        baseline_path = os.path.join(baseline_dir, f"BENCH_{name}.json")
        if os.path.exists(baseline_path):
            with open(baseline_path, "r", encoding="utf-8") as fh:
                baseline = json.load(fh)
            regressions = compare_reports(report, baseline,
                                          ratio_floor=args.threshold)
            if regressions:
                print(f"[bench] {name}: REGRESSION against "
                      f"{baseline_path}:")
                for regression in regressions:
                    print(f"  {regression}")
                failures += 1
            else:
                print(f"[bench] {name}: within threshold of the "
                      f"committed baseline")
        else:
            print(f"[bench] {name}: no baseline at {baseline_path}; "
                  f"gate skipped")

        if not args.no_write:
            out_path = os.path.join(output_dir, f"BENCH_{name}.json")
            if args.smoke and os.path.exists(out_path):
                # Never let a shrunk run clobber a full baseline.
                print(f"[bench] {name}: smoke run; leaving {out_path} "
                      f"untouched")
                continue
            if not args.smoke:
                # A full baseline also records the ratios the shrunk
                # workload produces, so CI smoke runs gate against a
                # comparable (smoke-vs-smoke) reference.
                print(f"[bench] {name}: capturing smoke-mode ratios "
                      f"for the baseline", flush=True)
                smoke_code, smoke_report = run_smoke(
                    suite, verbose=args.verbose)
                if smoke_code == 0 and smoke_report is not None:
                    report["smoke_derived"] = smoke_report["derived"]
            with open(out_path, "w", encoding="utf-8") as fh:
                json.dump(report, fh, indent=2, sort_keys=True)
                fh.write("\n")
            print(f"[bench] {name}: wrote {out_path}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
