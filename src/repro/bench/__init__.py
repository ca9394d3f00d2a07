"""Continuous benchmarking: run, schematise, and gate the bench suites.

``python -m repro.bench`` executes the repository's socket benchmarks
(`benchmarks/bench_*.py`, driven through pytest-benchmark), rewrites
each raw result into the stable ``BENCH_<name>.json`` schema below, and
compares it against the committed baseline at the repository root.  A
regression — a derived speedup ratio collapsing below the configured
fraction of its baseline — exits non-zero, which is what makes the CI
``bench`` job a gate instead of an archive.

Schema (version 1)::

    {
      "schema_version": 1,
      "name": "procs",                   # suite name
      "created": 1754000000.0,           # unix timestamp of the run
      "smoke": false,                    # shrunk smoke workload?
      "machine": {"python": ..., "platform": ..., "machine": ...,
                  "cpus": ...},
      "options": {"O16": [1, 4]},        # template option axes exercised
      "benchmarks": [                    # one entry per benchmark test
        {"test": "...", "params": {...}, "extra": {...},
         "samples": [s0, s1, ...],       # per-round wall seconds
         "stats": {"min": ..., "max": ..., "mean": ...,
                   "stddev": ..., "rounds": ...}},
        ...
      ],
      "derived": {"procs_speedup_4v1": 1.7},  # machine-portable ratios
      "smoke_derived": {"procs_speedup_4v1": 0.7}   # optional: the same
                                         # ratios under the shrunk smoke
                                         # workload, the baseline smoke
                                         # runs gate against
    }

The regression gate compares the **derived ratios** first — a speedup
of configuration B over configuration A on the same host, which travels
across machines the way absolute seconds never do.  Absolute means are
only compared when the machine fingerprints match exactly and neither
run is a smoke run.
"""

from __future__ import annotations

import json
import math
import os
import platform
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

__all__ = [
    "SCHEMA_VERSION",
    "Suite",
    "SUITES",
    "machine_info",
    "validate_report",
    "build_report",
    "compare_reports",
    "run_suite",
    "run_smoke",
]

SCHEMA_VERSION = 1

#: default regression threshold: a derived ratio may shrink to this
#: fraction of its committed baseline before the gate trips.  Generous
#: on purpose — CI machines are noisy; a real regression (epoll
#: scanning every fd again, workers serialising on a new lock)
#: collapses the ratio toward 1.0, far past any scheduler jitter.
DEFAULT_RATIO_FLOOR = 0.5


def _repo_root() -> str:
    """The repository root (three levels above this package)."""
    here = os.path.abspath(os.path.dirname(__file__))
    return os.path.dirname(os.path.dirname(os.path.dirname(here)))


def machine_info() -> Dict[str, object]:
    """The fingerprint stored with (and compared between) reports."""
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpus": os.cpu_count() or 1,
    }


# -- suites -------------------------------------------------------------------


def _group_means(benchmarks: Sequence[Mapping], key: str
                 ) -> Dict[object, float]:
    """mean seconds per distinct ``extra[key]`` value."""
    sums: Dict[object, List[float]] = {}
    for bench in benchmarks:
        value = bench.get("extra", {}).get(key)
        if value is None:
            continue
        sums.setdefault(value, []).append(bench["stats"]["mean"])
    return {value: sum(means) / len(means)
            for value, means in sums.items() if means}


def _derived_procs(benchmarks: Sequence[Mapping]) -> Dict[str, float]:
    """4-worker-process speedup over 1 on the same host and workload."""
    means = _group_means(benchmarks, "procs")
    if 1 in means and 4 in means and means[4] > 0:
        return {"procs_speedup_4v1": means[1] / means[4]}
    return {}


def _derived_poller(benchmarks: Sequence[Mapping]) -> Dict[str, float]:
    """Epoll speedup over select at the largest idle swarm measured."""
    times: Dict[Tuple[object, object], List[float]] = {}
    for bench in benchmarks:
        extra = bench.get("extra", {})
        poller = extra.get("poller")
        idle = extra.get("idle_connections")
        if poller is None or idle is None:
            continue
        times.setdefault((poller, idle), []).append(bench["stats"]["mean"])
    idles = {idle for (_poller, idle) in times}
    if not idles:
        return {}
    top = max(idles)
    select = times.get(("select", top))
    epoll = times.get(("epoll", top))
    if select and epoll:
        select_mean = sum(select) / len(select)
        epoll_mean = sum(epoll) / len(epoll)
        if epoll_mean > 0:
            return {"epoll_speedup_idle": select_mean / epoll_mean}
    return {}


def _derived_degradation(benchmarks: Sequence[Mapping]) -> Dict[str, float]:
    """The graceful-vs-cliff ratios the sweep itself computes."""
    derived: Dict[str, float] = {}
    for bench in benchmarks:
        extra = bench.get("extra", {})
        for key in ("goodput_retention_2x", "cliff_ratio"):
            if isinstance(extra.get(key), (int, float)):
                derived[key] = float(extra[key])
    return derived


@dataclass(frozen=True)
class Suite:
    """One runnable bench suite and how to reduce its results."""

    name: str
    #: bench file, relative to ``benchmarks/``
    file: str
    #: template option axes the suite exercises (documentation in the
    #: report; the options vector of the issue's schema)
    options: Mapping[str, Sequence[object]]
    #: derived-ratio reducer over the schema's ``benchmarks`` list
    derive: Callable[[Sequence[Mapping]], Dict[str, float]]
    #: non-benchmark companion tests skipped under ``--smoke`` (long
    #: simulations and absolute-ratio assertions, meaningless shrunk)
    smoke_deselect: Tuple[str, ...] = ()


SUITES: Dict[str, Suite] = {
    suite.name: suite for suite in (
        Suite(name="procs",
              file="bench_procs.py",
              options={"O16": (1, 4)},
              derive=_derived_procs,
              smoke_deselect=("test_procs_scaling_cpu_bound",)),
        Suite(name="degradation",
              file="bench_degradation.py",
              options={"O17": (False, True)},
              derive=_derived_degradation,
              smoke_deselect=("test_watermark_hill_climb",)),
        Suite(name="poller",
              file="bench_poller.py",
              # The backends are pinned through REPRO_POLLER; "O18"
              # is the label the committed BENCH_poller.json records
              # for that axis (the retired option key that once
              # selected it), kept until the baseline is re-recorded.
              options={"O18": ("select", "epoll")},
              derive=_derived_poller,
              smoke_deselect=("test_epoll_speedup_under_idle_swarm",)),
    )
}


# -- schema -------------------------------------------------------------------


def _type_error(errors: List[str], path: str, want: str, got) -> None:
    errors.append(f"{path}: expected {want}, got {type(got).__name__}")


def _check_number(errors: List[str], path: str, value) -> None:
    if not isinstance(value, (int, float)) or isinstance(value, bool) \
            or (isinstance(value, float) and not math.isfinite(value)):
        _type_error(errors, path, "finite number", value)


def validate_report(doc) -> List[str]:
    """Validate one report against the schema; returns error strings.

    Hand-rolled on purpose: the container has no jsonschema, and the
    schema is small enough that a direct walk is clearer than a
    vendored validator anyway.
    """
    errors: List[str] = []
    if not isinstance(doc, dict):
        return ["report: expected object"]
    if doc.get("schema_version") != SCHEMA_VERSION:
        errors.append(f"schema_version: expected {SCHEMA_VERSION}, "
                      f"got {doc.get('schema_version')!r}")
    for key, want in (("name", str), ("smoke", bool)):
        if not isinstance(doc.get(key), want):
            _type_error(errors, key, want.__name__, doc.get(key))
    _check_number(errors, "created", doc.get("created"))
    machine = doc.get("machine")
    if not isinstance(machine, dict):
        _type_error(errors, "machine", "object", machine)
    else:
        for key in ("python", "platform", "machine"):
            if not isinstance(machine.get(key), str):
                _type_error(errors, f"machine.{key}", "string",
                            machine.get(key))
        if not isinstance(machine.get("cpus"), int):
            _type_error(errors, "machine.cpus", "integer",
                        machine.get("cpus"))
    if not isinstance(doc.get("options"), dict):
        _type_error(errors, "options", "object", doc.get("options"))
    benches = doc.get("benchmarks")
    if not isinstance(benches, list) or not benches:
        errors.append("benchmarks: expected non-empty list")
        benches = []
    for i, bench in enumerate(benches):
        where = f"benchmarks[{i}]"
        if not isinstance(bench, dict):
            _type_error(errors, where, "object", bench)
            continue
        if not isinstance(bench.get("test"), str):
            _type_error(errors, f"{where}.test", "string",
                        bench.get("test"))
        for key in ("params", "extra"):
            if not isinstance(bench.get(key), dict):
                _type_error(errors, f"{where}.{key}", "object",
                            bench.get(key))
        samples = bench.get("samples")
        if not isinstance(samples, list) or not samples:
            errors.append(f"{where}.samples: expected non-empty list")
        else:
            for j, sample in enumerate(samples):
                _check_number(errors, f"{where}.samples[{j}]", sample)
        stats = bench.get("stats")
        if not isinstance(stats, dict):
            _type_error(errors, f"{where}.stats", "object", stats)
        else:
            for key in ("min", "max", "mean", "stddev", "rounds"):
                _check_number(errors, f"{where}.stats.{key}",
                              stats.get(key))
    derived = doc.get("derived")
    if not isinstance(derived, dict):
        _type_error(errors, "derived", "object", derived)
    else:
        for key, value in derived.items():
            _check_number(errors, f"derived.{key}", value)
    smoke_derived = doc.get("smoke_derived")
    if smoke_derived is not None:
        if not isinstance(smoke_derived, dict):
            _type_error(errors, "smoke_derived", "object", smoke_derived)
        else:
            for key, value in smoke_derived.items():
                _check_number(errors, f"smoke_derived.{key}", value)
    return errors


def build_report(suite: Suite, raw: Mapping, smoke: bool) -> Dict:
    """One pytest-benchmark JSON document -> the stable schema."""
    benchmarks = []
    for bench in raw.get("benchmarks", []):
        stats = bench.get("stats", {})
        benchmarks.append({
            "test": bench.get("name", ""),
            "params": bench.get("params") or {},
            "extra": bench.get("extra_info") or {},
            "samples": list(stats.get("data") or []),
            "stats": {
                "min": stats.get("min", 0.0),
                "max": stats.get("max", 0.0),
                "mean": stats.get("mean", 0.0),
                "stddev": stats.get("stddev", 0.0),
                "rounds": stats.get("rounds", len(stats.get("data") or [])),
            },
        })
    return {
        "schema_version": SCHEMA_VERSION,
        "name": suite.name,
        "created": time.time(),
        "smoke": smoke,
        "machine": machine_info(),
        "options": {key: list(values)
                    for key, values in suite.options.items()},
        "benchmarks": benchmarks,
        "derived": suite.derive(benchmarks),
    }


# -- the regression gate ------------------------------------------------------


def compare_reports(current: Mapping, baseline: Mapping,
                    ratio_floor: float = DEFAULT_RATIO_FLOOR) -> List[str]:
    """Regressions of ``current`` against ``baseline`` (empty = pass).

    Derived ratios gate unconditionally — they are the machine-portable
    signal.  A smoke run compares against the baseline's
    ``smoke_derived`` ratios when it has them (shrunk workloads shift
    the ratios systematically — 4 workers *lose* on a 20-request burst —
    so smoke gates against smoke).  Absolute per-test means gate only
    between two full runs on an identical machine fingerprint, where
    "no slower than ``1/ratio_floor`` times the baseline" is
    meaningful.
    """
    failures: List[str] = []
    baseline_derived = (baseline.get("derived") or {})
    if current.get("smoke") and baseline.get("smoke_derived"):
        baseline_derived = baseline["smoke_derived"]
    for key, base_value in baseline_derived.items():
        cur_value = (current.get("derived") or {}).get(key)
        if cur_value is None:
            failures.append(f"derived.{key}: missing from current run "
                            f"(baseline {base_value:.3f})")
        elif cur_value < base_value * ratio_floor:
            failures.append(
                f"derived.{key}: {cur_value:.3f} < "
                f"{base_value:.3f} x {ratio_floor} (baseline x floor)")
    same_machine = current.get("machine") == baseline.get("machine")
    full_runs = not (current.get("smoke") or baseline.get("smoke"))
    if same_machine and full_runs:
        base_means = {bench["test"]: bench["stats"]["mean"]
                      for bench in baseline.get("benchmarks", [])}
        for bench in current.get("benchmarks", []):
            base_mean = base_means.get(bench["test"])
            if base_mean is None or base_mean <= 0:
                continue
            mean = bench["stats"]["mean"]
            if mean > base_mean / ratio_floor:
                failures.append(
                    f"{bench['test']}: mean {mean:.3f}s > "
                    f"{base_mean:.3f}s / {ratio_floor} (same machine)")
    return failures


# -- the runner ---------------------------------------------------------------


def run_suite(suite: Suite, smoke: bool = False,
              benchmarks_dir: Optional[str] = None,
              verbose: bool = False) -> Tuple[int, Optional[Dict]]:
    """Run one suite in a pytest subprocess; (exit code, report).

    The subprocess inherits the environment with ``PYTHONPATH``
    extended to the ``src`` tree and, under ``smoke``,
    ``REPRO_BENCH_SMOKE=1`` — the bench files shrink their client and
    request counts when they see it, and the long companion tests are
    deselected outright.
    """
    benchmarks_dir = benchmarks_dir or os.path.join(_repo_root(),
                                                    "benchmarks")
    bench_file = os.path.join(benchmarks_dir, suite.file)
    src = os.path.join(_repo_root(), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    if smoke:
        env["REPRO_BENCH_SMOKE"] = "1"
    raw_fd, raw_path = tempfile.mkstemp(prefix="repro-bench-",
                                        suffix=".json")
    os.close(raw_fd)
    command = [sys.executable, "-m", "pytest", bench_file, "-q",
               "-p", "no:cacheprovider", f"--benchmark-json={raw_path}"]
    if smoke and suite.smoke_deselect:
        command += ["-k", " and ".join(f"not {name}"
                                       for name in suite.smoke_deselect)]
    import subprocess
    try:
        proc = subprocess.run(
            command, env=env, cwd=_repo_root(),
            capture_output=not verbose)
        if proc.returncode != 0:
            if not verbose and proc.stdout:
                sys.stdout.write(proc.stdout.decode("utf-8", "replace"))
            if not verbose and proc.stderr:
                sys.stderr.write(proc.stderr.decode("utf-8", "replace"))
            return proc.returncode, None
        with open(raw_path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    finally:
        try:
            os.unlink(raw_path)
        except OSError:
            pass
    return 0, build_report(suite, raw, smoke=smoke)


def run_smoke(suite: Suite, rounds: int = 5,
              verbose: bool = False) -> Tuple[int, Optional[Dict]]:
    """``rounds`` smoke runs: (exit code, the last report with each
    derived ratio the median over the rounds; a gap reads as missing)."""
    reports = []
    for _ in range(rounds):
        code, report = run_suite(suite, smoke=True, verbose=verbose)
        if code != 0 or report is None:
            return code, None
        reports.append(report)
    report["derived"] = {
        key: statistics.median(r["derived"][key] for r in reports)
        for key in report["derived"]
        if all(key in r["derived"] for r in reports)}
    return 0, report
