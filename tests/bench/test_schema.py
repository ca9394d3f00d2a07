"""The BENCH_*.json schema and regression gate.

The committed baselines at the repository root must always validate —
they are what the CI ``bench`` job gates against — and the gate's rules
(derived ratios always, smoke-vs-smoke when available, absolute means
only between full runs on the identical machine) are pinned here.
"""

import copy
import json
import os

import pytest

import repro.bench
from repro.bench import (
    SCHEMA_VERSION,
    SUITES,
    build_report,
    compare_reports,
    machine_info,
    run_smoke,
    validate_report,
)

REPO_ROOT = os.path.dirname(os.path.dirname(
    os.path.dirname(os.path.abspath(__file__))))


def make_report(**overrides):
    """A minimal schema-valid report to mutate in the negative tests."""
    report = {
        "schema_version": SCHEMA_VERSION,
        "name": "procs",
        "created": 1754000000.0,
        "smoke": False,
        "machine": machine_info(),
        "options": {"O16": [1, 4]},
        "benchmarks": [
            {"test": "t[1]", "params": {"procs": 1},
             "extra": {"procs": 1}, "samples": [2.0, 2.2],
             "stats": {"min": 2.0, "max": 2.2, "mean": 2.1,
                       "stddev": 0.1, "rounds": 2}},
            {"test": "t[4]", "params": {"procs": 4},
             "extra": {"procs": 4}, "samples": [1.0, 1.2],
             "stats": {"min": 1.0, "max": 1.2, "mean": 1.1,
                       "stddev": 0.1, "rounds": 2}},
        ],
        "derived": {"procs_speedup_4v1": 2.1 / 1.1},
    }
    report.update(overrides)
    return report


# -- the committed baselines -----------------------------------------------

@pytest.mark.parametrize("name", sorted(SUITES))
def test_committed_baseline_validates(name):
    path = os.path.join(REPO_ROOT, f"BENCH_{name}.json")
    assert os.path.exists(path), f"missing committed baseline {path}"
    with open(path, "r", encoding="utf-8") as fh:
        baseline = json.load(fh)
    assert validate_report(baseline) == []
    assert baseline["name"] == name
    assert not baseline["smoke"], "a baseline must come from a full run"
    assert baseline["derived"], "a baseline without ratios gates nothing"
    # Full baselines carry the smoke-mode ratios CI gates against.
    assert baseline.get("smoke_derived"), "baseline lacks smoke ratios"
    assert set(baseline["smoke_derived"]) == set(baseline["derived"])
    assert baseline["options"] == {
        key: list(values) for key, values in SUITES[name].options.items()}


def test_committed_baselines_pass_their_own_gate():
    for name in sorted(SUITES):
        path = os.path.join(REPO_ROOT, f"BENCH_{name}.json")
        with open(path, "r", encoding="utf-8") as fh:
            baseline = json.load(fh)
        assert compare_reports(baseline, baseline) == []


# -- schema validation -----------------------------------------------------

def test_valid_report_has_no_errors():
    assert validate_report(make_report()) == []


def test_non_object_report_is_rejected():
    assert validate_report([1, 2]) == ["report: expected object"]


@pytest.mark.parametrize("mutate, fragment", [
    (lambda r: r.update(schema_version=99), "schema_version"),
    (lambda r: r.update(name=7), "name"),
    (lambda r: r.update(smoke="no"), "smoke"),
    (lambda r: r.update(created=float("nan")), "created"),
    (lambda r: r.update(machine="laptop"), "machine"),
    (lambda r: r["machine"].pop("cpus"), "machine.cpus"),
    (lambda r: r.update(options=None), "options"),
    (lambda r: r.update(benchmarks=[]), "benchmarks"),
    (lambda r: r["benchmarks"][0].update(samples=[]),
     "benchmarks[0].samples"),
    (lambda r: r["benchmarks"][0]["stats"].pop("mean"),
     "benchmarks[0].stats.mean"),
    (lambda r: r.update(derived={"x": "fast"}), "derived.x"),
    (lambda r: r.update(smoke_derived={"x": None}), "smoke_derived.x"),
])
def test_schema_violations_name_their_path(mutate, fragment):
    report = make_report()
    mutate(report)
    errors = validate_report(report)
    assert errors, fragment
    assert any(fragment in error for error in errors), errors


# -- build_report ----------------------------------------------------------

def test_build_report_reshapes_pytest_benchmark_output():
    raw = {"benchmarks": [
        {"name": "test_x[1]", "params": {"procs": 1},
         "extra_info": {"procs": 1},
         "stats": {"data": [2.0, 2.2], "min": 2.0, "max": 2.2,
                   "mean": 2.1, "stddev": 0.1, "rounds": 2}},
        {"name": "test_x[4]", "params": {"procs": 4},
         "extra_info": {"procs": 4},
         "stats": {"data": [1.0, 1.2], "min": 1.0, "max": 1.2,
                   "mean": 1.05, "stddev": 0.1, "rounds": 2}},
    ]}
    report = build_report(SUITES["procs"], raw, smoke=True)
    assert validate_report(report) == []
    assert report["smoke"] is True
    assert report["benchmarks"][0]["samples"] == [2.0, 2.2]
    assert report["derived"] == {"procs_speedup_4v1": 2.1 / 1.05}


# -- the regression gate ---------------------------------------------------

def test_gate_passes_when_ratios_hold():
    assert compare_reports(make_report(), make_report()) == []


def test_gate_trips_on_a_collapsed_ratio():
    current = make_report(derived={"procs_speedup_4v1": 0.5})
    baseline = make_report(derived={"procs_speedup_4v1": 2.0})
    failures = compare_reports(current, baseline, ratio_floor=0.5)
    assert len(failures) == 1
    assert "procs_speedup_4v1" in failures[0]
    # A generous floor lets the same pair through.
    assert compare_reports(current, baseline, ratio_floor=0.2) == []


def test_gate_flags_a_ratio_missing_from_the_current_run():
    current = make_report(derived={})
    failures = compare_reports(current, make_report())
    assert failures and "missing" in failures[0]


def test_smoke_runs_gate_against_smoke_ratios():
    baseline = make_report(derived={"procs_speedup_4v1": 2.0},
                           smoke_derived={"procs_speedup_4v1": 0.6})
    # 0.7 would fail against the full-run 2.0 but is healthy against
    # the smoke reference — smoke compares smoke.
    smoke = make_report(smoke=True,
                        derived={"procs_speedup_4v1": 0.7})
    assert compare_reports(smoke, baseline) == []
    full = make_report(derived={"procs_speedup_4v1": 0.7},
                       machine={"python": "x", "platform": "y",
                                "machine": "z", "cpus": 1})
    assert compare_reports(full, baseline) != []


def test_absolute_means_gate_only_full_runs_on_the_same_machine():
    baseline = make_report()
    slow = copy.deepcopy(make_report())
    for bench in slow["benchmarks"]:
        bench["stats"]["mean"] *= 10
    # Same machine, both full: the 10x slowdown trips the gate.
    failures = compare_reports(slow, baseline)
    assert any("same machine" in failure for failure in failures)
    # A different machine fingerprint silences the absolute check.
    other = copy.deepcopy(slow)
    other["machine"] = dict(other["machine"], cpus=128)
    assert compare_reports(other, baseline) == []
    # So does a smoke run, even on the identical machine.
    smoked = copy.deepcopy(slow)
    smoked["smoke"] = True
    assert compare_reports(smoked, baseline) == []


def test_smoke_gates_the_median_of_its_rounds(monkeypatch):
    """One smoke round can land on either side of the floor; the gate
    reads the median ratio of five rounds, and a ratio one round lacks
    is dropped so the gate reports it missing."""
    rounds = iter([0.3, 1.9, 1.2, 0.4, 1.5])
    calls = []

    def fake_run_suite(suite, smoke=False, verbose=False):
        calls.append(smoke)
        derived = {"procs_speedup_4v1": next(rounds)}
        if len(calls) == 5:
            derived["flaky_ratio"] = 1.0
        return 0, make_report(smoke=smoke, derived=derived)

    monkeypatch.setattr(repro.bench, "run_suite", fake_run_suite)
    code, report = run_smoke(SUITES["procs"])
    assert code == 0 and calls == [True] * 5
    assert report["derived"] == {"procs_speedup_4v1": 1.2}
    assert validate_report(report) == []


def test_smoke_stops_at_a_failing_round(monkeypatch):
    results = iter([(0, make_report(smoke=True)), (1, None)])
    monkeypatch.setattr(repro.bench, "run_suite",
                        lambda suite, smoke=False, verbose=False:
                        next(results))
    assert run_smoke(SUITES["procs"]) == (1, None)
