"""Generated-code auditor tests: option corners and seeded violations."""

import pytest

from repro.co2p3s.nserver import NSERVER
from repro.co2p3s.nserver.options import ALL_FEATURES_ON
from repro.lint.auditor import (
    _PURITY,
    audit_config,
    audit_report,
    class_universe,
    crosscut_findings,
    suite_configs,
)


class _StubReport:
    """Quacks like a GenerationReport for :func:`audit_report`."""

    def __init__(self, files, classes=()):
        self.files = files
        self._classes = list(classes)

    def class_names(self):
        return list(self._classes)


#: the option-matrix corners the issue requires audited (>= 6)
CORNERS = (
    "cops-ftp",
    "cops-http",
    "cops-http-resilient",
    "cops-http-degradation",
    "all-features-on",
    "pool-toggle-base",
    "deployment-toggle-base",
)


def test_option_matrix_corners_audit_clean():
    configs = dict(suite_configs())
    for label in CORNERS:
        assert audit_config(configs[label], label) == [], label


def test_suite_exercises_every_option_value():
    # all 15 options, each through its full legal value set
    base = NSERVER.configure(ALL_FEATURES_ON)
    seen = {spec.key: set() for spec in base.specs}
    for _label, options in suite_configs():
        resolved = NSERVER.configure(options)
        for spec in base.specs:
            seen[spec.key].add(resolved[spec.key])
    assert len(seen) == 15
    for spec in base.specs:
        assert seen[spec.key] == set(spec.values), spec.key


def test_seeded_dangling_reference_is_flagged():
    missing = sorted(class_universe())[0]
    report = _StubReport({"mod.py": f"x = {missing}\n"})
    idents = [f.ident for f in audit_report(report, "stub")]
    assert f"audit:dangling:mod.py:{missing}" in idents


def test_seeded_syntax_error_is_flagged():
    report = _StubReport({"mod.py": "def broken(:\n"})
    idents = [f.ident for f in audit_report(report, "stub")]
    assert idents == ["audit:compile:mod.py"]


def test_seeded_dead_branch_is_flagged_but_event_loop_is_not():
    report = _StubReport({"mod.py": (
        "def f():\n"
        "    while True:\n"   # event-loop idiom: exempt
        "        break\n"
        "    if True:\n"      # leaked option guard: flagged
        "        pass\n")})
    idents = [f.ident for f in audit_report(report, "stub")]
    assert idents == ["audit:dead-branch:mod.py:4"]


def test_runtime_option_consultation_is_flagged():
    report = _StubReport({
        "__init__.py": "GENERATED_OPTIONS = {}\n",  # the record: allowed
        "mod.py": "from pkg import GENERATED_OPTIONS\n",
    })
    idents = [f.ident for f in audit_report(report, "stub")]
    assert idents == ["audit:options-at-runtime:mod.py"]


def test_seeded_stage_misuse_is_flagged():
    report = _StubReport({"mod.py": (
        "def f(span):\n"
        "    span.stage('decode')\n")})
    idents = [f.ident for f in audit_report(report, "stub")]
    assert "audit:span-stage:mod.py:span.stage" in idents


def test_o11_no_build_with_tracing_residue_is_flagged():
    options = {"O11": False}
    report = _StubReport({"mod.py": "x = handle.trace_id\n"})
    idents = [f.ident for f in audit_report(report, "stub",
                                            options=options)]
    assert "audit:o11-purity:mod.py" in idents
    # The record of the generation options is exempt: it names every
    # option, including the observability ones it turned off.
    report = _StubReport({"__init__.py": "GENERATED_OPTIONS = "
                                         "{'O11': 'No'}\n"
                                         "exporter = None\n"})
    assert not any("o11-purity" in f.ident
                   for f in audit_report(report, "stub", options=options))


def test_o11_yes_build_is_not_purity_scanned():
    report = _StubReport({"mod.py": "x = handle.trace_id\n"})
    assert not any(
        "o11-purity" in f.ident
        for f in audit_report(report, "stub", options={"O11": True}))
    # No options at all (direct audit_report callers): no purity scan.
    assert not any("o11-purity" in f.ident
                   for f in audit_report(report, "stub"))


def test_o11_purity_ignores_in_flight_prose():
    # "in-flight" in drain docstrings must not read as recorder residue.
    options = {"O11": False}
    report = _StubReport({"mod.py": (
        '"""Drain waits for in-flight events to finish."""\n')})
    assert not any("o11-purity" in f.ident
                   for f in audit_report(report, "stub", options=options))


def test_o17_no_build_with_degradation_residue_is_flagged():
    options = {"O11": True, "O17": False}
    report = _StubReport({"mod.py": "x = self.shedding.shed_total\n"})
    idents = [f.ident for f in audit_report(report, "stub",
                                            options=options)]
    assert "audit:o17-purity:mod.py" in idents
    # The generation-options record is exempt, as with O11.
    report = _StubReport({"__init__.py": "GENERATED_OPTIONS = "
                                         "{'O17': False}\n"
                                         "x = rejection_response\n"})
    assert not any("o17-purity" in f.ident
                   for f in audit_report(report, "stub", options=options))


def test_o17_yes_build_is_not_purity_scanned():
    report = _StubReport({"mod.py": "x = self.shedding.brownout\n"})
    assert not any(
        "o17-purity" in f.ident
        for f in audit_report(report, "stub",
                              options={"O11": True, "O17": True}))
    # Stub options without an O17 key (older callers): no purity scan.
    assert not any(
        "o17-purity" in f.ident
        for f in audit_report(report, "stub", options={"O11": True}))


def test_o17_purity_ignores_resilience_prose():
    # "sheds the poisoned event" in quarantine prose is not residue.
    options = {"O11": True, "O17": False}
    report = _StubReport({"mod.py": (
        '"""Quarantine sheds the poisoned event after retries."""\n')})
    assert not any("o17-purity" in f.ident
                   for f in audit_report(report, "stub", options=options))


def test_o16_single_process_build_with_deployment_residue_is_flagged():
    options = {"O11": True, "O16": 1}
    report = _StubReport({"mod.py": "x = rt.cluster_status_fields()\n"})
    idents = [f.ident for f in audit_report(report, "stub",
                                            options=options)]
    assert "audit:o16-purity:mod.py" in idents
    # The generation-options record is exempt, as with O11/O17.
    report = _StubReport({"__init__.py": "GENERATED_OPTIONS = "
                                         "{'O16': 1}\n"
                                         "x = respawn_limit\n"})
    assert not any("o16-purity" in f.ident
                   for f in audit_report(report, "stub", options=options))


def test_o16_multiproc_build_is_not_purity_scanned():
    report = _StubReport({"mod.py": "x = rt.ProcessSupervisor\n"})
    assert not any(
        "o16-purity" in f.ident
        for f in audit_report(report, "stub",
                              options={"O11": True, "O16": 2}))
    # Stub options without an O16 key (older callers): no purity scan.
    assert not any(
        "o16-purity" in f.ident
        for f in audit_report(report, "stub", options={"O11": True}))


#: per purity-table row: (off value, on value, a residue line)
PURITY_CASES = {
    "O11": (False, True, "x = handle.trace_id\n"),
    "O13": (False, True, "x = rt.WorkerSupervisor\n"),
    "O16": (1, 2, "x = rt.ProcessSupervisor\n"),
    "O17": (False, True, "x = self.shedding.brownout\n"),
}


def test_purity_cases_cover_the_table():
    assert sorted(PURITY_CASES) == sorted(row[0] for row in _PURITY)


def _purity_idents(key, text, options):
    report = _StubReport({"mod.py": text})
    return [f.ident for f in audit_report(report, "stub", options=options)
            if f.ident.startswith(f"audit:{key.lower()}-purity:")]


@pytest.mark.parametrize("key", sorted(PURITY_CASES))
def test_purity_row_flags_off_build_only(key):
    off, on, residue = PURITY_CASES[key]
    assert _purity_idents(key, residue, {key: off}) == [
        f"audit:{key.lower()}-purity:mod.py"]
    assert _purity_idents(key, residue, {key: on}) == []
    # a missing key means no scan, whatever the other options say
    others = {other: PURITY_CASES[other][0]
              for other in PURITY_CASES if other != key}
    assert _purity_idents(key, residue, others) == []


def test_stub_options_without_o11_do_not_crash():
    report = _StubReport({"mod.py": "x = self.shedding.brownout\n"})
    idents = [f.ident for f in audit_report(report, "stub",
                                            options={"O17": False})]
    assert idents == ["audit:o17-purity:mod.py"]


def test_crosscut_three_way_agreement():
    # AST-derived == declared fragment metadata == checked-in Table 2
    assert crosscut_findings() == []
