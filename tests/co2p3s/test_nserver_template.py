"""Tests for the N-Server template: option table, constraints, generated
code structure, and the Table 2 crosscut reproduction."""

import ast

import pytest

from repro.co2p3s import OptionError
from repro.co2p3s.crosscut import (
    CrosscutMatrix,
    declared_matrix,
    empirical_matrix,
    format_matrix,
)
from repro.co2p3s.nserver import (
    ALL_FEATURES_ON,
    COPS_FTP_OPTIONS,
    COPS_HTTP_OPTIONS,
    COPS_HTTP_DEGRADATION_OPTIONS,
    COPS_HTTP_OBSERVABILITY_OPTIONS,
    COPS_HTTP_OVERLOAD_OPTIONS,
    COPS_HTTP_RESILIENCE_OPTIONS,
    COPS_HTTP_SCHEDULING_OPTIONS,
    DEPLOYMENT_TOGGLE_BASE,
    EXPECTED_TABLE2,
    NSERVER,
    PAPER_TABLE2,
    POOL_TOGGLE_BASE,
    TABLE2_CLASS_ORDER,
    TABLE2_EXTENSIONS,
    option_table_rows,
)


# -- Table 1: the option model -------------------------------------------------


def test_option_keys():
    # The paper's twelve plus the O13 fault-tolerance, O16 deployment
    # and O17 degradation extensions.  O14 (reactor shards) and O15
    # (write path) were deleted; the later keys keep their numbers.
    specs = NSERVER.option_specs()
    assert [s.key for s in specs] == [f"O{i}" for i in range(1, 18)
                                      if i not in (14, 15)]


@pytest.mark.parametrize("setting", [{"O14": 2}, {"O18": "epoll"}],
                         ids=["O14", "O18"])
def test_deleted_option_is_an_unknown_option(setting):
    with pytest.raises(OptionError):
        NSERVER.configure(setting)


def test_deleted_o15_is_an_unknown_option():
    with pytest.raises(OptionError):
        NSERVER.configure({"O15": "zerocopy"})


def test_paper_configurations_are_legal():
    for config in (COPS_FTP_OPTIONS, COPS_HTTP_OPTIONS,
                   COPS_HTTP_SCHEDULING_OPTIONS, COPS_HTTP_OVERLOAD_OPTIONS,
                   COPS_HTTP_RESILIENCE_OPTIONS,
                   COPS_HTTP_DEGRADATION_OPTIONS,
                   ALL_FEATURES_ON, POOL_TOGGLE_BASE,
                   DEPLOYMENT_TOGGLE_BASE):
        opts = NSERVER.configure(config)
        NSERVER.validate(opts)


def test_cops_ftp_column_matches_table1():
    opts = NSERVER.configure(COPS_FTP_OPTIONS)
    assert opts["O4"] == "Synchronous"
    assert opts["O5"] == "Dynamic"
    assert opts["O6"] is None
    assert opts["O7"] is True


def test_cops_http_column_matches_table1():
    opts = NSERVER.configure(COPS_HTTP_OPTIONS)
    assert opts["O4"] == "Asynchronous"
    assert opts["O5"] == "Static"
    assert opts["O6"] == "LRU"
    assert opts["O7"] is False


def test_option_table_rows_shape():
    rows = option_table_rows(COPS_FTP_OPTIONS, COPS_HTTP_OPTIONS)
    assert len(rows) == 15
    assert all(len(r) == 4 for r in rows)
    o6 = next(r for r in rows if r[0].startswith("O6"))
    assert o6[2] == "No" and o6[3] == "Yes: LRU"


def test_constraints():
    with pytest.raises(OptionError):
        NSERVER.validate(NSERVER.configure({"O8": True, "O2": False}))
    with pytest.raises(OptionError):
        NSERVER.validate(NSERVER.configure({"O9": True, "O2": False}))
    with pytest.raises(OptionError):
        NSERVER.validate(NSERVER.configure({"O5": "Dynamic", "O2": False}))
    with pytest.raises(OptionError):
        NSERVER.validate(NSERVER.configure({"O17": True, "O9": False}))


def test_illegal_option_value():
    with pytest.raises(OptionError):
        NSERVER.configure({"O6": "MRU"})


# -- generated code structure ---------------------------------------------------


def render(config):
    return NSERVER.render(NSERVER.configure(config), package="t")


def test_all_files_parse_for_paper_configs():
    for config in (COPS_FTP_OPTIONS, COPS_HTTP_OPTIONS,
                   COPS_HTTP_SCHEDULING_OPTIONS, COPS_HTTP_OVERLOAD_OPTIONS,
                   ALL_FEATURES_ON):
        report = render(config)
        for filename, text in report.files.items():
            ast.parse(text)


def test_full_config_generates_every_table2_class():
    report = render(ALL_FEATURES_ON)
    assert set(report.class_names()) == set(TABLE2_CLASS_ORDER)
    # paper's 27 + Observability (O11) + Resilience (O13)
    # + Degradation (O17) + Deployment + Worker (O16)
    assert len(TABLE2_CLASS_ORDER) == 32


def test_optional_classes_absent_when_options_off():
    report = render(COPS_FTP_OPTIONS)  # Synchronous, no cache, static=no ctrl
    names = set(report.class_names())
    assert "CompletionEvent" not in names          # O4=Synchronous
    assert "FileOpenEvent" not in names
    assert "FileHandle" not in names
    assert "Cache" not in names                    # O6=No
    assert "ProcessorController" in names          # O5=Dynamic
    report2 = render(COPS_HTTP_OPTIONS)
    assert "ProcessorController" not in set(report2.class_names())  # Static


def test_codec_classes_follow_o3():
    with_codec = set(render(ALL_FEATURES_ON).class_names())
    without = set(render(dict(ALL_FEATURES_ON, O3=False)).class_names())
    assert "DecodeRequestEventHandler" in with_codec
    assert "DecodeRequestEventHandler" not in without
    assert "EncodeReplyEventHandler" not in without


def test_no_dynamic_feature_checks_in_generated_code():
    """The paper's core claim: option-disabled features leave NO trace in
    the generated code — no runtime flag checks."""
    report = render(COPS_HTTP_OPTIONS)  # profiling/logging/debug all off
    assert "observability.py" not in report.files
    for filename, text in report.files.items():
        assert "profiler" not in text, filename
        assert "tracer" not in text, filename
        assert ".log." not in text, filename
        assert "overload.accepting" not in text, filename
        assert "OverloadController" not in text, filename
        assert "reap_idle" not in text, filename
        assert "idle-scan" not in text, filename
        # O11=No: zero metric/span/status call sites anywhere.
        assert "observability" not in text.lower(), filename
        assert "spans" not in text, filename
        assert "obs-sample" not in text, filename
        assert "registry" not in text, filename
        assert "sampler" not in text, filename
        # O13=No: zero fault-tolerance code anywhere.
        assert "resilience" not in text.lower(), filename
        assert "deadline" not in text, filename
        assert "quarantine" not in text, filename
        assert "supervisor" not in text, filename
        assert "safe_accept" not in text, filename
        assert "def drain" not in text, filename
        assert "drain_timeout" not in text, filename
        # O17=No: zero degradation-plane code anywhere.
        assert "degradation" not in text.lower(), filename
        assert "shedding" not in text, filename
        assert "shed_" not in text, filename
        assert "brownout" not in text, filename
        assert "breaker" not in text, filename
        assert "sojourn" not in text, filename
        assert "retry_after" not in text, filename
        assert "adaptive" not in text.lower(), filename
    assert "degradation.py" not in report.files


def test_observability_code_present_when_o11_on():
    report = render(COPS_HTTP_OBSERVABILITY_OPTIONS)
    assert "observability.py" in report.files
    obs_text = report.files["observability.py"]
    assert "MetricsRegistry" in obs_text
    assert "SpanRecorder" in obs_text
    assert "PeriodicSampler" in obs_text
    assert "status_report" in obs_text
    # Production build: span events are not mirrored into a tracer.
    assert "tracer=None" in obs_text
    # Overload probe absent (O9=No); the O6=LRU cache probes itself.
    assert "server_overload_tripped" not in obs_text
    assert "server_cache_hit_rate" in report.files["cache.py"]
    reactor_text = report.files["reactor.py"]
    assert "self.observability = Observability(self)" in reactor_text
    assert ("self.cache.enable_profiling(self.observability.sampler)"
            in reactor_text)
    assert "self.observability.wire()" in reactor_text
    comm_text = report.files["communication.py"]
    assert "spans=reactor.observability.spans" in comm_text
    assert "obs_sample_interval" in comm_text
    assert '"obs-sample"' in comm_text


def test_observability_debug_build_mirrors_spans_into_tracer():
    report = render(dict(COPS_HTTP_OBSERVABILITY_OPTIONS, O10="Debug"))
    assert "tracer=reactor.tracer" in report.files["observability.py"]


def test_resilience_code_present_when_o13_on():
    report = render(COPS_HTTP_RESILIENCE_OPTIONS)
    assert "resilience.py" in report.files
    res_text = report.files["resilience.py"]
    assert "DeadlineMonitor" in res_text
    assert "WorkerSupervisor" in res_text       # O2=Yes
    assert "EventQuarantine" in res_text
    assert "def safe_accept" in res_text
    # O11=Yes: resilience counters live on the shared obs registry and
    # therefore surface on /server-status automatically.
    assert "server_deadline_timeouts_total" in res_text
    assert "server_worker_restarts_total" in res_text
    assert "server_quarantined_events_total" in res_text
    reactor_text = report.files["reactor.py"]
    assert "self.resilience = Resilience(self)" in reactor_text
    assert "def drain(self" in reactor_text
    comm_text = report.files["communication.py"]
    assert "self.reactor.resilience.safe_accept(listen)" in comm_text
    assert "drain_timeout" in comm_text
    assert "def drain(self" in report.files["server.py"]


def test_resilience_without_pool_omits_supervision():
    """O13 with O2=No: deadlines and the hardened accept loop only —
    there is no Event Processor pool to supervise or quarantine for."""
    report = render(dict(COPS_HTTP_RESILIENCE_OPTIONS, O2=False))
    res_text = report.files["resilience.py"]
    assert "DeadlineMonitor" in res_text
    assert "WorkerSupervisor" not in res_text
    assert "EventQuarantine" not in res_text


def test_degradation_code_present_when_o17_on():
    report = render(COPS_HTTP_DEGRADATION_OPTIONS)
    assert "degradation.py" in report.files
    deg = report.files["degradation.py"]
    assert "class Degradation" in deg
    assert "rt.SheddingPolicy" in deg
    assert "rt.ClientRateLimiter" in deg
    assert "rt.CircuitBreaker" in deg
    assert "rt.RetryBudget" in deg
    # A plain holder: nothing to start or stop, no thread.
    assert "def start" not in deg and "threading" not in deg
    reactor_text = report.files["reactor.py"]
    assert "self.degradation = Degradation(self)" in reactor_text
    assert "breaker=self.degradation.breaker" in reactor_text
    assert "retry_budget=self.degradation.retry_budget" in reactor_text
    assert "self.degradation.start()" not in reactor_text
    comm = report.files["communication.py"]
    # The O17 accept loop replaces the O9 silent-postpone loop: explicit
    # decisions, cheap rejection, per-client rate limit.
    assert "shedding.admit_accept()" in comm
    assert "shedding.admit_client(" in comm
    assert "def _reject(self, handle)" in comm
    assert "self.reactor.overload.accepting()" not in comm
    assert "shed_rate = 100.0" in comm
    obs_text = report.files["observability.py"]
    assert "server_shed_total" in obs_text
    assert "server_breaker_open" in obs_text


#: the O17 tuning fields deleted with the mechanisms they tuned: the
#: live AIMD controller, the brownout it drove, request-class shedding
#: and the CoDel wrapper around the processor queue
DELETED_O17_SETTINGS = (
    "adaptive_control", "adaptive_target_p99", "adaptive_interval",
    "brownout_stale_threshold", "brownout_bound_threshold",
    "brownout_max_response", "shed_classes", "shed_priority_floor",
    "sojourn_deadline", "sojourn_interval",
)
#: the O17 tuning fields that remain: token bucket, accept-edge
#: reject/postpone, file-I/O breaker and retry budget
O17_SETTINGS = (
    "shed_rate", "shed_burst", "shed_max_clients", "shed_retry_after",
    "shed_on_overload", "breaker_failures", "breaker_recovery",
    "breaker_probes", "retry_budget_ratio",
)


def test_o17_build_keeps_only_the_mechanisms_it_engages(tmp_path):
    """An O17 build has no setting, class or call site for the inert
    mechanisms: their settings are unknown and the package never names
    them."""
    from repro.co2p3s.template import load_generated_package

    opts = NSERVER.configure(COPS_HTTP_DEGRADATION_OPTIONS)
    report = NSERVER.generate(opts, str(tmp_path), package="o17_lean_fw")
    for filename, text in report.files.items():
        for name in ("AdaptiveController", "BrownoutController",
                     "wrap_queue", "admit_request", "SojournQueue"):
            assert name not in text, (filename, name)
    fw = load_generated_package(str(tmp_path), "o17_lean_fw")
    for name in DELETED_O17_SETTINGS:
        with pytest.raises(TypeError, match="unknown setting"):
            fw.ServerConfiguration(**{name: 1})
    configuration = fw.ServerConfiguration(
        **{name: getattr(fw.ServerConfiguration, name)
           for name in O17_SETTINGS})
    assert configuration.shed_rate == 100.0


def test_overload_build_without_o17_keeps_silent_postpone():
    """O9 alone is the paper's Fig 6 shape: the guarded accept loop
    postpones silently and no shedding vocabulary is generated."""
    report = render(COPS_HTTP_OVERLOAD_OPTIONS)
    comm = report.files["communication.py"]
    assert "if not self.reactor.overload.accepting():" in comm
    assert "shedding" not in comm
    assert "degradation.py" not in report.files


def test_buffered_write_path_emits_zero_buffer_code():
    """Every build writes through the library handle's segmented
    out-buffer: no buffers module and no buffer call site anywhere in
    the generated text, even with every option on."""
    report = render(ALL_FEATURES_ON)
    assert "buffers.py" not in report.files
    for filename, text in report.files.items():
        assert "Buffers" not in text, filename
        assert "OutBuffer" not in text, filename
        assert "buffer_pool" not in text, filename
        assert "buffer_size_classes" not in text, filename
        assert "out_buffer" not in text, filename


def test_table2_extension_rows_merge():
    assert "Observability" not in PAPER_TABLE2  # paper stays verbatim
    assert "Resilience" not in PAPER_TABLE2
    assert EXPECTED_TABLE2["Observability"]["O11"] == "O"
    assert EXPECTED_TABLE2["ServerComponent"]["O11"] == "+"
    assert EXPECTED_TABLE2["ServerConfiguration"]["O11"] == "+"
    assert EXPECTED_TABLE2["Resilience"]["O13"] == "O"
    assert EXPECTED_TABLE2["Reactor"]["O13"] == "+"
    assert EXPECTED_TABLE2["AcceptorEventHandler"]["O13"] == "+"
    assert EXPECTED_TABLE2["Server"]["O13"] == "+"
    assert EXPECTED_TABLE2["ServerConfiguration"]["O13"] == "+"
    assert "Buffers" not in EXPECTED_TABLE2
    assert all("O15" not in row for row in EXPECTED_TABLE2.values())
    assert EXPECTED_TABLE2["Degradation"] == {"O17": "O"}
    assert EXPECTED_TABLE2["Reactor"]["O17"] == "+"
    assert EXPECTED_TABLE2["AcceptorEventHandler"]["O17"] == "+"
    assert EXPECTED_TABLE2["ServerConfiguration"]["O17"] == "+"
    assert EXPECTED_TABLE2["Observability"]["O17"] == "+"
    # Extensions only add cells, never overwrite a paper cell.
    for name, row in TABLE2_EXTENSIONS.items():
        for key in row:
            assert PAPER_TABLE2.get(name, {}).get(key, "") == ""


def test_feature_code_present_when_enabled():
    report = render(ALL_FEATURES_ON)
    blob = "\n".join(report.files.values())
    assert "observability.connections_accepted.inc()" in blob
    assert "tracer.record(" in blob
    assert "overload" in blob
    assert "reap_idle" in blob
    assert "QuotaPriorityQueue" in blob
    assert "rt.SheddingPolicy" in blob
    assert "rt.CircuitBreaker" in blob


def test_dispatcher_threads_expression():
    one = render(ALL_FEATURES_ON).files["reactor.py"]
    two_n = render(dict(ALL_FEATURES_ON, O1="2N")).files["reactor.py"]
    assert "threads=1" in one
    assert "os.cpu_count()" in two_n


def test_generated_options_recorded_in_init():
    report = render(COPS_HTTP_OPTIONS)
    assert "GENERATED_OPTIONS" in report.files["__init__.py"]
    assert "'O6': 'LRU'" in report.files["__init__.py"]


def test_cache_policy_baked_in():
    lru = render(COPS_HTTP_OPTIONS).files["cache.py"]
    assert '"LRU"' in lru
    hyper = render(dict(COPS_HTTP_OPTIONS, O6="Hyper-G")).files["cache.py"]
    assert '"Hyper-G"' in hyper
    threshold = render(dict(COPS_HTTP_OPTIONS, O6="LRU-Threshold")).files["cache.py"]
    assert "make_policy" in threshold
    custom = render(dict(COPS_HTTP_OPTIONS, O6="Custom")).files["cache.py"]
    assert "make_cache_policy()" in custom


def test_generated_size_same_order_as_paper():
    """Table 4 reports 2,697 NCSS of generated code for COPS-HTTP; our
    generated framework should be the same order of magnitude (Python is
    more compact than Java)."""
    from repro.co2p3s import measure_source

    report = render(COPS_HTTP_OPTIONS)
    total = sum(measure_source(t).ncss for t in report.files.values())
    assert 250 <= total <= 5000


# -- Table 2: crosscut reproduction ------------------------------------------------


OPTION_KEYS = [s.key for s in NSERVER.option_specs()]


def _matrix_from(table):
    m = CrosscutMatrix(class_names=TABLE2_CLASS_ORDER,
                       option_keys=list(OPTION_KEYS))
    for name in TABLE2_CLASS_ORDER:
        m.cells[name] = {key: table.get(name, {}).get(key, "")
                         for key in OPTION_KEYS}
    return m


def paper_matrix():
    return _matrix_from(PAPER_TABLE2)


def expected_matrix():
    return _matrix_from(EXPECTED_TABLE2)


def test_empirical_crosscut_reproduces_paper_table2():
    emp = empirical_matrix(NSERVER, ALL_FEATURES_ON,
                           extra_bases=(POOL_TOGGLE_BASE,
                                        DEPLOYMENT_TOGGLE_BASE))
    diffs = emp.differences(expected_matrix())
    assert diffs == []
    # The only cells beyond the paper's table are the declared
    # observability extension rows.
    vs_paper = emp.differences(paper_matrix())
    assert vs_paper == [
        (name, key, value, "")
        for name in sorted(TABLE2_EXTENSIONS)
        for key, value in sorted(TABLE2_EXTENSIONS[name].items())
    ]


def test_declared_metadata_matches_empirical():
    emp = empirical_matrix(NSERVER, ALL_FEATURES_ON,
                           extra_bases=(POOL_TOGGLE_BASE,
                                        DEPLOYMENT_TOGGLE_BASE))
    dec = declared_matrix(NSERVER, ALL_FEATURES_ON)
    assert emp.differences(dec) == []


def test_format_matrix_renders():
    text = format_matrix(paper_matrix(), title="TABLE 2")
    assert "TABLE 2" in text
    assert "Reactor" in text and "O12" in text


def test_crosscut_every_option_crosscuts_multiple_classes():
    """The motivation for generation over a static framework: most
    options touch several classes."""
    m = paper_matrix()
    for key in (f"O{i}" for i in range(1, 13)):
        touched = sum(1 for name in TABLE2_CLASS_ORDER if m.cell(name, key))
        assert touched >= 1
    # O10 (debug mode) is the most crosscutting: 17 classes in the paper.
    o10 = sum(1 for n in TABLE2_CLASS_ORDER if m.cell(n, "O10"))
    assert o10 == 17
