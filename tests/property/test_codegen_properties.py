"""Property-based tests over the N-Server template's option space.

For *every legal option combination* (the constraint-respecting subset
of the 12-option cross product is large, so hypothesis samples it):

* generation succeeds and every emitted module parses;
* the 27-class inventory matches the existence rules;
* the __init__ records exactly the options used;
* rendering is deterministic (same options -> byte-identical output).
"""

import ast

from hypothesis import assume, given, settings, strategies as st

from repro.co2p3s import OptionError
from repro.co2p3s.nserver import NSERVER

OPTION_VALUES = {
    "O1": st.sampled_from(["1", "2N"]),
    "O2": st.booleans(),
    "O3": st.booleans(),
    "O4": st.sampled_from(["Asynchronous", "Synchronous"]),
    "O5": st.sampled_from(["Dynamic", "Static"]),
    "O6": st.sampled_from([None, "LRU", "LFU", "LRU-MIN",
                           "LRU-Threshold", "Hyper-G", "Custom"]),
    "O7": st.booleans(),
    "O8": st.booleans(),
    "O9": st.booleans(),
    "O10": st.sampled_from(["Production", "Debug"]),
    "O11": st.booleans(),
    "O12": st.booleans(),
}

option_sets = st.fixed_dictionaries(OPTION_VALUES)


def legal(config) -> bool:
    try:
        NSERVER.validate(NSERVER.configure(config))
        return True
    except OptionError:
        return False


@given(config=option_sets)
@settings(max_examples=60, deadline=None)
def test_every_legal_config_generates_valid_python(config):
    assume(legal(config))
    report = NSERVER.render(NSERVER.configure(config), package="prop")
    assert report.files
    for filename, text in report.files.items():
        ast.parse(text)


@given(config=option_sets)
@settings(max_examples=60, deadline=None)
def test_class_inventory_follows_existence_rules(config):
    assume(legal(config))
    report = NSERVER.render(NSERVER.configure(config), package="prop")
    names = set(report.class_names())
    # No build emits the event or handle subclass modules.
    assert "events.py" not in report.files
    assert "handles.py" not in report.files
    assert ("Cache" in names) == (config["O6"] is not None)
    assert ("ProcessorController" in names) == (config["O5"] == "Dynamic")
    assert ("Observability" in names) == config["O11"]
    assert ("DecodeRequestEventHandler" in names) == config["O3"]
    assert ("EncodeReplyEventHandler" in names) == config["O3"]
    # The unconditional core is always present.
    for always in ("Reactor", "Server",
                   "CommunicatorComponent", "EventDispatcher",
                   "EventProcessor", "AcceptorEventHandler",
                   "ServerConfiguration"):
        assert always in names


@given(config=option_sets)
@settings(max_examples=30, deadline=None)
def test_rendering_is_deterministic(config):
    assume(legal(config))
    opts = NSERVER.configure(config)
    a = NSERVER.render(opts, package="prop").files
    b = NSERVER.render(opts, package="prop").files
    assert a == b


@given(config=option_sets)
@settings(max_examples=30, deadline=None)
def test_init_records_options(config):
    assume(legal(config))
    report = NSERVER.render(NSERVER.configure(config), package="prop")
    init = report.files["__init__.py"]
    namespace = {}
    exec(compile("GENERATED_OPTIONS = " + init.split("GENERATED_OPTIONS = ")[1],
                 "<init>", "exec"), namespace)
    assert namespace["GENERATED_OPTIONS"] == NSERVER.configure(config).as_dict()


@given(config=option_sets)
@settings(max_examples=20, deadline=None)
def test_illegal_configs_are_rejected_not_miscompiled(config):
    assume(not legal(config))
    try:
        NSERVER.render(NSERVER.configure(config), package="prop")
    except OptionError:
        pass
    else:
        raise AssertionError("illegal config rendered without error")
