"""The twelve N-Server options (Table 1) and the paper's configurations.

Option keys are the paper's O1..O12.  The two application columns of
Table 1 are reproduced as :data:`COPS_FTP_OPTIONS` and
:data:`COPS_HTTP_OPTIONS`; the second and third COPS-HTTP experiments
(event scheduling / overload control, Figs 5 and 6) are the variant
dictionaries below.
"""

from __future__ import annotations

from typing import Dict, List

from repro.co2p3s.options import OptionSet, OptionSpec

__all__ = [
    "NSERVER_OPTION_SPECS",
    "COPS_FTP_OPTIONS",
    "COPS_HTTP_OPTIONS",
    "COPS_HTTP_OBSERVABILITY_OPTIONS",
    "COPS_HTTP_RESILIENCE_OPTIONS",
    "COPS_HTTP_SCHEDULING_OPTIONS",
    "COPS_HTTP_OVERLOAD_OPTIONS",
    "COPS_HTTP_DEGRADATION_OPTIONS",
    "ALL_FEATURES_ON",
    "POOL_TOGGLE_BASE",
    "DEGRADATION_TOGGLE_BASE",
    "DEPLOYMENT_TOGGLE_BASE",
    "option_table_rows",
    "enabled",
    "disabled",
    "debug_mode",
    "production_mode",
    "async_io",
    "sync_io",
    "dynamic_threads",
    "static_threads",
    "multiproc",
]

CACHE_POLICIES = ("LRU", "LFU", "LRU-MIN", "LRU-Threshold", "Hyper-G", "Custom")

NSERVER_OPTION_SPECS = (
    OptionSpec(key="O1", name="# of dispatcher threads",
               describe_values="1 or 2N", default="1",
               values=("1", "2N")),
    OptionSpec(key="O2", name="Separate thread pool for event handling",
               describe_values="Yes/No", default=True,
               values=(True, False)),
    OptionSpec(key="O3", name="Encoding/Decoding required",
               describe_values="Yes/No", default=True,
               values=(True, False)),
    OptionSpec(key="O4", name="Completion events",
               describe_values="Asynchronous/Synchronous",
               default="Asynchronous",
               values=("Asynchronous", "Synchronous")),
    OptionSpec(key="O5", name="Event thread allocation",
               describe_values="Dynamic/Static", default="Static",
               values=("Dynamic", "Static")),
    OptionSpec(key="O6", name="File cache",
               describe_values="Yes (LRU, LFU, LRU-MIN, LRU-Threshold, "
                               "Hyper-G or Custom) / No",
               default=None,
               values=(None,) + CACHE_POLICIES),
    OptionSpec(key="O7", name="Shutdown long idle",
               describe_values="Yes/No", default=False,
               values=(True, False)),
    OptionSpec(key="O8", name="Event scheduling",
               describe_values="Yes/No", default=False,
               values=(True, False)),
    OptionSpec(key="O9", name="Overload control",
               describe_values="Yes/No", default=False,
               values=(True, False)),
    OptionSpec(key="O10", name="Mode",
               describe_values="Production/Debug", default="Production",
               values=("Production", "Debug")),
    OptionSpec(key="O11", name="Performance profiling",
               describe_values="Yes/No", default=False,
               values=(True, False)),
    OptionSpec(key="O12", name="Logging",
               describe_values="Yes/No", default=False,
               values=(True, False)),
    # Extension beyond the paper's Table 1 (like O11's observability
    # half): fault tolerance — per-stage deadlines, worker supervision,
    # poison-event quarantine, hardened accept and graceful drain.
    OptionSpec(key="O13", name="Fault tolerance",
               describe_values="Yes/No", default=False,
               values=(True, False)),
    # Sixth structural extension: multi-process deployment — N worker
    # processes (each a fresh interpreter running its own reactor)
    # accepting from one shared SO_REUSEPORT
    # listening socket under a ProcessSupervisor with crash respawn
    # and SIGHUP rolling restarts.  O16=1 is the paper's
    # single-process shape and emits zero deployment code.
    OptionSpec(key="O16", name="Deployment (worker processes)",
               describe_values="1, 2, 4 or 8", default=1,
               values=(1, 2, 4, 8)),
    # Fourth structural extension: the graceful-degradation plane.
    # O17=Yes upgrades O9's silent accept/postpone latch to explicit
    # decisions — per-client rate limiting and cheap 503 + Retry-After
    # rejection — and puts a circuit breaker with a retry budget
    # around file I/O.  O17=No is the paper's shape and emits zero new
    # code.
    OptionSpec(key="O17", name="Degradation policy",
               describe_values="Yes/No", default=False,
               values=(True, False)),
)

# -- option predicates ---------------------------------------------------------
# The guards the template's fragments and context builder test, each
# defined once.  ``o`` is an OptionSet.


def enabled(key):
    """Guard: option ``key`` is on (Yes, or a cache policy for O6)."""
    return lambda o: bool(o[key])


def disabled(key):
    """Guard: option ``key`` is off (No, or no cache for O6)."""
    return lambda o: not o[key]


def debug_mode(o):
    return o["O10"] == "Debug"


def production_mode(o):
    return o["O10"] == "Production"


def async_io(o):
    return o["O4"] == "Asynchronous"


def sync_io(o):
    return o["O4"] == "Synchronous"


def dynamic_threads(o):
    return o["O5"] == "Dynamic"


def static_threads(o):
    return o["O5"] == "Static"


def multiproc(o):
    return int(o["O16"]) > 1


#: Table 1, COPS-FTP column.
COPS_FTP_OPTIONS: Dict[str, object] = {
    "O1": "1",
    "O2": True,
    "O3": True,
    "O4": "Synchronous",
    "O5": "Dynamic",
    "O6": None,
    "O7": True,
    "O8": False,
    "O9": False,
    "O10": "Production",
    "O11": False,
    "O12": False,
    "O13": False,
}

#: Table 1, COPS-HTTP column (first experiment: Figs 3/4).
COPS_HTTP_OPTIONS: Dict[str, object] = {
    "O1": "1",
    "O2": True,
    "O3": True,
    "O4": "Asynchronous",
    "O5": "Static",
    "O6": "LRU",
    "O7": False,
    "O8": False,
    "O9": False,
    "O10": "Production",
    "O11": False,
    "O12": False,
    "O13": False,
}

#: Second COPS-HTTP experiment (Fig 5): event scheduling on, cache off.
COPS_HTTP_SCHEDULING_OPTIONS = dict(COPS_HTTP_OPTIONS, O8=True, O6=None)

#: Third COPS-HTTP experiment (Fig 6): overload control on.
COPS_HTTP_OVERLOAD_OPTIONS = dict(COPS_HTTP_OPTIONS, O9=True)

#: COPS-HTTP with the unified observability layer (O11=Yes): the
#: generated framework answers ``GET /server-status`` with live
#: counters, per-stage latency quantiles and sampler gauges.
COPS_HTTP_OBSERVABILITY_OPTIONS = dict(COPS_HTTP_OPTIONS, O11=True)

#: COPS-HTTP hardened for fault injection (O11+O13): observable *and*
#: resilient — deadlines, supervised workers, quarantine, graceful
#: drain, with the resilience counters on ``/server-status``.
COPS_HTTP_RESILIENCE_OPTIONS = dict(
    COPS_HTTP_OBSERVABILITY_OPTIONS, O13=True)

#: COPS-HTTP with the graceful-degradation plane (O9+O11+O17): overload
#: now *answers* — 503 + Retry-After, per-client rate limits — instead
#: of silently postponing, with the whole plane observable on
#: ``/server-status?auto``.  The graceful-vs-cliff experiment shape.
COPS_HTTP_DEGRADATION_OPTIONS = dict(
    COPS_HTTP_OBSERVABILITY_OPTIONS, O9=True, O17=True)

#: Everything enabled — the base point for the Table 2 crosscut analysis
#: (all optional classes exist, so existence toggles are observable).
ALL_FEATURES_ON: Dict[str, object] = {
    "O1": "1",
    "O2": True,
    "O3": True,
    "O4": "Asynchronous",
    "O5": "Dynamic",
    "O6": "LRU",
    "O7": True,
    "O8": True,
    "O9": True,
    "O10": "Debug",
    "O11": True,
    "O12": True,
    "O13": True,
    "O16": 2,
    "O17": True,
}

#: Secondary crosscut base: with scheduling / overload / dynamic threads
#: off, O2 (the thread pool itself) becomes legal to toggle — needed to
#: observe the O2 column of Table 2 empirically.
POOL_TOGGLE_BASE: Dict[str, object] = dict(
    ALL_FEATURES_ON, O5="Static", O8=False, O9=False, O17=False)

#: Third crosscut base: the fully-featured build in one process
#: (O16=1).  At O16>1 the Server delegates every call to the
#: Deployment component; from this base the in-process facade and
#: every option toggle around it are generated and audited too.
DEPLOYMENT_TOGGLE_BASE: Dict[str, object] = dict(
    ALL_FEATURES_ON, O16=1)


def _show(value) -> str:
    if value is True:
        return "Yes"
    if value is False:
        return "No"
    if value is None:
        return "No"
    return str(value)


def option_table_rows(*columns: Dict[str, object]) -> List[List[str]]:
    """Rows of the Table 1 reproduction: option name, legal values, then
    one column per configuration dict."""
    rows = []
    for spec in NSERVER_OPTION_SPECS:
        row = [f"{spec.key}: {spec.name}", spec.describe_values]
        for col in columns:
            value = col.get(spec.key, spec.default)
            shown = _show(value)
            if spec.key == "O6" and value not in (None, False):
                shown = f"Yes: {value}"
            row.append(shown)
        rows.append(row)
    return rows
