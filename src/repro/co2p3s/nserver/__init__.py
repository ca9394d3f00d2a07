"""The N-Server pattern template (the paper's contribution).

``NSERVER`` is the registered template instance; the Table 1 application
configurations are exported alongside it.  The Table 2 data
(:mod:`repro.co2p3s.nserver.table2`) is only read by the crosscut
analysis and its tests, so its names load on first use.
"""

from repro import lazy_exports
from repro.co2p3s.nserver.generator import NSERVER, NSERVER_MODULES, NServerTemplate
from repro.co2p3s.nserver.options import (
    ALL_FEATURES_ON,
    COPS_FTP_OPTIONS,
    COPS_HTTP_OPTIONS,
    COPS_HTTP_DEGRADATION_OPTIONS,
    COPS_HTTP_OBSERVABILITY_OPTIONS,
    COPS_HTTP_OVERLOAD_OPTIONS,
    COPS_HTTP_RESILIENCE_OPTIONS,
    COPS_HTTP_SCHEDULING_OPTIONS,
    DEPLOYMENT_TOGGLE_BASE,
    NSERVER_OPTION_SPECS,
    POOL_TOGGLE_BASE,
    option_table_rows,
)

__getattr__, __dir__, _ = lazy_exports(__name__, globals(), {
    "table2": (
        "EXPECTED_TABLE2", "PAPER_TABLE2", "TABLE2_CLASS_ORDER",
        "TABLE2_EXTENSIONS",
    ),
})

__all__ = [
    "ALL_FEATURES_ON",
    "EXPECTED_TABLE2",
    "PAPER_TABLE2",
    "POOL_TOGGLE_BASE",
    "TABLE2_CLASS_ORDER",
    "TABLE2_EXTENSIONS",
    "COPS_FTP_OPTIONS",
    "COPS_HTTP_OPTIONS",
    "COPS_HTTP_DEGRADATION_OPTIONS",
    "COPS_HTTP_OBSERVABILITY_OPTIONS",
    "COPS_HTTP_OVERLOAD_OPTIONS",
    "COPS_HTTP_RESILIENCE_OPTIONS",
    "COPS_HTTP_SCHEDULING_OPTIONS",
    "DEPLOYMENT_TOGGLE_BASE",
    "NSERVER",
    "NSERVER_MODULES",
    "NSERVER_OPTION_SPECS",
    "NServerTemplate",
    "option_table_rows",
]
