"""Experiment harnesses: one module per table/figure of the paper.

Each ``run_*`` function performs the experiment and returns structured
results; each ``format_*`` renders the same rows/series the paper
reports.  The ``benchmarks/`` directory wraps these in pytest-benchmark
targets.
"""

from repro.experiments.table1 import format_table1, run_table1
from repro.experiments.table2 import format_table2, run_table2
from repro.experiments.table3 import format_table3, run_table3
from repro.experiments.table4 import format_table4, run_table4
from repro.experiments.fig3_fig4 import (
    CapacityPoint,
    format_fig3,
    format_fig4,
    run_capacity_sweep,
)
from repro.experiments.fig3_poller import (
    PollerPoint,
    format_fig3_poller,
    run_poller_sweep,
)
from repro.experiments.fig3_procs import (
    CpuBoundHooks,
    ProcsPoint,
    format_fig3_procs,
    run_procs_sweep,
)
from repro.experiments.fig5 import format_fig5, run_fig5
from repro.experiments.fig6 import format_fig6, run_fig6
from repro.experiments.degradation import (
    CliffPoint,
    format_degradation_cliff,
    goodput_retention,
    run_degradation_cliff,
    tune_watermark,
)

__all__ = [
    "CapacityPoint",
    "CliffPoint",
    "format_degradation_cliff",
    "goodput_retention",
    "run_degradation_cliff",
    "tune_watermark",
    "CpuBoundHooks",
    "ProcsPoint",
    "format_fig3",
    "format_fig3_poller",
    "format_fig3_procs",
    "run_procs_sweep",
    "format_fig4",
    "format_fig5",
    "format_fig6",
    "format_table1",
    "format_table2",
    "format_table3",
    "format_table4",
    "run_capacity_sweep",
    "run_fig5",
    "run_fig6",
    "run_table1",
    "run_poller_sweep",
    "PollerPoint",
    "run_table2",
    "run_table3",
    "run_table4",
]
