"""Reproduce the paper's tables and figures from the command line.

    python -m repro.experiments table1
    python -m repro.experiments table2 table3 table4
    python -m repro.experiments fig5 --quick
    python -m repro.experiments all            # everything (~2 min)

``--quick`` shrinks durations/client counts for a fast sanity pass.
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.experiments import (
    format_degradation_cliff,
    format_fig3,
    format_fig3_poller,
    format_fig3_procs,
    format_fig4,
    format_fig5,
    format_fig6,
    format_table1,
    format_table2,
    format_table3,
    format_table4,
    run_capacity_sweep,
    run_degradation_cliff,
    run_fig5,
    run_fig6,
    run_poller_sweep,
    run_procs_sweep,
    run_table1,
    run_table2,
    run_table3,
    run_table4,
)

EXPERIMENTS = ("table1", "table2", "table3", "table4",
               "fig3", "fig4", "fig5", "fig6",
               "fig3-poller", "fig3-procs", "fig6-cliff")


def run_one(name: str, quick: bool, cache: dict) -> str:
    if name == "table1":
        return format_table1(run_table1())
    if name == "table2":
        return format_table2(run_table2())
    if name == "table3":
        return format_table3(run_table3())
    if name == "table4":
        return format_table4(run_table4())
    if name in ("fig3", "fig4"):
        if "sweep" not in cache:
            counts = (1, 8, 64, 256, 1024) if quick else \
                (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024)
            cache["sweep"] = run_capacity_sweep(
                client_counts=counts,
                duration=15.0 if quick else 40.0,
                warmup=5.0 if quick else 10.0)
        sweep = cache["sweep"]
        return format_fig3(sweep) if name == "fig3" else format_fig4(sweep)
    if name == "fig3-poller":
        results = run_poller_sweep(
            idle_counts=(0, 256) if quick else (0, 512, 2048),
            requests=120 if quick else 300)
        return format_fig3_poller(results)
    if name == "fig3-procs":
        results = run_procs_sweep(
            proc_counts=(1, 2) if quick else (1, 2, 4),
            requests=96 if quick else 256)
        return format_fig3_procs(results)
    if name == "fig5":
        points, portal_only = run_fig5(
            ratios=((1, 1), (1, 4)) if quick else ((1, 1), (1, 2), (1, 4), (1, 10)),
            clients=176 if quick else 192,
            duration=15.0 if quick else 30.0,
            warmup=4.0 if quick else 8.0)
        return format_fig5(points, portal_only)
    if name == "fig6":
        points = run_fig6(
            client_counts=(8, 64) if quick else (1, 4, 16, 32, 64, 128),
            duration=15.0 if quick else 30.0,
            warmup=4.0 if quick else 8.0)
        return format_fig6(points)
    if name == "fig6-cliff":
        points = run_degradation_cliff(
            client_counts=(16, 64) if quick else (16, 32, 64, 96),
            duration=10.0 if quick else 20.0,
            warmup=3.0 if quick else 6.0)
        return format_degradation_cliff(points)
    raise ValueError(name)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Reproduce the paper's tables and figures")
    parser.add_argument("experiments", nargs="+",
                        choices=EXPERIMENTS + ("all",))
    parser.add_argument("--quick", action="store_true",
                        help="smaller sweeps for a fast sanity pass")
    args = parser.parse_args(argv)

    names = list(EXPERIMENTS) if "all" in args.experiments \
        else list(dict.fromkeys(args.experiments))
    cache: dict = {}
    for name in names:
        started = time.monotonic()
        output = run_one(name, args.quick, cache)
        elapsed = time.monotonic() - started
        print(output)
        print(f"[{name}: {elapsed:.1f}s]\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
