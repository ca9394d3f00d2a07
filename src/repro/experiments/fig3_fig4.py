"""Figs 3 and 4: COPS-HTTP vs Apache — throughput and service fairness
versus the number of web clients (1..1024, log-scale x axis).

One sweep produces both figures: Fig 3 plots throughput, Fig 4 plots the
Jain fairness index of per-client response counts, from the same runs
(as in the paper).

Shape targets (paper):

* Apache slightly better under light load (< 32 clients);
* COPS-HTTP higher from ~32 to ~512 clients;
* both saturate beyond ~256 (the network is the bottleneck);
* Apache slightly better at 1024 — "at the expense of fairness":
  its Jain index collapses to ~0.51 while COPS-HTTP stays near 1.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Sequence

from repro.analysis import render_series
from repro.sim.testbed import TestbedConfig, run_testbed

__all__ = ["CapacityPoint", "run_capacity_sweep", "format_fig3",
           "format_fig4", "DEFAULT_CLIENT_COUNTS"]

DEFAULT_CLIENT_COUNTS = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024)


@dataclass
class CapacityPoint:
    server: str
    clients: int
    throughput: float
    fairness: float
    response_mean: float
    combined_mean: float
    syn_drops: int
    link_utilization: float
    cpu_utilization: float


def run_capacity_sweep(
    client_counts: Sequence[int] = DEFAULT_CLIENT_COUNTS,
    servers: Sequence[str] = ("apache", "cops"),
    duration: float = 40.0,
    warmup: float = 10.0,
    base: TestbedConfig | None = None,
) -> Dict[str, List[CapacityPoint]]:
    """The Fig 3/4 sweep: one testbed run per (server, client count)."""
    base = base or TestbedConfig()
    results: Dict[str, List[CapacityPoint]] = {s: [] for s in servers}
    for clients in client_counts:
        for server in servers:
            cfg = replace(base, server=server, clients=clients,
                          duration=duration, warmup=warmup)
            r = run_testbed(cfg)
            results[server].append(CapacityPoint(
                server=server,
                clients=clients,
                throughput=r.throughput,
                fairness=r.fairness,
                response_mean=r.response_mean,
                combined_mean=r.combined_mean,
                syn_drops=r.syn_drops,
                link_utilization=r.link_utilization,
                cpu_utilization=r.cpu_utilization,
            ))
    return results


def _series(results: Dict[str, List[CapacityPoint]], attr: str) -> dict:
    names = {"apache": "Apache", "cops": "COPS-HTTP"}
    return {names.get(s, s): [getattr(p, attr) for p in pts]
            for s, pts in results.items()}


def format_fig3(results: Dict[str, List[CapacityPoint]]) -> str:
    xs = [p.clients for p in next(iter(results.values()))]
    return render_series(
        "clients", xs, _series(results, "throughput"),
        title="FIG 3 — THROUGHPUT (responses/s) vs NUMBER OF WEB CLIENTS",
        fmt="{:.1f}")


def format_fig4(results: Dict[str, List[CapacityPoint]]) -> str:
    xs = [p.clients for p in next(iter(results.values()))]
    return render_series(
        "clients", xs, _series(results, "fairness"),
        title="FIG 4 — SERVICE FAIRNESS (Jain index) vs NUMBER OF WEB CLIENTS",
        fmt="{:.3f}")
