"""Graceful degradation vs the overload cliff (template option O17).

The scenario extends Fig 6's CPU-bound setup (50 ms decode, watermarks
20/5) far past saturation and scores each run by **goodput**: responses
per second whose *client-experienced* time — response time plus the
amortized connection-establishment wait — met a deadline.  A response
the client had stopped waiting for is not good.

Three variants tell the story:

* ``none`` — no admission control at all: the reactive queue grows
  without bound, response times blow through the deadline, goodput
  falls off a cliff;
* ``postpone`` — the paper's O9 silent postpone: established
  connections stay fast (the Fig 6 result), but waiting clients pile
  up in the kernel backlog and SYN-retransmit backoff, so the
  *combined* time explodes and goodput falls off the same cliff;
* ``degradation`` — the O17 plane: overload produces explicit cheap
  503 + ``Retry-After`` rejections that keep draining the backlog,
  the per-client token buckets keep the shedding fair, and CoDel
  sojourn drops bound in-queue waiting.  Admitted clients stay inside
  the deadline, so goodput holds near its peak at any overload.

``tune_watermark`` tunes the overload high watermark offline: coordinate
hill-climbing against the simulated testbed's goodput.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.analysis import render_series
from repro.runtime import hill_climb
from repro.sim.testbed import TestbedConfig, run_testbed

__all__ = [
    "CliffPoint",
    "DEFAULT_CLIFF_CLIENTS",
    "VARIANTS",
    "run_degradation_cliff",
    "format_degradation_cliff",
    "goodput_retention",
    "tune_watermark",
]

DEFAULT_CLIFF_CLIENTS = (16, 32, 64, 96)

#: admission-control variants, weakest first
VARIANTS = ("none", "postpone", "degradation")


@dataclass
class CliffPoint:
    clients: int
    variant: str
    throughput: float
    goodput: float
    response_p99: float
    combined_mean: float
    shed_total: int
    syn_drops: int


def _cliff_config(
    variant: str,
    clients: int,
    duration: float,
    warmup: float,
    decode_sleep: float,
    deadline: float,
    high: int,
    low: int,
) -> TestbedConfig:
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    return TestbedConfig(
        server="cops", clients=clients,
        duration=duration, warmup=warmup,
        decode_extra_cpu=decode_sleep,
        overload=(variant != "none"),
        overload_high=high, overload_low=low,
        degradation=(variant == "degradation"),
        goodput_deadline=deadline,
    )


def run_degradation_cliff(
    client_counts: Sequence[int] = DEFAULT_CLIFF_CLIENTS,
    duration: float = 20.0,
    warmup: float = 6.0,
    decode_sleep: float = 0.050,
    deadline: float = 0.5,
    high: int = 20,
    low: int = 5,
    variants: Sequence[str] = VARIANTS,
) -> List[CliffPoint]:
    points = []
    for clients in client_counts:
        for variant in variants:
            r = run_testbed(_cliff_config(
                variant, clients, duration, warmup,
                decode_sleep, deadline, high, low))
            points.append(CliffPoint(
                clients=clients,
                variant=variant,
                throughput=r.throughput,
                goodput=r.goodput,
                response_p99=r.response_p99,
                combined_mean=r.combined_mean,
                shed_total=r.shed_total,
                syn_drops=r.syn_drops,
            ))
    return points


def goodput_retention(points: Sequence[CliffPoint], variant: str) -> float:
    """Goodput at the deepest overload as a fraction of the variant's
    peak goodput anywhere in the sweep (1.0 = perfectly graceful)."""
    by_n = {p.clients: p.goodput for p in points if p.variant == variant}
    if not by_n:
        return 0.0
    peak = max(by_n.values())
    return by_n[max(by_n)] / peak if peak > 0 else 0.0


def format_degradation_cliff(points: Sequence[CliffPoint]) -> str:
    xs = sorted({p.clients for p in points})
    variants = [v for v in VARIANTS
                if any(p.variant == v for p in points)]

    def pick(variant: str, attr: str) -> list:
        by_n = {p.clients: getattr(p, attr)
                for p in points if p.variant == variant}
        return [by_n.get(n) for n in xs]

    series = {}
    for variant in variants:
        series[f"goodput ({variant})/s"] = pick(variant, "goodput")
    for variant in variants:
        series[f"thr ({variant})/s"] = pick(variant, "throughput")
    if any(p.variant == "degradation" for p in points):
        series["shed (degradation)"] = pick("degradation", "shed_total")
    retention = ", ".join(
        f"{v}={goodput_retention(points, v):.0%}" for v in variants)
    return render_series(
        "clients", xs, series,
        title="O17 — GOODPUT UNDER OVERLOAD: GRACEFUL VS CLIFF "
              f"[retention at max load: {retention}]",
        fmt="{:.1f}")


def tune_watermark(
    clients: int = 64,
    duration: float = 8.0,
    warmup: float = 3.0,
    decode_sleep: float = 0.050,
    deadline: float = 0.5,
    initial: int = 20,
    lo: int = 4,
    hi: int = 64,
    budget: int = 8,
) -> Tuple[int, float]:
    """Hill-climb the overload high watermark against sim goodput.

    Each probe runs the ``degradation`` variant on the deterministic
    testbed with the low watermark at a quarter of the high one;
    returns ``(best_high, best_goodput)``."""

    def evaluate(high: int) -> float:
        return run_testbed(_cliff_config(
            "degradation", clients, duration, warmup,
            decode_sleep, deadline,
            high=high, low=max(1, high // 4))).goodput

    return hill_climb(evaluate, initial=initial, lo=lo, hi=hi,
                      steps=(16, 8, 4, 2, 1), budget=budget)
