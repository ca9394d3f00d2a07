"""Testbed assembly: one call builds the simulated hardware, a server
model and N closed-loop clients, runs warm-up plus a measurement
window, and returns the metrics the paper's figures report.

This is the simulated counterpart of the paper's physical testbed (two
Sun E420R servers, 16 Ultra 10 clients, switched Ethernet at an
effective ~100 Mbit/s).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Optional

from repro.sim.clients import ClientBehavior, web_client
from repro.sim.core import Simulator
from repro.sim.disk import Disk, OsBufferCache
from repro.sim.link import Link
from repro.sim.metrics import ExperimentMetrics
from repro.sim.servers import EventDrivenServer, PreforkServer, ServerParams
from repro.workload import SpecWebFileSet

__all__ = ["TestbedConfig", "TestbedResult", "run_testbed"]


@dataclass
class TestbedConfig:
    """Everything one experiment point needs.

    Defaults reproduce the Fig 3/4 setup; the Fig 5/6 harnesses override
    the relevant fields (see ``repro.experiments``).
    """

    __test__ = False  # starts with "Test" but is not a pytest class

    server: str = "cops"    # cops | apache
    clients: int = 64
    duration: float = 60.0          # measurement window (simulated s)
    warmup: float = 10.0
    seed: int = 1

    # client behaviour (per paper + calibration)
    requests_per_connection: int = 5
    think_time: float = 0.020
    wan_delay: float = 0.130
    #: client id -> content class (Fig 5 uses {"portal", "home"})
    client_classes: Dict[int, str] = field(default_factory=dict)
    #: content class -> scheduling priority (Fig 5)
    class_priorities: Dict[str, int] = field(default_factory=dict)

    # network
    bandwidth_bps: float = 80e6
    mtu: int = 1500

    # server host
    cpus: int = 4
    backlog: int = 256
    cpu_per_request: float = 0.004
    decode_extra_cpu: float = 0.0

    # workload / storage
    fileset_mb: float = 204.8
    os_buffer_mb: int = 80
    app_cache_mb: int = 20
    zipf_alpha: float = 1.0

    # apache model
    apache_workers: int = 150
    apache_overhead: float = 0.002
    apache_sched_latency: float = 0.0005

    #: clients start uniformly inside this window (prevents lockstep SYNs)
    start_stagger: float = 3.0

    # cops model
    processor_threads: int = 4
    file_io_threads: int = 2
    cache_policy: Optional[str] = "LRU"
    scan_coefficient: float = 3.5e-6
    dispatch_latency: float = 0.003
    scheduling_quotas: Dict[int, int] = field(default_factory=dict)
    overload: bool = False
    overload_high: int = 20
    overload_low: int = 5

    # degradation plane (template option O17; requires ``overload``)
    degradation: bool = False
    shed_rate: float = 5.0          # per-client token-bucket conn/s
    shed_burst: float = 10.0
    shed_retry_after: float = 1.0
    sojourn_deadline: Optional[float] = 0.4
    sojourn_interval: float = 0.1
    #: client-experienced deadline a response must meet to count toward
    #: :attr:`TestbedResult.goodput`
    goodput_deadline: float = 0.5


@dataclass
class TestbedResult:
    """What one run yields (inputs for the figure benches)."""

    __test__ = False  # starts with "Test" but is not a pytest class

    config: TestbedConfig
    throughput: float
    fairness: float
    total_responses: int
    class_throughput: Dict[str, float]
    response_mean: float
    combined_mean: float
    response_p90: float
    response_p99: float
    #: responses/s whose client-experienced time met ``goodput_deadline``
    goodput: float
    #: explicit shed decisions (0 unless the server runs the O17 plane)
    shed_total: int
    rejected_connections: int
    rejected_requests: int
    cache_hit_rate: Optional[float]
    os_buffer_hit_rate: float
    syn_drops: int
    connect_wait_mean: float
    link_utilization: float
    cpu_utilization: float


def build_server(cfg: TestbedConfig, sim: Simulator, downlink: Link,
                 disk: Disk):
    params = ServerParams(cpus=cfg.cpus, backlog=cfg.backlog,
                          cpu_per_request=cfg.cpu_per_request,
                          decode_extra_cpu=cfg.decode_extra_cpu)
    if cfg.degradation and cfg.server != "cops":
        raise ValueError(
            "degradation (O17) is modelled for the event-driven server "
            f"only, not {cfg.server!r}")
    if cfg.server == "apache":
        return PreforkServer(sim, downlink, disk, params,
                             workers=cfg.apache_workers,
                             overhead_coefficient=cfg.apache_overhead,
                             sched_latency=cfg.apache_sched_latency)
    if cfg.server == "cops":
        return EventDrivenServer(
            sim, downlink, disk, params,
            processor_threads=cfg.processor_threads,
            file_io_threads=cfg.file_io_threads,
            cache_bytes=cfg.app_cache_mb * 1024 * 1024,
            cache_policy=cfg.cache_policy,
            scan_coefficient=cfg.scan_coefficient,
            dispatch_latency=cfg.dispatch_latency,
            scheduling_quotas=dict(cfg.scheduling_quotas) or None,
            priority_of_class=dict(cfg.class_priorities) or None,
            overload=cfg.overload,
            overload_high=cfg.overload_high,
            overload_low=cfg.overload_low,
            degradation=cfg.degradation,
            shed_rate=cfg.shed_rate,
            shed_burst=cfg.shed_burst,
            shed_retry_after=cfg.shed_retry_after,
            sojourn_deadline=cfg.sojourn_deadline,
            sojourn_interval=cfg.sojourn_interval,
        )
    raise ValueError(f"unknown server model {cfg.server!r}")


def run_testbed(cfg: TestbedConfig) -> TestbedResult:
    """Build, warm up, measure, summarise."""
    sim = Simulator()
    downlink = Link(sim, bandwidth_bps=cfg.bandwidth_bps, mtu=cfg.mtu)
    uplink = Link(sim, bandwidth_bps=cfg.bandwidth_bps, mtu=cfg.mtu)
    os_buffer = OsBufferCache(capacity_bytes=cfg.os_buffer_mb * 1024 * 1024)
    disk = Disk(sim, buffer_cache=os_buffer)
    fileset = SpecWebFileSet(cfg.fileset_mb, zipf_alpha=cfg.zipf_alpha,
                             seed=cfg.seed)
    server = build_server(cfg, sim, downlink, disk)
    server.start()

    metrics = ExperimentMetrics(sim, warmup=cfg.warmup)

    import numpy as np

    rng = np.random.default_rng(cfg.seed)

    for client_id in range(cfg.clients):
        content_class = cfg.client_classes.get(client_id, "default")
        behavior = ClientBehavior(
            requests_per_connection=cfg.requests_per_connection,
            think_time=cfg.think_time,
            wan_delay=cfg.wan_delay,
            content_class=content_class,
            priority=cfg.class_priorities.get(content_class, 0),
            start_offset=float(rng.uniform(0.0, cfg.start_stagger)),
            rto_jitter=lambda: float(rng.uniform(0.8, 1.2)),
        )
        sim.process(
            web_client(sim, client_id, server, uplink, fileset.sample,
                       metrics, behavior),
            name=f"client-{client_id}",
        )

    sim.run(until=cfg.warmup + cfg.duration)

    duration = cfg.duration
    cache_stats = getattr(server, "cache", None)
    response = metrics.response_summary()
    combined = metrics.combined_summary()
    waits = metrics.connect_waits
    return TestbedResult(
        config=cfg,
        throughput=metrics.throughput(duration),
        fairness=metrics.fairness(range(cfg.clients)),
        total_responses=metrics.total_responses,
        class_throughput={c: metrics.class_throughput(c, duration)
                          for c in metrics.responses_by_class},
        response_mean=response.mean if response else 0.0,
        combined_mean=combined.mean if combined else 0.0,
        response_p90=response.p90 if response else 0.0,
        response_p99=response.p99 if response else 0.0,
        goodput=metrics.goodput(duration, cfg.goodput_deadline),
        shed_total=getattr(server, "shed_total", 0),
        rejected_connections=getattr(server, "rejected_connections", 0),
        rejected_requests=getattr(server, "rejected_requests", 0),
        cache_hit_rate=(cache_stats.stats.hit_rate
                        if cache_stats is not None else None),
        os_buffer_hit_rate=os_buffer.stats.hit_rate,
        syn_drops=server.listen.syn_drops,
        connect_wait_mean=(sum(waits) / len(waits)) if waits else 0.0,
        link_utilization=downlink.utilization(cfg.warmup + cfg.duration),
        cpu_utilization=server.cpu.utilization(cfg.warmup + cfg.duration),
    )
