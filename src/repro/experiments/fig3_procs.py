"""Fig 3 (O16 extension): throughput scaling across worker processes.

The paper's Fig 3 measures capacity of one generated server process;
the O16 deployment extension asks the follow-on question: what does
regenerating the *same* template with ``procs: N`` buy on a multi-core
host?  Python makes the regime choice stark — the GIL serialises
CPU-bound hook work across threads inside one interpreter, so Event
Processor pools (O1/O2) cannot scale a compute-heavy handle hook.
Worker processes can: each is a whole interpreter with its own GIL,
accepting on the shared ``SO_REUSEPORT`` socket.

The experiment generates the framework at O16 = 1, 2, 4 with a
deliberately CPU-bound hook (iterated SHA-256 over small chunks —
hashlib only releases the GIL above 2047 bytes, so the work *holds*
it, the worst case for threads and the best case for processes) and
drives each build with concurrent closed-loop clients.

On a multi-core host the 4-process build approaches the core count;
on a single core the honest result is ~1.0x (plus supervisor
overhead), which is exactly what ``BENCH_procs.json`` records — the
regression gate compares ratios against the committed baseline, not
against an aspiration the hardware cannot meet.
"""

from __future__ import annotations

import hashlib
import shutil
import socket
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Sequence

from repro.analysis import render_series
from repro.co2p3s.nserver import NSERVER
from repro.co2p3s.template import load_generated_package
from repro.runtime import ServerHooks

__all__ = ["CpuBoundHooks", "ProcsPoint", "run_procs_sweep",
           "format_fig3_procs", "DEFAULT_PROC_COUNTS",
           "PROCS_SWEEP_OPTIONS"]

#: worker-process counts; the largest is the acceptance point
DEFAULT_PROC_COUNTS = (1, 2, 4)

#: the minimal Table 1 column plus O16, which the sweep overrides per
#: point — no codec (raw bytes in and out), no cache, no extras to
#: blur the attribution
PROCS_SWEEP_OPTIONS = {
    "O1": "1",
    "O2": True,
    "O3": False,
    "O4": "Synchronous",
    "O5": "Static",
    "O6": None,
    "O7": False,
    "O8": False,
    "O9": False,
    "O10": "Production",
    "O11": False,
    "O12": False,
}


class CpuBoundHooks(ServerHooks):
    """One CPU-bound hook: iterated SHA-256 over the request line.

    Module-level on purpose — O16 workers re-create their hooks from an
    importable ``module:class`` path in a fresh interpreter.  The chunk
    hashed stays far below hashlib's 2048-byte GIL-release threshold,
    so the work pins the GIL: threads cannot parallelise it, processes
    can.
    """

    rounds = 600

    def handle(self, request: bytes, conn) -> bytes:
        digest = bytes(request)
        for _ in range(self.rounds):
            digest = hashlib.sha256(digest).digest()
        return digest.hex().encode("ascii") + b"\n"


@dataclass
class ProcsPoint:
    """One worker-process-count measurement."""

    procs: int
    throughput: float          # responses/s over all clients
    requests: int
    elapsed: float


def _drive(port: int, clients: int, per_client: int):
    """``clients`` concurrent closed-loop request streams; returns
    (elapsed seconds, responses)."""
    errors: List[BaseException] = []

    def client(i: int) -> None:
        try:
            s = socket.create_connection(("127.0.0.1", port), timeout=30)
            s.settimeout(30)
            s.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            try:
                for n in range(per_client):
                    s.sendall(f"client {i} request {n}\n".encode())
                    buf = b""
                    while not buf.endswith(b"\n"):
                        chunk = s.recv(4096)
                        if not chunk:
                            raise ConnectionError("peer closed mid-reply")
                        buf += chunk
            finally:
                s.close()
        except BaseException as exc:  # noqa: BLE001 - surfaced below
            errors.append(exc)

    threads = [threading.Thread(target=client, args=(i,))
               for i in range(clients)]
    started = time.monotonic()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    elapsed = time.monotonic() - started
    if errors:
        raise errors[0]
    return elapsed, clients * per_client


def run_procs_sweep(
    proc_counts: Sequence[int] = DEFAULT_PROC_COUNTS,
    requests: int = 256,
    clients: int = 8,
) -> Dict[int, ProcsPoint]:
    """Measure responses/s for each O16 value, same CPU-bound workload
    throughout.  One framework generation per point — the option is a
    generation-time choice, exactly like every other Table 1 column."""
    workdir = Path(tempfile.mkdtemp(prefix="fig3_procs_"))
    per_client = max(1, requests // clients)
    results: Dict[int, ProcsPoint] = {}
    try:
        for procs in proc_counts:
            options = dict(PROCS_SWEEP_OPTIONS)
            if procs != 1:
                options["O16"] = procs
            opts = NSERVER.configure(options)
            package = f"fig3_procs_{procs}_fw"
            NSERVER.generate(opts, str(workdir), package=package)
            fw = load_generated_package(str(workdir), package)
            server = fw.Server(CpuBoundHooks(),
                               configuration=fw.ServerConfiguration())
            server.start()
            try:
                _drive(server.port, clients, max(1, per_client // 4))
                elapsed, responses = _drive(server.port, clients,
                                            per_client)
                results[procs] = ProcsPoint(
                    procs=procs,
                    throughput=responses / elapsed,
                    requests=responses,
                    elapsed=elapsed)
            finally:
                server.stop()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return results


def format_fig3_procs(results: Dict[int, ProcsPoint]) -> str:
    xs = sorted(results)
    series = {"CPU-bound hook": [results[p].throughput for p in xs]}
    out = render_series(
        "worker procs", xs, series,
        title="FIG 3 (O16 extension) — THROUGHPUT (responses/s) OF A "
              "CPU-BOUND HOOK ACROSS WORKER PROCESSES",
        fmt="{:.1f}")
    base = results.get(1)
    if base is not None and base.throughput > 0:
        ratios = ", ".join(
            f"{results[p].throughput / base.throughput:.2f}x at {p}"
            for p in xs)
        out += f"\nspeedup over one process: {ratios} workers"
    return out
