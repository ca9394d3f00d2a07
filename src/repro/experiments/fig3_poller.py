"""Fig 3 (poller extension): select vs epoll under mostly-idle connections.

The paper's Fig 3 regime — thousands of open, mostly-idle HTTP
connections with a small active core — is exactly where the readiness
backend's complexity class shows: the level-triggered ``select``
oracle pays O(registered fds) in the kernel on *every* dispatcher
wake-up, while edge-triggered ``epoll`` pays O(ready).  This
experiment generates COPS-HTTP twice, pins a different backend for
each through ``REPRO_POLLER``, parks an idle connection swarm on each
server, and measures the throughput of a small set of keep-alive
clients hammering small files (read-side bound: bodies are tiny, so
per-wakeup poll cost dominates).

The measured gap is attributable to the backend alone — same template,
same options, same workload — and the repository gates on it
(``BENCH_poller.json``: epoll >= 1.3x select at the largest swarm).
"""

from __future__ import annotations

import os
import random
import shutil
import socket
import tempfile
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from repro.analysis import render_series
from repro.runtime import available_pollers

__all__ = ["PollerPoint", "IdleSwarm", "run_poller_sweep",
           "format_fig3_poller", "materialise_small_fileset",
           "DEFAULT_IDLE_COUNTS"]

#: mostly-idle swarm sizes; the largest is the acceptance point
DEFAULT_IDLE_COUNTS = (0, 512, 2048)

#: small static bodies: the experiment is about readiness scanning, not
#: byte shovelling
FILE_COUNT = 8
FILE_SIZE = 512


@dataclass
class PollerPoint:
    """One (backend, idle swarm size) measurement."""

    poller: str
    idle_connections: int
    throughput: float          # responses/s over the active clients
    requests: int


def materialise_small_fileset(root: Path, seed: int = 7,
                              requests: int = 300) -> List[str]:
    """Write the small-file tree and return a uniform request sample."""
    rng = random.Random(seed)
    paths: List[str] = []
    for i in range(FILE_COUNT):
        rel = f"f{i}.txt"
        (root / rel).write_bytes(rng.randbytes(FILE_SIZE))
        paths.append("/" + rel)
    return [rng.choice(paths) for _ in range(requests)]


class IdleSwarm:
    """``count`` connected-but-silent sockets parked on the server.

    Under epoll they cost nothing after registration; under select
    every one of them is re-scanned by the kernel on every poll call.
    """

    def __init__(self, port: int, count: int):
        self.sockets: List[socket.socket] = []
        for _ in range(count):
            s = socket.create_connection(("127.0.0.1", port), timeout=10)
            self.sockets.append(s)

    def close(self) -> None:
        for s in self.sockets:
            try:
                s.close()
            except OSError:
                pass
        self.sockets.clear()


def _read_response(sock: socket.socket) -> None:
    """Read one keep-alive HTTP response (headers + Content-Length body)."""
    buf = b""
    while b"\r\n\r\n" not in buf:
        chunk = sock.recv(65536)
        if not chunk:
            raise ConnectionError("peer closed mid-response")
        buf += chunk
    head, body = buf.split(b"\r\n\r\n", 1)
    assert head.startswith(b"HTTP/1.1 200"), head.splitlines()[0]
    length = 0
    for line in head.split(b"\r\n")[1:]:
        name, _, value = line.partition(b":")
        if name.strip().lower() == b"content-length":
            length = int(value.strip())
    while len(body) < length:
        chunk = sock.recv(65536)
        if not chunk:
            raise ConnectionError("peer closed mid-body")
        body += chunk


def _drive(port: int, paths: Sequence[str], clients: int):
    """``clients`` keep-alive closed-loop request streams; returns
    (elapsed seconds, responses)."""
    per_client = len(paths) // clients
    errors: List[BaseException] = []

    def client(i: int) -> None:
        try:
            s = socket.create_connection(("127.0.0.1", port), timeout=30)
            s.settimeout(30)
            s.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            try:
                for path in paths[i * per_client:(i + 1) * per_client]:
                    s.sendall(f"GET {path} HTTP/1.1\r\nHost: f\r\n\r\n"
                              .encode())
                    _read_response(s)
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
    return elapsed, per_client * clients


@contextmanager
def _pinned_backend(name: str):
    """Pin ``REPRO_POLLER`` for a server's whole lifecycle: a generated
    build emits no backend choice and would otherwise take the platform
    pick."""
    previous = os.environ.get("REPRO_POLLER")
    os.environ["REPRO_POLLER"] = name
    try:
        yield
    finally:
        if previous is None:
            os.environ.pop("REPRO_POLLER", None)
        else:
            os.environ["REPRO_POLLER"] = previous


def run_poller_sweep(
    idle_counts: Sequence[int] = DEFAULT_IDLE_COUNTS,
    requests: int = 300,
    active_clients: int = 4,
    seed: int = 7,
    pollers: Optional[Sequence[str]] = None,
) -> Dict[str, List[PollerPoint]]:
    """Measure responses/s on the select and epoll backends at each
    idle swarm size, same documents and request sample throughout."""
    from repro.servers.cops_http import build_cops_http

    pollers = tuple(pollers) if pollers is not None else available_pollers()
    workdir = Path(tempfile.mkdtemp(prefix="fig3_poller_"))
    results: Dict[str, List[PollerPoint]] = {}
    try:
        docroot = workdir / "docroot"
        docroot.mkdir()
        paths = materialise_small_fileset(docroot, seed=seed,
                                          requests=requests)
        for poller in pollers:
            with _pinned_backend(poller):
                server, _fw, _report = build_cops_http(
                    str(docroot), dest=str(workdir / poller),
                    package=f"fig3_poller_{poller}_fw")
                server.start()
                points: List[PollerPoint] = []
                try:
                    for idle in idle_counts:
                        swarm = IdleSwarm(server.port, idle)
                        try:
                            _drive(server.port, paths[:len(paths) // 3],
                                   active_clients)  # warmup + drain accepts
                            elapsed, responses = _drive(
                                server.port, paths, active_clients)
                            points.append(PollerPoint(
                                poller=poller,
                                idle_connections=idle,
                                throughput=responses / elapsed,
                                requests=responses))
                        finally:
                            swarm.close()
                finally:
                    server.stop()
                results[poller] = points
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return results


def format_fig3_poller(results: Dict[str, List[PollerPoint]]) -> str:
    names = {"select": "Select (oracle)", "epoll": "Epoll"}
    xs = [p.idle_connections for p in next(iter(results.values()))]
    series = {names.get(p, p): [pt.throughput for pt in pts]
              for p, pts in results.items()}
    out = render_series(
        "idle conns", xs, series,
        title="FIG 3 (poller extension) — THROUGHPUT (responses/s) UNDER "
              "MOSTLY-IDLE CONNECTION SWARMS: SELECT vs EPOLL",
        fmt="{:.1f}")
    if {"select", "epoll"} <= results.keys():
        ratios = ", ".join(
            f"{e.throughput / s.throughput:.2f}x at {s.idle_connections}"
            for s, e in zip(results["select"], results["epoll"]))
        out += f"\nepoll/select throughput ratio: {ratios} idle connections"
    return out
