"""Metric parity pin: the exact observability surface of an O11 build.

An O11=Yes COPS-HTTP build (without O13) answers one request, then the
test pins the exact set of metric families in the Prometheus exposition
and the exact key set of ``/server-status?auto``.  Any refactoring of
how the generated code reaches the registry must keep both sets — a
counter that quietly disappears (``server_accept_errors_total`` reading
0 is still a published series) fails here by name.
"""

import socket

import pytest

from repro.co2p3s.nserver import COPS_HTTP_OBSERVABILITY_OPTIONS
from repro.servers import build_cops_http

FAMILIES = {
    "server_accept_errors_total",
    "server_bytes_read_total",
    "server_bytes_sent_total",
    "server_cache_hit_rate",
    "server_connections_accepted_total",
    "server_connections_closed_total",
    "server_errors_total",
    "server_events_dispatched_total",
    "server_open_connections",
    "server_pool_busy",
    "server_pool_threads",
    "server_queue_depth",
    "server_read_pool_hit_rate",
    "server_request_seconds",
    "server_request_stage_seconds",
    "server_requests_total",
    "server_sampler_ticks_total",
}

#: the Apache mod_status fields derived from the registry
APACHE_KEYS = {
    "BusyWorkers", "BytesPerSec", "CacheHitRate", "ReqPerSec",
    "Total Accesses", "Total Connections", "Total kBytes", "Uptime",
}

#: every stage a completed request and its socket I/O record
STAGES = ("decode", "encode", "handle", "read", "send")


def _quantile_keys(series):
    return {f"{series}-{suffix}" for suffix in ("count", "p50", "p90", "p99")}


STATUS_KEYS = (
    APACHE_KEYS
    | (FAMILIES - {"server_request_seconds", "server_request_stage_seconds"})
    | _quantile_keys("server_request_seconds")
    | {key for stage in STAGES
       for key in _quantile_keys(
           'server_request_stage_seconds{stage="%s"}' % stage)}
)


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    assert not COPS_HTTP_OBSERVABILITY_OPTIONS.get("O13")
    root = tmp_path_factory.mktemp("site")
    (root / "index.html").write_bytes(b"<html>parity</html>")
    server, fw, report = build_cops_http(
        str(root), options=COPS_HTTP_OBSERVABILITY_OPTIONS,
        dest=str(tmp_path_factory.mktemp("fw_parity")), package="parity_fw")
    server.start()
    yield server
    server.stop()


def fetch(port, path: bytes) -> bytes:
    """One ``Connection: close`` request, read to EOF: the server closes
    only after recording the reply's send, so the caller sees every
    metric the request produced."""
    with socket.create_connection(("127.0.0.1", port), timeout=5) as s:
        s.sendall(b"GET " + path
                  + b" HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n")
        buf = b""
        while True:
            chunk = s.recv(65536)
            if not chunk:
                return buf
            buf += chunk


def test_one_request_publishes_the_pinned_surface(server):
    assert fetch(server.port, b"/index.html").startswith(b"HTTP/1.1 200")
    body = fetch(server.port, b"/server-status?auto").partition(
        b"\r\n\r\n")[2].decode()
    keys = {line.partition(": ")[0] for line in body.splitlines()}
    assert keys == STATUS_KEYS
    prometheus = server.reactor.observability.prometheus()
    families = {line.split()[2] for line in prometheus.splitlines()
                if line.startswith("# TYPE ")}
    assert families == FAMILIES
    registry = server.reactor.observability.registry
    assert registry.value("server_accept_errors_total") == 0
    assert registry.value("server_requests_total") >= 1
    assert registry.value("server_connections_accepted_total") >= 2
