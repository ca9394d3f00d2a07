"""O16 end-to-end over HTTP: the generated COPS-HTTP at procs=2.

The supervisor-level mechanics (respawn, zero-drop restart, budget)
live in ``tests/runtime/test_deployment.py``; here the *generated*
facade is the unit — ``Server`` delegating to ``Deployment``, the
``/server-status?auto`` page aggregating across worker processes, and
conversation-identical behaviour before and after a rolling restart.
"""

import importlib
import re
import socket

import pytest

from repro.servers.cops_http import (
    COPS_HTTP_OPTIONS,
    CopsHttpHooks,
    build_cops_http,
)

pytestmark = pytest.mark.skipif(
    not hasattr(socket, "send_fds"),
    reason="fd passing (socket.send_fds) unavailable")


def raw_exchange(port, payload, timeout=10.0):
    """Send raw bytes, read to EOF (Connection: close semantics)."""
    s = socket.create_connection(("127.0.0.1", port), timeout=timeout)
    s.settimeout(timeout)
    try:
        s.sendall(payload)
        buf = b""
        while True:
            chunk = s.recv(65536)
            if not chunk:
                return buf
            buf += chunk
    finally:
        s.close()


def get(port, path, query=""):
    target = path + ("?" + query if query else "")
    return raw_exchange(port, (f"GET {target} HTTP/1.1\r\nHost: t\r\n"
                               "Connection: close\r\n\r\n").encode())


@pytest.fixture
def docroot(tmp_path):
    root = tmp_path / "docroot"
    root.mkdir()
    (root / "index.html").write_bytes(b"<h1>deployment</h1>")
    (root / "asset.txt").write_bytes(b"a" * 512)
    return root


def test_server_status_auto_aggregates_each_worker_exactly_once(
        docroot, tmp_path):
    server, _fw, _report = build_cops_http(
        str(docroot), options=dict(COPS_HTTP_OPTIONS, O11=True),
        dest=str(tmp_path / "build"), package="deploy_auto_fw", procs=2)
    server.start()
    try:
        for _ in range(6):
            assert get(server.port, "/").startswith(b"HTTP/1.1 200")
        body = get(server.port, "/server-status",
                   "auto").split(b"\r\n\r\n", 1)[1].decode()
    finally:
        server.stop()
    assert re.search(r"^Workers: 2$", body, re.M), body
    workers = re.findall(
        r'^server_requests_total\{worker="(\d+)"\}: (\d+)$', body, re.M)
    # two distinct worker sections, each contributing exactly once
    assert len(workers) == 2
    assert len({pid for pid, _count in workers}) == 2
    total = int(re.search(r"^server_requests_total: (\d+)$", body,
                          re.M).group(1))
    assert total == sum(int(count) for _pid, count in workers)
    # every per-worker metric line is unique — nothing double-counted
    lines = [line for line in body.splitlines() if '{worker="' in line]
    assert len(lines) == len(set(lines))


def test_worker_outside_a_supervisor_reports_its_own_status(
        docroot, tmp_path):
    """A generated ``Worker`` started directly has no supervisor to
    ask: ``?auto`` falls back to this process's own registry."""
    _server, fw, _report = build_cops_http(
        str(docroot), options=dict(COPS_HTTP_OPTIONS, O11=True),
        dest=str(tmp_path / "build"), package="deploy_lone_fw", procs=2)
    deployment = importlib.import_module("deploy_lone_fw.deployment")
    worker = deployment.Worker(CopsHttpHooks(), fw.ServerConfiguration(
        port=0, document_root=str(docroot)))
    worker.start()
    try:
        for _ in range(3):
            assert get(worker.port, "/").startswith(b"HTTP/1.1 200")
        head, body = get(worker.port, "/server-status",
                         "auto").split(b"\r\n\r\n", 1)
    finally:
        worker.stop()
    body = body.decode()
    assert head.startswith(b"HTTP/1.1 200"), head
    assert not re.search(r"^Workers:", body, re.M), body
    assert 'worker="' not in body
    assert int(re.search(r"^server_requests_total: (\d+)$", body,
                         re.M).group(1)) >= 3


def test_rolling_restart_is_conversation_identical(docroot, tmp_path):
    """The byte-for-byte smoke: the same request set answers
    identically before and after every worker process is replaced."""
    conversations = [
        b"GET /index.html HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n",
        b"HEAD /index.html HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n",
        b"GET /missing.html HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n",
        b"BOGUS / HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n",
        b"not http at all\r\n\r\n",
    ]
    def normalise(response):
        # the Date header tracks the wall clock, not server behaviour
        return re.sub(rb"\r\nDate: [^\r]+", b"\r\nDate: -", response)

    server, _fw, _report = build_cops_http(
        str(docroot), dest=str(tmp_path / "build"),
        package="deploy_roll_fw", procs=2)
    server.start()
    try:
        before = [normalise(raw_exchange(server.port, c))
                  for c in conversations]
        old = set(server.deployment.supervisor.status()["workers"])
        server.rolling_restart()
        new = set(server.deployment.supervisor.status()["workers"])
        after = [normalise(raw_exchange(server.port, c))
                 for c in conversations]
    finally:
        server.stop()
    assert old.isdisjoint(new) and len(new) == 2
    assert before[0].startswith(b"HTTP/1.1 200")
    assert before == after
