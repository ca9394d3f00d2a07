"""Integration tests: COPS-HTTP on its generated framework, real sockets."""

import os
import socket
import time

import pytest

from repro.servers import build_cops_http


@pytest.fixture(scope="module")
def site(tmp_path_factory):
    root = tmp_path_factory.mktemp("site")
    (root / "index.html").write_bytes(b"<html>front page</html>")
    (root / "big.bin").write_bytes(os.urandom(200_000))
    (root / "style.css").write_bytes(b"body { color: red }")
    sub = root / "docs"
    sub.mkdir()
    (sub / "page.html").write_bytes(b"<html>docs</html>")
    return root


@pytest.fixture(scope="module")
def server(site):
    server, fw, report = build_cops_http(str(site))
    server.start()
    yield server
    server.stop()


def test_stop_without_start_closes_the_event_source(site):
    """A built server that never started still owns an epoll fd and a
    wake-up socketpair; stopping it must release both."""
    server = build_cops_http(str(site))[0]
    source = server.reactor.socket_source
    server.stop()
    assert source._closed
    assert source._wake_recv.fileno() == -1
    assert source._wake_send.fileno() == -1


def http_get(port, request: bytes, timeout=5.0) -> bytes:
    s = socket.create_connection(("127.0.0.1", port), timeout=timeout)
    s.settimeout(timeout)
    try:
        s.sendall(request)
        buf = b""
        while True:
            try:
                chunk = s.recv(65536)
            except socket.timeout:
                break
            if not chunk:
                break
            buf += chunk
            if _complete(buf):
                break
        return buf
    finally:
        s.close()


def _complete(buf: bytes) -> bool:
    head_end = buf.find(b"\r\n\r\n")
    if head_end == -1:
        return False
    head = buf[:head_end].decode("latin-1", "replace")
    for line in head.split("\r\n"):
        if line.lower().startswith("content-length:"):
            length = int(line.split(":")[1])
            return len(buf) >= head_end + 4 + length
    return False


def test_get_index(server):
    resp = http_get(server.port,
                    b"GET /index.html HTTP/1.1\r\nHost: x\r\n\r\n")
    assert resp.startswith(b"HTTP/1.1 200 OK")
    assert b"front page" in resp
    assert b"Content-Type: text/html" in resp


def test_root_maps_to_index(server):
    resp = http_get(server.port, b"GET / HTTP/1.1\r\nHost: x\r\n\r\n")
    assert b"front page" in resp


def test_subdirectory(server):
    resp = http_get(server.port,
                    b"GET /docs/page.html HTTP/1.1\r\nHost: x\r\n\r\n")
    assert b"docs" in resp


def test_content_type_css(server):
    resp = http_get(server.port,
                    b"GET /style.css HTTP/1.1\r\nHost: x\r\n\r\n")
    assert b"Content-Type: text/css" in resp


def test_404(server):
    resp = http_get(server.port,
                    b"GET /nope.html HTTP/1.1\r\nHost: x\r\n\r\n")
    assert resp.startswith(b"HTTP/1.1 404")


def test_head_has_no_body(server):
    resp = http_get(server.port,
                    b"HEAD /index.html HTTP/1.1\r\nHost: x\r\n\r\n")
    head, _, body = resp.partition(b"\r\n\r\n")
    assert b"200 OK" in head
    assert b"Content-Length: 23" in head
    assert body == b""


def test_unsupported_method_501(server):
    resp = http_get(server.port,
                    b"POST /index.html HTTP/1.1\r\nHost: x\r\n"
                    b"Content-Length: 0\r\n\r\n")
    assert resp.startswith(b"HTTP/1.1 501")


def test_missing_host_400(server):
    resp = http_get(server.port, b"GET / HTTP/1.1\r\n\r\n")
    assert resp.startswith(b"HTTP/1.1 400")


def test_garbage_request_answered_with_error(server):
    resp = http_get(server.port, b"NOT AN HTTP REQUEST\r\n\r\n")
    assert resp[:12].startswith(b"HTTP/1.1 ")


def test_persistent_connection_serves_multiple_requests(server):
    s = socket.create_connection(("127.0.0.1", server.port), timeout=5)
    s.settimeout(5)
    try:
        for _ in range(5):  # the paper's 5 requests per connection
            s.sendall(b"GET /index.html HTTP/1.1\r\nHost: x\r\n\r\n")
            buf = b""
            while not _complete(buf):
                buf += s.recv(65536)
            assert b"200 OK" in buf
    finally:
        s.close()


def test_http10_closes_connection(server):
    s = socket.create_connection(("127.0.0.1", server.port), timeout=5)
    s.settimeout(5)
    try:
        s.sendall(b"GET /index.html HTTP/1.0\r\n\r\n")
        buf = b""
        while True:
            chunk = s.recv(65536)
            if not chunk:
                break
            buf += chunk
        assert b"200 OK" in buf  # and the server closed (recv returned b"")
    finally:
        s.close()


def test_large_file_integrity(server, site):
    resp = http_get(server.port,
                    b"GET /big.bin HTTP/1.1\r\nHost: x\r\n\r\n")
    _, _, body = resp.partition(b"\r\n\r\n")
    assert body == (site / "big.bin").read_bytes()


def test_path_traversal_blocked(server):
    resp = http_get(server.port,
                    b"GET /../../../etc/passwd HTTP/1.1\r\nHost: x\r\n\r\n")
    assert resp.startswith(b"HTTP/1.1 404")


def test_cache_hits_on_repeat(server):
    before = server.reactor.cache.stats.hits
    http_get(server.port, b"GET /index.html HTTP/1.1\r\nHost: x\r\n\r\n")
    http_get(server.port, b"GET /index.html HTTP/1.1\r\nHost: x\r\n\r\n")
    assert server.reactor.cache.stats.hits > before


def test_generated_framework_records_options(server):
    # The framework package remembers what generated it.
    import sys

    fw = sys.modules[type(server).__module__].__name__.split(".")[0]
    mod = sys.modules[fw]
    assert mod.GENERATED_OPTIONS["O6"] == "LRU"
    assert mod.GENERATED_OPTIONS["O4"] == "Asynchronous"


def test_concurrent_clients(server):
    import threading

    results = {}

    def client(i):
        results[i] = http_get(
            server.port, b"GET /index.html HTTP/1.1\r\nHost: x\r\n\r\n")

    threads = [threading.Thread(target=client, args=(i,)) for i in range(10)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
    assert all(b"200 OK" in results[i] for i in range(10))
