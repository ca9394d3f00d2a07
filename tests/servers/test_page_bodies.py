"""File bodies through every consumer of a docroot read.

A body of at least one page is an open ``FileHandle`` that replies send
with ``os.sendfile`` from the page cache
(``repro.cache.file_cache.read_body``); smaller ones stay ``bytes``.
Each consumer must treat both as the same payload: COPS-HTTP GET and
HEAD, the generated synchronous read, and a generic ``FileReadEvent``
hook
(``test_server_integration``).  A file that shrinks under its cached
body ends the reply by closing the connection.
"""

import os
import socket

import pytest

from harness import ServerFixture, generated_server
from repro.cache.file_cache import PAGE
from repro.runtime import FileHandle, ServerHooks
from repro.servers import build_cops_http

#: exactly one page, and three pages and a bit (an unaligned tail)
BODIES = {
    "/page.bin": bytes(range(256)) * (PAGE // 256),
    "/pages.bin": bytes(reversed(range(256))) * (3 * PAGE // 256) + b"tail",
}


@pytest.fixture
def docroot(tmp_path):
    for path, body in BODIES.items():
        (tmp_path / path.lstrip("/")).write_bytes(body)
    return tmp_path


def exchange(port, method: str, path: str) -> tuple:
    """One ``Connection: close`` request: (head, body) of the reply."""
    with socket.create_connection(("127.0.0.1", port), timeout=10) as s:
        s.sendall(f"{method} {path} HTTP/1.1\r\nHost: x\r\n"
                  "Connection: close\r\n\r\n".encode())
        data = b""
        while chunk := s.recv(65536):
            data += chunk
    head, _, body = data.partition(b"\r\n\r\n")
    return head, body


def content_length(head: bytes) -> int:
    for line in head.split(b"\r\n"):
        name, _, value = line.partition(b":")
        if name.lower() == b"content-length":
            return int(value)
    raise AssertionError(f"no Content-Length in {head!r}")


def test_cops_http_get_and_head_serve_page_backed_bodies(docroot):
    server, _fw, _report = build_cops_http(str(docroot))
    with ServerFixture(server) as fixture:
        for path, body in BODIES.items():
            for _ in range(2):              # the load, then the hit
                head, got = exchange(fixture.port, "GET", path)
                assert head.startswith(b"HTTP/1.1 200 OK")
                assert got == body and content_length(head) == len(body)
            head, got = exchange(fixture.port, "HEAD", path)
            assert head.startswith(b"HTTP/1.1 200 OK")
            assert got == b"" and content_length(head) == len(body)
            payload = server.reactor.cache.file_cache.lookup(path).payload
            assert isinstance(payload, FileHandle) and payload == body


def test_a_file_cut_short_under_its_cached_body_closes_the_reply(docroot):
    """The cached body's length was fixed when the file was opened: a
    file truncated since cannot fill it, so the reply ends by closing
    the connection — after the bytes the file still has, never padded,
    and without spinning.  The server goes on serving."""
    server, _fw, _report = build_cops_http(str(docroot))
    body = BODIES["/pages.bin"]
    with ServerFixture(server) as fixture:
        assert exchange(fixture.port, "GET", "/pages.bin")[1] == body
        os.truncate(docroot / "pages.bin", PAGE + 100)
        cpu = os.times()
        for _ in range(3):
            head, got = exchange(fixture.port, "GET", "/pages.bin")
            assert head.startswith(b"HTTP/1.1 200 OK")
            assert content_length(head) == len(body)
            assert got == body[:PAGE + 100]
        spent = sum(os.times()[:2]) - sum(cpu[:2])
        assert spent < 2.0, f"{spent:.2f} s of CPU for three short replies"
        assert server.reactor.cache.file_cache.stats.hits == 3
        assert exchange(fixture.port, "GET", "/page.bin")[1] == \
            BODIES["/page.bin"]


def uncached_sync_server(root):
    """An O4=Synchronous, O6=None build: ``read_file_sync`` reads the
    docroot directly, with no cache in between."""
    return generated_server(ServerHooks(), {"O4": "Synchronous", "O6": None},
                            document_root=str(root))


def test_uncached_read_file_sync_returns_page_backed_bodies(docroot):
    reactor = uncached_sync_server(docroot).reactor
    for path, body in BODIES.items():
        payload = reactor.read_file_sync(path)
        assert isinstance(payload, FileHandle)
        assert payload == body
    (docroot / "small.txt").write_bytes(b"small")
    assert reactor.read_file_sync("/small.txt") == b"small"


def test_uncached_read_file_sync_stays_inside_the_docroot(tmp_path):
    """A sibling directory that shares the docroot's name as a prefix is
    outside it: the containment check needs the path separator."""
    (tmp_path / "www").mkdir()
    (tmp_path / "www" / "index.html").write_bytes(b"<html>in</html>")
    (tmp_path / "www-secrets").mkdir()
    (tmp_path / "www-secrets" / "key").write_bytes(b"secret")
    reactor = uncached_sync_server(tmp_path / "www").reactor
    assert reactor.read_file_sync("/index.html") == b"<html>in</html>"
    for path in ("/../www-secrets/key", "/../www/../www-secrets/key"):
        with pytest.raises(FileNotFoundError):
            reactor.read_file_sync(path)
