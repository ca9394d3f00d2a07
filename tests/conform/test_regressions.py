"""Regression tests for the bugs the conformance sweep surfaced.

Every test here started life as a diverging session in
``python -m repro.conform``; the server-backed half replays the shrunk
reproducers against a freshly generated base-corner framework, and the
unit half pins the layer-level fix (parser strictness, HEAD error
bodies, fd caching, ticket-ordered completions, 404s that must not
trip the disk breaker).
"""

import os
import socket
import tempfile

import pytest

from repro import http
from repro.conform.checker import (
    DEFAULT_FILES,
    _build_corner_server,
    check_session,
    corner_matrix,
    replay_session,
    run_corner,
)
from repro.conform.model import ModelVFS, parse_one_response
from repro.conform.sessions import (
    Session,
    Step,
    directed_sessions,
    request_bytes,
)
from repro.runtime import (
    AsyncFileIO,
    Communicator,
    PENDING,
    ServerHooks,
    SocketEventSource,
    SocketHandle,
)
from repro.runtime.degradation import CircuitBreaker

from harness import FakeHandle, feed


# ---------------------------------------------------------------------------
# server-backed reproducers (one base-corner server for the module)


@pytest.fixture(scope="module")
def base_server(tmp_path_factory):
    corner = next(c for c in corner_matrix("smoke") if c.name == "base")
    workdir = str(tmp_path_factory.mktemp("conform_regress"))
    server, _plane = _build_corner_server(corner, workdir, DEFAULT_FILES)
    server.start()
    yield corner, server
    server.stop()


def _replay(server, payload: bytes) -> bytes:
    session = Session(name="regress", steps=[Step("send", payload)])
    return replay_session("127.0.0.1", server.port, session)


def test_directed_sessions_clean_on_base_corner(base_server):
    corner, server = base_server
    vfs = ModelVFS(DEFAULT_FILES)
    problems = []
    for session in directed_sessions(list(DEFAULT_FILES)):
        stream = replay_session("127.0.0.1", server.port, session)
        problems += check_session(session, stream, vfs, corner.model,
                                  corner.freedoms, corner.name)
    assert problems == [], [d.ident for d in problems]


def test_pipelined_responses_come_back_in_request_order(base_server):
    """The communicator regression: two pipelined GETs must produce
    exactly two responses, first the first request's body, in order."""
    _, server = base_server
    stream = _replay(server,
                     request_bytes("GET", "/a.html")
                     + request_bytes("GET", "/index.html", close=True))
    first, rest = parse_one_response(stream)
    second, tail = parse_one_response(rest)
    assert first.status == 200 and first.body == DEFAULT_FILES["/a.html"]
    assert second.status == 200 and second.body == DEFAULT_FILES["/index.html"]
    assert tail == b""


def test_four_deep_pipeline_stays_aligned(base_server):
    _, server = base_server
    targets = ["/a.html", "/data.txt", "/index.html", "/b.html"]
    payload = b"".join(
        request_bytes("GET", t, close=(t == targets[-1])) for t in targets)
    rest = _replay(server, payload)
    for target in targets:
        parsed = parse_one_response(rest)
        assert isinstance(parsed, tuple), (target, rest[:80])
        resp, rest = parsed
        assert resp.body == DEFAULT_FILES[target], target
    assert rest == b""


def test_http10_keepalive_response_echoes_keepalive(base_server):
    """An HTTP/1.0 response that intends to keep the connection open
    must say so; a bare 1.0 response means close."""
    _, server = base_server
    payload = request_bytes("GET", "/index.html", version="HTTP/1.0",
                            headers=[("Connection", "keep-alive")]) \
        + request_bytes("GET", "/a.html", version="HTTP/1.0")
    first, rest = parse_one_response(_replay(server, payload))
    assert (first.header("Connection") or "").lower() == "keep-alive"
    second, _ = parse_one_response(rest)
    assert second.body == DEFAULT_FILES["/a.html"]


def test_head_missing_file_404_has_no_body(base_server):
    _, server = base_server
    stream = _replay(server, request_bytes("HEAD", "/no-such-file.html",
                                           close=True))
    resp, rest = parse_one_response(stream, head_only=True)
    assert resp.status == 404
    assert (resp.header("Content-Length") or "").isdigit()
    assert rest == b""          # no stray body bytes after the head


def test_framing_413_survives_to_the_response(base_server):
    """An over-limit Content-Length is rejected at the framing layer;
    the status must reach the wire as 413, not decay to a generic 400."""
    _, server = base_server
    stream = _replay(server,
                     b"GET /index.html HTTP/1.1\r\nHost: c\r\n"
                     b"Content-Length: 99999999999\r\n\r\n")
    resp, _ = parse_one_response(stream)
    assert resp.status == 413


# ---------------------------------------------------------------------------
# parser strictness (RFC 7230 §3.3.2)


@pytest.mark.parametrize("value", ["12abc", "+5", "", "0x10", "5 5"])
def test_malformed_content_length_is_400(value):
    raw = (f"GET / HTTP/1.1\r\nHost: c\r\nContent-Length: {value}"
           "\r\n\r\n").encode()
    with pytest.raises(http.BadRequest) as err:
        http.split_request(raw)
    assert err.value.status == 400


def test_conflicting_content_lengths_are_400():
    raw = (b"GET / HTTP/1.1\r\nHost: c\r\nContent-Length: 5\r\n"
           b"Content-Length: 6\r\n\r\nhello!")
    with pytest.raises(http.BadRequest) as err:
        http.split_request(raw)
    assert err.value.status == 400


def test_agreeing_duplicate_content_lengths_are_accepted():
    raw = (b"POST / HTTP/1.1\r\nHost: c\r\nContent-Length: 5\r\n"
           b"Content-Length: 5\r\n\r\nhello")
    req, rest = http.split_request(raw)
    assert rest == b""
    assert http.parse_request(req).body == b"hello"


def test_parse_request_revalidates_content_length():
    # A framing layer that swallowed the 400 must not let the request
    # through parse_request either.
    raw = b"GET / HTTP/1.1\r\nHost: c\r\nContent-Length: nope\r\n\r\n"
    with pytest.raises(http.BadRequest) as err:
        http.parse_request(raw)
    assert err.value.status == 400


def test_error_response_head_only_suppresses_body():
    full = http.error_response(404).encode()
    head = http.error_response(404, head_only=True).encode()
    assert full.endswith(b"\r\n\r\n") is False     # body present
    assert head.endswith(b"\r\n\r\n")              # body suppressed
    # both declare the same (nonzero) length
    full_head = full.split(b"\r\n\r\n", 1)[0]
    assert full_head.split(b"\r\n", 1)[0] == head.split(b"\r\n", 1)[0]
    assert b"Content-Length: 0" not in head


# ---------------------------------------------------------------------------
# ticket-ordered completions (the communicator fix, no sockets)


def test_out_of_order_completions_deliver_in_request_order():
    tickets = []

    class H(ServerHooks):
        def handle(self, request, conn):
            tickets.append(conn.current_ticket())
            return PENDING

    conn = Communicator(FakeHandle(), H())
    feed(conn, b"one\ntwo\nthree\n")
    assert len(tickets) == 3 and None not in tickets
    t1, t2, t3 = tickets
    conn.complete_request(b"3\n", ticket=t3)
    conn.complete_request(b"2\n", ticket=t2)
    assert bytes(conn.handle.sent) == b""       # head still pending
    conn.complete_request(b"1\n", ticket=t1)
    assert bytes(conn.handle.sent) == b"1\n2\n3\n"
    assert conn.requests_completed == 3


def test_completing_a_ticket_twice_is_ignored():
    tickets = []

    class H(ServerHooks):
        def handle(self, request, conn):
            tickets.append(conn.current_ticket())
            return PENDING

    conn = Communicator(FakeHandle(), H())
    feed(conn, b"a\n")
    conn.complete_request(b"first\n", ticket=tickets[0])
    conn.complete_request(b"second\n", ticket=tickets[0])
    assert bytes(conn.handle.sent) == b"first\n"


def test_current_ticket_is_none_outside_a_handler():
    conn = Communicator(FakeHandle(), ServerHooks())
    assert conn.current_ticket() is None


# ---------------------------------------------------------------------------
# disk layer: 404s are not infrastructure failures


def wait_for(predicate, timeout=3.0):
    import time as _time
    deadline = _time.monotonic() + timeout
    while _time.monotonic() < deadline:
        if predicate():
            return True
        _time.sleep(0.005)
    return False


def test_missing_files_do_not_trip_the_breaker(tmp_path):
    breaker = CircuitBreaker(failure_threshold=2, recovery_time=60.0)
    got = []
    io_pool = AsyncFileIO(sink=got.append, threads=1, root=str(tmp_path),
                          breaker=breaker)
    io_pool.start()
    try:
        for _ in range(6):
            io_pool.read_file("/no-such-file.html")
        assert wait_for(lambda: len(got) == 6)
        assert all(not c.ok for c in got)
        assert breaker.state == CircuitBreaker.CLOSED
        assert breaker.allow()
    finally:
        io_pool.stop()


def test_sibling_directory_with_root_prefix_is_not_served(tmp_path):
    root = tmp_path / "root"
    root.mkdir()
    (root / "ok.txt").write_bytes(b"public")
    secret = tmp_path / "root-secret"
    secret.mkdir()
    (secret / "key.txt").write_bytes(b"private")
    got = []
    io_pool = AsyncFileIO(sink=got.append, threads=1, root=str(root))
    io_pool.start()
    try:
        io_pool.read_file("/../root-secret/key.txt")
        io_pool.read_file("/ok.txt")
        assert wait_for(lambda: len(got) == 2)
        by_ok = sorted(got, key=lambda c: c.ok)
        assert not by_ok[0].ok                    # traversal refused
        assert by_ok[1].payload == b"public"
    finally:
        io_pool.stop()


# ---------------------------------------------------------------------------
# handle/event-source teardown after fault closes


def test_socket_handle_fd_survives_close():
    a, b = socket.socketpair()
    handle = SocketHandle(a, name="t")
    fd = handle.fileno()
    assert fd > 0
    handle.close()
    b.close()
    assert handle.fileno() == fd


def test_stale_fd_registration_is_replaced_not_fatal():
    a, b = socket.socketpair()
    src = SocketEventSource()
    stale = SocketHandle(a, name="stale")
    fresh = SocketHandle(a, name="fresh")   # same fd: kernel fd reuse
    try:
        src.register(stale)
        src.register(fresh)         # must replace, not raise
        src.deregister(fresh)
    finally:
        src.close()
        a.close()
        b.close()


# ---------------------------------------------------------------------------
# a sweep leaves no work directory behind


def test_a_corner_run_removes_its_own_work_directory(tmp_path, monkeypatch):
    scratch = tmp_path / "tmp"
    scratch.mkdir()
    monkeypatch.setenv("TMPDIR", str(scratch))
    monkeypatch.setattr(tempfile, "tempdir", None)  # re-read TMPDIR
    corner = next(c for c in corner_matrix("smoke") if c.name == "base")
    session = Session(name="one", steps=[Step("send", request_bytes(
        "GET", "/index.html", close=True))])
    result = run_corner(corner, [session], concurrency=1)
    assert result.clean, [d.ident for d in result.divergences]
    assert os.listdir(scratch) == []


def test_a_corner_run_keeps_a_callers_work_directory(tmp_path):
    corner = next(c for c in corner_matrix("smoke") if c.name == "base")
    session = Session(name="one", steps=[Step("send", request_bytes(
        "GET", "/index.html", close=True))])
    run_corner(corner, [session], workdir=str(tmp_path), concurrency=1)
    assert os.path.isdir(tmp_path / "docroot")
