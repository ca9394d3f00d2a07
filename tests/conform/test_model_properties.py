"""Property tests tying the executable model to the real HTTP stack.

Two directions keep the model honest:

* **agreement** — on arbitrary request streams (well-formed, mutated
  and garbage) the model's framing and status decisions match
  ``repro.http``'s, so a conformance divergence always means the
  *server* misbehaved, never that the model drifted;
* **self-consistency** — a response serialised exactly as the model
  predicts must satisfy the model's own equivalence rules, so the
  rules cannot be unsatisfiable.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro import http
from repro.conform import model as conform_model
from repro.conform.model import (
    Freedoms,
    ModelOptions,
    ModelVFS,
    expected_exchanges,
    parse_one_response,
)
from repro.conform.sessions import request_bytes

VFS_FILES = {
    "/index.html": b"<html>index</html>",
    "/a.html": b"A" * 120,
    "/sub/index.html": b"<html>sub</html>",
}


@st.composite
def request_blob(draw) -> bytes:
    """One request's bytes: usually well-formed, sometimes hostile."""
    method = draw(st.sampled_from(["GET", "HEAD", "POST", "BREW"]))
    target = draw(st.sampled_from(
        ["/", "/index.html", "/a.html", "/missing", "no-slash",
         "/%2e%2e/etc", "/sub/"]))
    version = draw(st.sampled_from(["HTTP/1.1", "HTTP/1.0", "HTTP/2.0"]))
    host = draw(st.sampled_from(["conform", None]))
    close = draw(st.booleans())
    headers = []
    cl = draw(st.sampled_from(
        [None, "0", "3", "+3", "12abc", "007", ""]))
    body = b""
    if cl is not None:
        headers.append(("Content-Length", cl))
        if cl.isdigit():
            body = b"x" * int(cl)
    if draw(st.booleans()):
        headers.append(("X-Extra", "1"))
    if draw(st.sampled_from([False, False, True])):  # occasional dup CL
        headers.append(("Content-Length",
                        draw(st.sampled_from(["3", "4"]))))
    eol = b"\r\n"
    lines = [f"{method} {target} {version}".encode("latin-1")]
    if host is not None:
        lines.append(b"Host: " + host.encode())
    for name, value in headers:
        lines.append(f"{name}: {value}".encode("latin-1"))
    if close:
        lines.append(b"Connection: close")
    return eol.join(lines) + eol + eol + body


@st.composite
def stream_blob(draw) -> bytes:
    """A connection's worth of input: requests, raw noise, or both —
    possibly truncated mid-frame."""
    kind = draw(st.integers(0, 3))
    if kind == 0:
        return draw(st.binary(max_size=64))
    data = b"".join(draw(st.lists(request_blob(), min_size=1, max_size=3)))
    if kind == 2 and data:
        data = data[:draw(st.integers(0, len(data)))]
    return data


def _impl_split(data: bytes):
    """repro.http framing folded to the model's return convention."""
    try:
        split = http.split_request(data)
    except http.BadRequest as exc:
        return exc.status
    return split


@given(stream_blob())
@settings(max_examples=200)
def test_framing_agreement(data):
    """Model framing == implementation framing, byte for byte: same
    incompleteness, same error status, same split boundary."""
    assert conform_model._split_model(data) == _impl_split(data)


@given(stream_blob())
@settings(max_examples=200)
def test_whole_stream_framing_agreement(data):
    """Walking a whole stream frame by frame stays in agreement."""
    rest = data
    for _ in range(8):
        model = conform_model._split_model(rest)
        impl = _impl_split(rest)
        assert model == impl
        if not isinstance(model, tuple):
            break
        _, rest = model


def _impl_status(req: bytes):
    """Parse + validate one framed request; the error status, or None
    when the request is protocol-clean."""
    try:
        request = http.parse_request(req)
        request.validate()
    except http.BadRequest as exc:
        return exc.status
    return None


@given(request_blob())
@settings(max_examples=200)
def test_status_agreement(req):
    """Where the implementation rejects a framed request, the model
    expects exactly that status; where it validates, the model expects
    a handler-level outcome (200/404, or 501 for unimplemented
    verbs)."""
    split = conform_model._split_model(req)
    if not isinstance(split, tuple):
        return  # framing error or incomplete: covered above
    framed, _ = split
    vfs = ModelVFS(VFS_FILES)
    expectation = conform_model._evaluate(
        framed, vfs, ModelOptions(), Freedoms())
    status = _impl_status(framed)
    if status is not None:
        assert expectation.status == status
    else:
        assert expectation.status in (200, 404, 501)


def _canonical_response(expectation) -> bytes:
    """Serialise the response the model predicts, the way the server
    would."""
    body = expectation.body if expectation.body is not None else b"ok"
    head = [f"HTTP/1.1 {expectation.status} X".encode()]
    head.append(b"Content-Type: text/html")
    head.append(b"Content-Length: " + str(len(body)).encode())
    if expectation.closes:
        head.append(b"Connection: close")
    wire = b"\r\n".join(head) + b"\r\n\r\n"
    if not expectation.head_only:
        wire += body
    return wire


@given(stream_blob())
@settings(max_examples=200)
def test_model_responses_satisfy_own_rules(data):
    """A response stream synthesised exactly as predicted passes the
    model's own equivalence rules — the rules are satisfiable."""
    vfs = ModelVFS(VFS_FILES)
    expectations = expected_exchanges(data, vfs, ModelOptions(), Freedoms())
    for expectation in expectations:
        wire = _canonical_response(expectation)
        parsed = parse_one_response(wire, head_only=expectation.head_only)
        assert isinstance(parsed, tuple), parsed
        resp, rest = parsed
        assert rest == b""
        verdict = expectation.check(resp)
        assert verdict.outcome == "ok", (expectation.label, verdict.reason)


def test_a_200_body_must_be_the_whole_file():
    """A consistent prefix of the file (Content-Length agreeing with
    the bytes sent) is still a mismatch: no freedom shortens a body."""
    body = b"B" * 6000
    vfs = ModelVFS({"/big.bin": body})
    (expectation,) = expected_exchanges(
        request_bytes("GET", "/big.bin", close=True), vfs,
        ModelOptions(), Freedoms(shed=True))
    for length, kind in [(6000, "ok"), (2048, "content-length"),
                         (5999, "content-length")]:
        wire = (b"HTTP/1.1 200 OK\r\nContent-Type: x/y\r\n"
                b"Content-Length: " + str(length).encode() +
                b"\r\nConnection: close\r\n\r\n" + body[:length])
        resp, _ = parse_one_response(wire)
        assert expectation.check(resp).kind == kind


@given(st.lists(st.sampled_from(["..", "sub", "index.html", "", "."]),
                max_size=6))
def test_vfs_traversal_never_resolves_outside_root(parts):
    """No `..` arrangement resolves to anything but a registered file."""
    vfs = ModelVFS(VFS_FILES)
    resolved = vfs.resolve("/" + "/".join(parts))
    assert resolved is None or resolved in VFS_FILES.values()


@pytest.mark.parametrize("value,error", [
    (b"GET / HTTP/1.1\r\nContent-Length: 5\r\n\r\n", None),
    (b"GET / HTTP/1.1\r\nContent-Length: +5\r\n\r\n", "bad"),
    (b"GET / HTTP/1.1\r\nContent-Length: 12abc\r\n\r\n", "bad"),
    (b"GET / HTTP/1.1\r\nContent-Length: 5\r\nContent-Length: 6\r\n\r\n",
     "conflict"),
    (b"GET / HTTP/1.1\r\nContent-Length: 5\r\nContent-Length: 5\r\n\r\n",
     None),
])
def test_content_length_strictness(value, error):
    _, got = conform_model._content_length_of(value)
    assert got == error
