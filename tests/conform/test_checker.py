"""Unit tests for the conformance session generator, differential
checker and shrinker — no live server needed."""

from repro.conform.checker import (
    DEFAULT_FILES,
    DEFAULT_PATHS,
    Divergence,
    check_session,
    corner_matrix,
    shrink_session,
)
from repro.conform.model import (
    Freedoms,
    ModelOptions,
    ModelVFS,
    expected_exchanges,
)
from repro.conform.sessions import (
    Session,
    Step,
    directed_sessions,
    generate_sessions,
    request_bytes,
)

VFS = ModelVFS(DEFAULT_FILES)


def _canonical_stream(session: Session) -> bytes:
    """Serialise exactly the responses the model expects for a session
    (the same synthesis the property suite proves self-consistent)."""
    wire = b""
    for exp in expected_exchanges(session.payload, VFS, ModelOptions(),
                                  Freedoms()):
        body = exp.body if exp.body is not None else b"ok"
        head = [f"HTTP/1.1 {exp.status} X".encode(),
                b"Content-Type: text/html",
                b"Content-Length: " + str(len(body)).encode()]
        if exp.closes:
            head.append(b"Connection: close")
        wire += b"\r\n".join(head) + b"\r\n\r\n"
        if not exp.head_only:
            wire += body
    return wire


def test_generate_sessions_is_deterministic():
    a = generate_sessions(2005, DEFAULT_PATHS, 16)
    b = generate_sessions(2005, DEFAULT_PATHS, 16)
    assert [s.name for s in a] == [s.name for s in b]
    assert [s.payload for s in a] == [s.payload for s in b]
    assert [[step.kind for step in s.steps] for s in a] == \
        [[step.kind for step in s.steps] for s in b]
    c = generate_sessions(2006, DEFAULT_PATHS, 16)
    assert [s.payload for s in a] != [s.payload for s in c]


def test_every_session_ends_closed_or_reset():
    for session in generate_sessions(7, DEFAULT_PATHS, 40) + \
            directed_sessions(DEFAULT_PATHS):
        if session.resets:
            continue
        expectations = expected_exchanges(
            session.payload, VFS, ModelOptions(), Freedoms())
        assert expectations, session.name
        assert expectations[-1].closes, session.name


def test_directed_sessions_cover_the_error_surface():
    names = {s.name for s in directed_sessions(DEFAULT_PATHS)}
    for required in ("d-ok", "d-pipeline", "d-badcl", "d-conflictcl",
                     "d-hugecl", "d-headmissing", "d-traversal",
                     "d-badversion", "d-nohost", "d-post"):
        assert required in names


def test_check_session_accepts_canonical_stream():
    session = Session(name="t", steps=[Step("send", request_bytes(
        "GET", "/index.html", close=True))])
    stream = _canonical_stream(session)
    assert check_session(session, stream, VFS, ModelOptions(),
                         Freedoms(), "unit") == []


def test_check_session_flags_wrong_status_with_stable_ident():
    session = Session(name="t", steps=[Step("send", request_bytes(
        "GET", "/index.html", close=True))])
    stream = _canonical_stream(session).replace(b" 200 ", b" 500 ", 1)
    (divergence,) = check_session(session, stream, VFS, ModelOptions(),
                                  Freedoms(), "unit")
    assert divergence.kind == "status"
    assert divergence.ident == "conform:unit:t:GET /index.html:status"


def test_check_session_flags_missing_response():
    session = Session(name="t", steps=[Step("send", request_bytes(
        "GET", "/index.html") + request_bytes("GET", "/a.html",
                                              close=True))])
    full = _canonical_stream(session)
    first_only = full[:full.index(b"HTTP/1.1", 1)]
    (divergence,) = check_session(session, first_only, VFS, ModelOptions(),
                                  Freedoms(), "unit")
    assert divergence.kind == "missing-response"


def test_reset_sessions_are_survival_only():
    session = Session(name="t", steps=[Step("send", b"GET /"),
                                       Step("reset")])
    assert check_session(session, b"anything", VFS, ModelOptions(),
                         Freedoms(), "unit") == []


def test_shed_freedom_tolerates_canned_503():
    session = Session(name="t", steps=[Step("send", request_bytes(
        "GET", "/index.html", close=True))])
    stream = (b"HTTP/1.1 503 Service Unavailable\r\nRetry-After: 7\r\n"
              b"Content-Type: text/plain\r\nContent-Length: 25\r\n"
              b"Connection: close\r\n\r\n503 Service Unavailable\r\n")
    assert check_session(session, stream, VFS, ModelOptions(),
                         Freedoms(shed=True), "unit") == []
    # ... but the same stream without the shed freedom is a divergence
    (divergence,) = check_session(session, stream, VFS, ModelOptions(),
                                  Freedoms(), "unit")
    assert divergence.kind == "status"


def test_shed_503_after_head_expectation_consumes_canned_body():
    session = Session(name="t", steps=[Step("send", request_bytes(
        "HEAD", "/index.html", close=True))])
    stream = (b"HTTP/1.1 503 Service Unavailable\r\nRetry-After: 1\r\n"
              b"Content-Length: 25\r\nConnection: close\r\n\r\n"
              b"503 Service Unavailable\r\n")
    assert check_session(session, stream, VFS, ModelOptions(),
                         Freedoms(shed=True), "unit") == []


def test_shrink_finds_one_minimal_reproducer():
    """A seeded multi-request session shrinks to just the request that
    trips the (synthetic) failure predicate."""
    bad = request_bytes("GET", "/index.html",
                        headers=[("Content-Length", "12abc")])
    session = Session(name="fat", steps=[
        Step("send", request_bytes("GET", "/a.html")),
        Step("send", request_bytes("HEAD", "/index.html") + bad),
        Step("send", request_bytes("GET", "/b.html", close=True)),
    ])

    def failing(candidate: Session) -> bool:
        return b"12abc" in candidate.payload

    minimal = shrink_session(session, failing)
    assert failing(minimal)
    assert minimal.payload == bad
    assert len(minimal.steps) == 1


def test_shrink_keeps_interacting_pair():
    """When the failure needs two requests, both survive the shrink and
    everything else goes."""
    first = request_bytes("GET", "/a.html")
    second = request_bytes("GET", "/index.html", close=True)
    session = Session(name="pair", steps=[
        Step("send", request_bytes("HEAD", "/b.html") + first),
        Step("send", request_bytes("GET", "/data.txt")),
        Step("send", second),
    ])

    def failing(candidate: Session) -> bool:
        return (first in candidate.payload
                and second in candidate.payload)

    minimal = shrink_session(session, failing)
    assert failing(minimal)
    assert minimal.payload == first + second


def test_corner_matrix_covers_required_options():
    smoke = corner_matrix("smoke")
    names = {c.name for c in smoke}
    assert len(smoke) == 8
    assert {"base", "obs", "resilience", "overload", "procs",
            "degradation", "shed", "faulty"} == names
    full = {c.name for c in corner_matrix("full")}
    assert names < full
    shed = next(c for c in smoke if c.name == "shed")
    assert shed.freedoms.shed and shed.sequential
    faulty = next(c for c in smoke if c.name == "faulty")
    assert faulty.fault_spec is not None and faulty.freedoms.faults


def test_divergence_ident_shape():
    divergence = Divergence.build("corner", "sess", "GET /", "status",
                                  "detail")
    assert divergence.ident == "conform:corner:sess:GET /:status"
