"""Round-trip property suite for the HTTP library (hypothesis).

* a serialised request parses back with method, path, headers and body
  preserved;
* HEAD responses suppress the body on the wire but keep Content-Length;
* ``encode_segments()`` joined equals ``encode()`` byte-for-byte, and
  the body segment is a view of the payload, not a copy;
* exactly one Content-Length ever goes on the wire — a handler-set
  value is respected, duplicates are collapsed (RFC 7230: a split
  response is a request-smuggling hazard).
"""

from hypothesis import given, settings, strategies as st

from repro.http import Headers, HttpResponse, parse_request, split_request

NAME = st.text(alphabet="abcdefghijklmnopqrstuvwxyz"
                        "ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789-",
               min_size=1, max_size=16)
VALUE = st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789 .;=,-",
                min_size=0, max_size=30).map(str.strip)
PATH = st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789/._-",
               min_size=1, max_size=40).map(lambda s: "/" + s)
BODY = st.binary(max_size=300)

RESERVED = ("content-length", "host", "connection")

HEADER_LISTS = st.lists(
    st.tuples(NAME.filter(lambda n: n.lower() not in RESERVED), VALUE),
    max_size=5, unique_by=lambda item: item[0].lower())


def _request_wire(method, path, headers, body):
    lines = [f"{method} {path} HTTP/1.1", "Host: example.test"]
    lines += [f"{name}: {value}" for name, value in headers]
    if body:
        lines.append(f"Content-Length: {len(body)}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body


@given(method=st.sampled_from(["GET", "HEAD", "POST", "PUT"]),
       path=PATH, headers=HEADER_LISTS, body=BODY)
@settings(max_examples=120, deadline=None)
def test_request_roundtrip_preserves_all_fields(method, path, headers, body):
    body = body if method in ("POST", "PUT") else b""
    wire = _request_wire(method, path, headers, body)
    framed, rest = split_request(wire)
    assert framed == wire and rest == b""
    parsed = parse_request(framed)
    parsed.validate()
    assert parsed.method == method
    assert parsed.path == path
    assert parsed.body == body
    for name, value in headers:
        assert parsed.headers.get_all(name) == [value]


@given(status=st.sampled_from([200, 204, 304, 404]), body=BODY,
       headers=HEADER_LISTS)
@settings(max_examples=100, deadline=None)
def test_head_suppresses_body_but_keeps_content_length(status, body, headers):
    response = HttpResponse(status=status, headers=Headers(headers),
                            body=body, head_only=True)
    wire = response.encode(date="D")
    head, sep, got_body = wire.partition(b"\r\n\r\n")
    assert sep == b"\r\n\r\n"
    assert got_body == b""                      # HEAD: nothing after the head
    assert wire == response.encode_head(date="D")
    content_lengths = [line for line in head.split(b"\r\n")
                       if line.lower().startswith(b"content-length:")]
    assert len(content_lengths) == 1
    assert int(content_lengths[0].split(b":")[1]) == len(body)


@given(status=st.sampled_from([200, 404, 500]), body=BODY,
       headers=HEADER_LISTS, head_only=st.booleans())
@settings(max_examples=100, deadline=None)
def test_encode_segments_equals_encode_byte_for_byte(status, body, headers,
                                                     head_only):
    response = HttpResponse(status=status, headers=Headers(headers),
                            body=body, head_only=head_only)
    flat = response.encode(date="D")

    segments = response.encode_segments(date="D")
    assert b"".join(segments) == flat
    # The body segment (when present) references the payload, no copy.
    if not head_only and body:
        assert segments[-1] is body


@given(body=BODY, claimed=st.integers(min_value=0, max_value=999),
       copies=st.integers(min_value=1, max_value=4))
@settings(max_examples=100, deadline=None)
def test_exactly_one_content_length_on_the_wire(body, claimed, copies):
    headers = Headers()
    for _ in range(copies):
        headers.add("Content-Length", str(claimed))
    wire = HttpResponse(status=200, headers=headers, body=body).encode(date="D")
    head = wire.partition(b"\r\n\r\n")[0]
    lines = [line for line in head.split(b"\r\n")
             if line.lower().startswith(b"content-length:")]
    assert len(lines) == 1
    # A handler-set value is respected (set-if-absent), not recomputed.
    assert int(lines[0].split(b":")[1]) == claimed


@given(body=BODY)
@settings(max_examples=60, deadline=None)
def test_content_length_defaults_to_body_size(body):
    wire = HttpResponse(status=200, body=body).encode(date="D")
    head, _sep, got_body = wire.partition(b"\r\n\r\n")
    assert got_body == body
    lines = [line for line in head.split(b"\r\n")
             if line.lower().startswith(b"content-length:")]
    assert len(lines) == 1
    assert int(lines[0].split(b":")[1]) == len(body)
