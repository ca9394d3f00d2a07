"""Executable model of the COPS-HTTP wire behaviour.

A side-effect-free function from *what the client sent* (one
connection's request byte stream) plus a virtual filesystem to the
*set* of acceptable response streams, expressed as one
:class:`Expectation` per request with explicit equivalence rules.

The model is written independently of :mod:`repro.http` — it has its
own tiny parser — so a bug shared between the library and the servers
cannot hide from the differential checker.  Where the implementation's
behaviour is intentionally loose, the looseness is part of the model:

* header order, ``Date`` and ``Server`` values are never compared;
* under the ``shed`` freedom (an O17 build), any exchange may instead
  be answered with a well-formed 503 carrying ``Retry-After >= 1`` and
  ``Connection: close`` — after which the connection is done;
* under the ``faults`` freedom (an O13 run with a fault plane
  installed), a response stream may be cut short at any point — the
  checker validates the parseable prefix and tolerates the rest.

Everything else — status codes, framing, body bytes, Content-Length
consistency, close semantics, HEAD bodilessness — is checked exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple
from urllib.parse import unquote

__all__ = [
    "Expectation",
    "Freedoms",
    "ModelOptions",
    "ModelVFS",
    "ParsedResponse",
    "Verdict",
    "expected_exchanges",
    "parse_one_response",
    "parse_responses",
]

#: mirror of the implementation's framing guard rails
MAX_HEAD_BYTES = 64 * 1024
MAX_BODY_BYTES = 16 * 1024 * 1024

SUPPORTED_METHODS = ("GET", "HEAD", "POST", "PUT", "DELETE", "OPTIONS",
                     "TRACE")
STATUS_PATH = "/server-status"
INDEX_FILE = "index.html"


@dataclass
class ModelOptions:
    """The option-matrix facts the model's behaviour depends on.

    Most options (threading shape, cache policy, processes, write path)
    are *transparent* — the whole point of the conformance plane is
    that they must not change wire behaviour.  Only the ones with an
    application surface appear here.
    """

    #: O11: /server-status exists (else it 404s like any missing file)
    observability: bool = False


@dataclass
class Freedoms:
    """Tolerated deviations from the canonical exchange, as data."""

    #: O17 build: 503 + Retry-After may replace any exchange
    shed: bool = False
    #: a fault plane is injecting: streams may be cut short anywhere
    faults: bool = False


class ModelVFS:
    """The virtual filesystem the model resolves paths against.

    Maps absolute slash-paths (``"/index.html"``) to payload bytes.
    Resolution mirrors the served stack: percent-decoding happens in
    the request model, trailing-slash index rewriting in
    :func:`expected_exchanges`, and this class applies the lexical
    ``..`` containment rule — a path that climbs out of the root is
    unresolvable, exactly as the document-root loader refuses it.
    """

    def __init__(self, files: Dict[str, bytes]):
        self.files = {self._canonical(path): data
                      for path, data in files.items()}

    @staticmethod
    def _canonical(path: str) -> str:
        return "/" + "/".join(p for p in path.split("/") if p)

    def resolve(self, path: str) -> Optional[bytes]:
        """Payload for ``path``, or None (a 404: missing file, a
        directory, or a traversal that escapes the root)."""
        stack: List[str] = []
        for part in path.split("/"):
            if part in ("", "."):
                continue
            if part == "..":
                if not stack:
                    return None
                stack.pop()
                continue
            stack.append(part)
        return self.files.get("/" + "/".join(stack))


# ---------------------------------------------------------------------------
# request-side model: byte stream -> expectations


@dataclass
class Verdict:
    """One expectation judged against one real response."""

    outcome: str            # "ok" | "shed" | "mismatch"
    reason: Optional[str]   # human detail for mismatches
    closes: bool            # the connection is done after this exchange
    #: stable mismatch category — the last segment of a divergence ident
    kind: str = "ok"


@dataclass
class Expectation:
    """What the model owes for one request, plus its equivalence rules."""

    label: str                      # "GET /index.html" — stable ident part
    status: int
    closes: bool
    head_only: bool = False
    #: exact body bytes for content responses; None = unchecked
    body: Optional[bytes] = None
    require_content_type: bool = False
    freedoms: Freedoms = field(default_factory=Freedoms)

    def check(self, resp: "ParsedResponse") -> Verdict:
        """Judge ``resp``; header order, Date and Server never matter
        because the comparison is on the parsed form."""
        freedoms = self.freedoms
        if freedoms.shed and resp.status == 503 and self.status != 503:
            retry = resp.header("Retry-After")
            if (retry is not None and retry.isdigit() and int(retry) >= 1
                    and resp.closes):
                return Verdict("shed", None, True)
            return Verdict(
                "mismatch",
                "shed 503 must carry Retry-After >= 1 and Connection: close",
                True, kind="shed-shape")
        if resp.status != self.status:
            return Verdict(
                "mismatch",
                f"status {resp.status}, model expects {self.status}",
                True, kind="status")
        if resp.content_length_conflict:
            return Verdict("mismatch",
                           "conflicting Content-Length values in response",
                           True, kind="cl-conflict")
        if self.require_content_type and resp.header("Content-Type") is None:
            return Verdict("mismatch", "200 without Content-Type", True,
                           kind="content-type")
        if self.body is not None:
            length = len(self.body)
            declared = resp.header("Content-Length")
            if declared is None or not declared.isdigit():
                return Verdict("mismatch",
                               f"unusable Content-Length {declared!r}", True,
                               kind="content-length")
            if int(declared) != length:
                return Verdict(
                    "mismatch",
                    f"Content-Length {declared}, model expects {length}",
                    True, kind="content-length")
            if not self.head_only:
                if resp.body != self.body[:len(resp.body)]:
                    return Verdict("mismatch",
                                   "body differs from modelled payload",
                                   True, kind="body")
                if len(resp.body) != length:
                    return Verdict(
                        "mismatch",
                        f"body length {len(resp.body)}, model expects "
                        f"{length}",
                        True, kind="body-length")
        if resp.closes and not self.closes:
            return Verdict("mismatch",
                           "connection close on a keep-alive exchange",
                           True, kind="close")
        return Verdict("ok", None, self.closes or resp.closes)


def _header_lines(head: bytes) -> List[bytes]:
    return head.replace(b"\r\n", b"\n").split(b"\n")


def _content_length_of(head: bytes) -> Tuple[Optional[int], Optional[str]]:
    """(length, error) for a request head under the strict rules:
    every Content-Length value must be pure digits, duplicates must
    agree.  ``error`` is "bad" or "conflict" when violated."""
    values: List[bytes] = []
    for line in _header_lines(head)[1:]:
        name, colon, value = line.partition(b":")
        if colon and name.strip().lower() == b"content-length":
            values.append(value.strip())
    if not values:
        return 0, None
    if any(not v.isdigit() for v in values):
        return None, "bad"
    numbers = {int(v) for v in values}
    if len(numbers) > 1:
        return None, "conflict"
    return numbers.pop(), None


def _split_model(data: bytes):
    """Mirror of the framing step.  Returns None (incomplete), an int
    status (framing error: the whole connection answers it and
    closes), or ``(request_bytes, remainder)``."""
    end = data.find(b"\r\n\r\n")
    if end == -1:
        end_lf = data.find(b"\n\n")
        if end_lf == -1:
            if len(data) > MAX_HEAD_BYTES:
                return 414
            return None
        head_end = end_lf + 2
    else:
        head_end = end + 4
    length, error = _content_length_of(data[:head_end])
    if error is not None:
        return 400
    if length > MAX_BODY_BYTES:
        return 413
    total = head_end + length
    if len(data) < total:
        return None
    return data[:total], data[total:]


def _keep_alive(version: str, connection: Optional[str]) -> bool:
    value = (connection or "").lower()
    if version == "HTTP/1.1":
        return value != "close"
    return value == "keep-alive"


def _error(label: str, status: int, closes: bool, freedoms: Freedoms,
           head_only: bool = False) -> Expectation:
    return Expectation(label=label, status=status, closes=closes,
                       head_only=head_only, freedoms=freedoms)


def _evaluate(req: bytes, vfs: ModelVFS, options: ModelOptions,
              freedoms: Freedoms) -> Expectation:
    """One complete request's bytes -> the owed Expectation."""
    sep = b"\r\n\r\n" if b"\r\n\r\n" in req else b"\n\n"
    head, _, _body = req.partition(sep)
    lines = _header_lines(head)
    first = lines[0].split()
    label = b" ".join(first[:2]).decode("latin-1", "replace") or "<empty>"
    if not lines[0].strip() or len(first) != 3:
        return _error(label, 400, True, freedoms)
    try:
        method = first[0].decode("ascii").upper()
        target = first[1].decode("ascii")
        version = first[2].decode("ascii").upper()
    except UnicodeDecodeError:
        return _error(label, 400, True, freedoms)
    headers: List[Tuple[str, str]] = []
    for line in lines[1:]:
        if not line.strip():
            continue
        name, colon, value = line.partition(b":")
        if not colon or not name.strip():
            return _error(label, 400, True, freedoms)
        headers.append((name.strip().decode("latin-1").lower(),
                        value.strip().decode("latin-1")))
    label = f"{method} {target}"
    head_only = method == "HEAD"

    def header(name: str) -> Optional[str]:
        for key, value in headers:
            if key == name:
                return value
        return None

    # protocol validation (mirrors HttpRequest.validate; all close)
    if method not in SUPPORTED_METHODS:
        return _error(label, 501, True, freedoms)
    if version not in ("HTTP/1.0", "HTTP/1.1"):
        return _error(label, 505, True, freedoms, head_only)
    if version == "HTTP/1.1" and header("host") is None:
        return _error(label, 400, True, freedoms, head_only)
    if not target.startswith("/") and target != "*":
        return _error(label, 400, True, freedoms, head_only)

    keep_alive = _keep_alive(version, header("connection"))
    if method not in ("GET", "HEAD"):
        # supported-but-unimplemented verb: 501 on a live connection
        return _error(label, 501, not keep_alive, freedoms)
    path = unquote(target.split("?", 1)[0])
    if path == STATUS_PATH:
        if not options.observability:
            return _error(label, 404, not keep_alive, freedoms, head_only)
        return Expectation(label=label, status=200, closes=not keep_alive,
                           head_only=head_only, require_content_type=True,
                           freedoms=freedoms)
    if path.endswith("/"):
        path += INDEX_FILE
    payload = vfs.resolve(path)
    if payload is None:
        return _error(label, 404, not keep_alive, freedoms, head_only)
    return Expectation(label=label, status=200, closes=not keep_alive,
                       head_only=head_only, body=payload,
                       require_content_type=True, freedoms=freedoms)


def expected_exchanges(stream: bytes, vfs: ModelVFS,
                       options: Optional[ModelOptions] = None,
                       freedoms: Optional[Freedoms] = None
                       ) -> List[Expectation]:
    """The model function: one connection's request bytes -> the
    ordered expectations the server owes.

    Generation stops at the first close-marked exchange (later
    pipelined requests *may* still be answered — the checker tolerates
    that tail but requires nothing of it) and at a trailing incomplete
    request (the model owes nothing for bytes that never framed)."""
    options = options or ModelOptions()
    freedoms = freedoms or Freedoms()
    expectations: List[Expectation] = []
    rest = stream
    while rest:
        split = _split_model(rest)
        if split is None:
            break
        if isinstance(split, int):
            expectations.append(
                _error("<framing>", split, True, freedoms))
            break
        req, rest = split
        expectation = _evaluate(req, vfs, options, freedoms)
        expectations.append(expectation)
        if expectation.closes:
            break
    return expectations


# ---------------------------------------------------------------------------
# response-side model: byte stream -> parsed responses


@dataclass
class ParsedResponse:
    """One wire response in parsed (order-insensitive) form."""

    version: str
    status: int
    headers: List[Tuple[str, str]]
    body: bytes
    content_length_conflict: bool = False

    def header(self, name: str) -> Optional[str]:
        lowered = name.lower()
        for key, value in self.headers:
            if key.lower() == lowered:
                return value
        return None

    @property
    def closes(self) -> bool:
        value = (self.header("Connection") or "").lower()
        if value == "close":
            return True
        return self.version == "HTTP/1.0" and value != "keep-alive"


def parse_one_response(data: bytes, head_only: bool = False):
    """Parse one response off the front of ``data``.

    Returns ``(ParsedResponse, remainder)``, None when the bytes are an
    incomplete prefix of a response, or an error string when they can
    never parse.  ``head_only`` responses declare a Content-Length but
    carry no body bytes."""
    end = data.find(b"\r\n\r\n")
    if end == -1:
        if len(data) > MAX_HEAD_BYTES:
            return "response head never terminates"
        return None
    head, rest = data[:end], data[end + 4:]
    lines = head.split(b"\r\n")
    status_parts = lines[0].split(None, 2)
    if len(status_parts) < 2:
        return f"unparseable status line {lines[0][:60]!r}"
    try:
        version = status_parts[0].decode("ascii")
        status = int(status_parts[1])
    except (UnicodeDecodeError, ValueError):
        return f"unparseable status line {lines[0][:60]!r}"
    if not version.startswith("HTTP/1."):
        return f"bad response version {version!r}"
    headers: List[Tuple[str, str]] = []
    for line in lines[1:]:
        name, colon, value = line.partition(b":")
        if not colon or not name.strip():
            return f"unparseable response header {line[:60]!r}"
        headers.append((name.strip().decode("latin-1"),
                        value.strip().decode("latin-1")))
    lengths = {value for key, value in headers
               if key.lower() == "content-length"}
    conflict = len(lengths) > 1
    declared = 0
    if lengths and not conflict:
        value = lengths.pop()
        if not value.isdigit():
            return f"non-numeric Content-Length {value!r}"
        declared = int(value)
    body = b""
    if not head_only and not conflict:
        if len(rest) < declared:
            return None
        body, rest = rest[:declared], rest[declared:]
    return ParsedResponse(version=version, status=status, headers=headers,
                          body=body,
                          content_length_conflict=conflict), rest


def parse_responses(stream: bytes, head_flags: List[bool]):
    """Parse a whole connection's response bytes in lockstep with the
    per-exchange ``head_flags``.  Returns ``(responses, remainder,
    error)`` where ``remainder`` holds unconsumed bytes and ``error``
    a parse-failure description (None when the stream is clean)."""
    responses: List[ParsedResponse] = []
    rest = stream
    for head_only in head_flags:
        if not rest:
            break
        parsed = parse_one_response(rest, head_only=head_only)
        if parsed is None:
            return responses, rest, None
        if isinstance(parsed, str):
            return responses, rest, parsed
        resp, rest = parsed
        responses.append(resp)
    return responses, rest, None
