"""Differential conformance checker: model vs generated servers.

For each option-matrix :class:`Corner` the checker generates a real
COPS-HTTP framework (exactly as an application would), starts it on an
ephemeral port, replays seeded client sessions against it, and judges
every captured response stream against the executable model.  A
disagreement becomes a :class:`Divergence` with a stable ident that
``conform-baseline.toml`` can suppress with a justification; anything
unsuppressed fails the sweep.

Failing sessions shrink: :func:`shrink_session` re-runs a failing
session with one unit removed at a time (units are request frames, not
raw steps) until it is 1-minimal, so the reproducer that lands in a bug
report is the smallest client behaviour that still diverges.
"""

from __future__ import annotations

import os
import select
import socket
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.conform import model as conform_model
from repro.conform.model import (
    Expectation,
    Freedoms,
    ModelOptions,
    ModelVFS,
    expected_exchanges,
    parse_one_response,
)
from repro.conform.sessions import (
    Session,
    Step,
    directed_sessions,
    generate_sessions,
)
from repro.faults import FaultPlane, FaultSpec, abrupt_reset, trickle_send

__all__ = [
    "Corner",
    "CornerResult",
    "Divergence",
    "DEFAULT_FILES",
    "DEFAULT_PATHS",
    "check_session",
    "corner_matrix",
    "replay_session",
    "run_corner",
    "shrink_session",
]


# ---------------------------------------------------------------------------
# the shared virtual filesystem


def _pattern(n: int, tag: bytes) -> bytes:
    unit = tag + b"-0123456789abcdef\n"
    return (unit * (n // len(unit) + 1))[:n]


#: the document tree every corner serves; the model resolves against
#: the same mapping, so content disagreements are real divergences
DEFAULT_FILES: Dict[str, bytes] = {
    "/index.html": b"<html><body>conform index</body></html>\n",
    "/a.html": b"<html><body>page a</body></html>\n",
    "/b.html": _pattern(1900, b"pageB"),
    "/data.txt": _pattern(1200, b"data"),
    "/assets/logo.png": bytes(range(256)) * 3,
    "/sub/index.html": b"<html><body>sub index</body></html>\n",
    "/big.bin": _pattern(6000, b"big"),
}

#: request targets in Zipf popularity order (note ``/sub/`` exercises
#: the trailing-slash index rewrite on every corner)
DEFAULT_PATHS = ["/index.html", "/a.html", "/data.txt", "/sub/",
                 "/assets/logo.png", "/b.html", "/big.bin",
                 "/no-such-file.html"]


def materialise(files: Dict[str, bytes], root: str) -> None:
    """Write the virtual tree to a real document root."""
    for path, data in files.items():
        full = os.path.join(root, path.lstrip("/"))
        os.makedirs(os.path.dirname(full), exist_ok=True)
        with open(full, "wb") as fh:
            fh.write(data)


# ---------------------------------------------------------------------------
# corners


@dataclass
class Corner:
    """One option-matrix point the sweep checks."""

    name: str
    description: str
    #: template options (None = the COPS-HTTP defaults)
    options: Optional[dict] = None
    #: extra ``build_cops_http`` keyword arguments (procs=, write_path=,
    #: degradation=)
    build: dict = field(default_factory=dict)
    #: ServerConfiguration overrides
    config: dict = field(default_factory=dict)
    model: ModelOptions = field(default_factory=ModelOptions)
    freedoms: Freedoms = field(default_factory=Freedoms)
    #: install a fault plane with this spec before start (O13 corners)
    fault_spec: Optional[FaultSpec] = None
    fault_seed: int = 7
    #: serialise session replay (admission-stateful corners)
    sequential: bool = False
    smoke: bool = True


def corner_matrix(which: str = "smoke") -> List[Corner]:
    """The option corners the sweep replays against.

    ``smoke`` is the PR gate (every corner marked smoke); ``full`` adds
    the combination corners.  Import here, not at module top: the
    checker is importable without triggering framework generation
    machinery.
    """
    from repro.co2p3s.nserver import (
        COPS_HTTP_DEGRADATION_OPTIONS,
        COPS_HTTP_OBSERVABILITY_OPTIONS,
        COPS_HTTP_OPTIONS,
        COPS_HTTP_RESILIENCE_OPTIONS,
    )

    fault_spec = FaultSpec(
        recv_reset=0.04, recv_eagain=0.1, partial_read=0.25,
        partial_read_bytes=5,
        send_reset=0.04, send_eagain=0.1, partial_write=0.2,
        partial_write_bytes=9,
        disk_error=0.12)
    observ = ModelOptions(observability=True)
    shed = Freedoms(shed=True)
    corners = [
        Corner("base", "paper defaults (Table 1 COPS-HTTP column)"),
        Corner("obs", "O11 observability: /server-status exists",
               options=dict(COPS_HTTP_OBSERVABILITY_OPTIONS), model=observ),
        Corner("resilience", "O11+O13 supervision and deadlines",
               options=dict(COPS_HTTP_RESILIENCE_OPTIONS), model=observ),
        Corner("overload", "O9 accept-postpone overload control",
               options=dict(COPS_HTTP_OPTIONS, O9=True)),
        Corner("procs", "O16=2 worker processes on one SO_REUSEPORT "
               "socket; each must be conversation-identical to the "
               "single-process build", build={"procs": 2}),
        Corner("degradation", "O9+O11+O17 graceful degradation, quiet",
               options=dict(COPS_HTTP_DEGRADATION_OPTIONS),
               build={"degradation": True}, model=observ, freedoms=shed),
        Corner("shed", "O17 with a one-token client budget: every "
               "connection after the first answers the canned 503",
               options=dict(COPS_HTTP_DEGRADATION_OPTIONS),
               build={"degradation": True},
               config={"shed_rate": 0.001, "shed_burst": 1.0},
               model=observ, freedoms=shed, sequential=True),
        Corner("faulty", "O13 under a seeded socket+disk fault schedule",
               options=dict(COPS_HTTP_RESILIENCE_OPTIONS), model=observ,
               freedoms=Freedoms(faults=True), fault_spec=fault_spec),
    ]
    if which == "full":
        corners += [
            Corner("degraded-procs", "O17 across O16=2 worker processes",
                   options=dict(COPS_HTTP_DEGRADATION_OPTIONS),
                   build={"degradation": True, "procs": 2},
                   model=observ, freedoms=shed, smoke=False),
        ]
    return corners


# ---------------------------------------------------------------------------
# replay


class _PeerClosed(Exception):
    pass


def replay_session(host: str, port: int, session: Session,
                   idle_timeout: float = 1.5,
                   deadline: float = 15.0) -> bytes:
    """Run one session against a live server; returns the captured
    response byte stream (empty on connect failure or reset)."""
    try:
        sock = socket.create_connection((host, port), timeout=5.0)
    except OSError:
        return b""
    collected = bytearray()

    def drain_ready() -> None:
        # opportunistic read between sends: a server that answers and
        # closes mid-upload (413/414) would otherwise race an RST past
        # the response bytes still in our receive buffer
        while True:
            ready, _, _ = select.select([sock], [], [], 0)
            if not ready:
                return
            got = sock.recv(65536)
            if not got:
                raise _PeerClosed
            collected.extend(got)

    try:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        for step in session.steps:
            if step.kind == "reset":
                abrupt_reset(sock)
                return bytes(collected)
            try:
                if step.trickle:
                    trickle_send(sock, step.data, chunk=16, delay=0.002)
                else:
                    for off in range(0, len(step.data), 4096):
                        sock.sendall(step.data[off:off + 4096])
                        drain_ready()
            except (_PeerClosed, OSError):
                break
        end = time.monotonic() + deadline
        sock.settimeout(idle_timeout)
        while time.monotonic() < end:
            try:
                got = sock.recv(65536)
            except socket.timeout:
                break
            except OSError:
                break
            if not got:
                break
            collected += got
    finally:
        try:
            sock.close()
        except OSError:
            pass
    return bytes(collected)


# ---------------------------------------------------------------------------
# judging


@dataclass
class Divergence:
    """One disagreement between the model and a real server."""

    ident: str
    corner: str
    session: str
    kind: str
    detail: str
    #: justification from conform-baseline.toml, when suppressed
    suppressed: Optional[str] = None

    @classmethod
    def build(cls, corner: str, session: str, label: str, kind: str,
              detail: str) -> "Divergence":
        return cls(ident=f"conform:{corner}:{session}:{label}:{kind}",
                   corner=corner, session=session, kind=kind, detail=detail)


def check_session(session: Session, stream: bytes, vfs: ModelVFS,
                  options: ModelOptions, freedoms: Freedoms,
                  corner_name: str = "corner") -> List[Divergence]:
    """Judge one captured response ``stream`` against the model.

    Reset sessions are survival-only (the client tore the connection
    down without reading).  Under the ``faults`` freedom — or a
    session marked lenient — the parseable prefix is judged strictly
    and the first anomaly ends checking without a divergence."""
    if session.resets:
        return []
    lenient = freedoms.faults or getattr(session, "lenient", False)
    expectations = expected_exchanges(session.payload, vfs, options,
                                      freedoms)
    divergences: List[Divergence] = []
    rest = stream
    closed = False
    for expectation in expectations:
        parsed = parse_one_response(rest, head_only=expectation.head_only)
        if parsed is None:
            if lenient or closed:
                return divergences
            divergences.append(Divergence.build(
                corner_name, session.name, expectation.label,
                "missing-response",
                f"stream ended with {len(rest)} unparseable trailing "
                f"byte(s): {rest[:60]!r}"))
            return divergences
        if isinstance(parsed, str):
            if lenient:
                return divergences
            divergences.append(Divergence.build(
                corner_name, session.name, expectation.label,
                "unparseable-response", parsed))
            return divergences
        resp, rest = parsed
        if expectation.head_only and freedoms.shed and resp.status == 503 \
                and rest and not rest.startswith(b"HTTP/1."):
            # The accept-level canned rejection knows nothing about the
            # request it answers: its 503 carries a body even when that
            # request was a HEAD.  Consume the declared length before
            # judging the rest of the stream.
            declared = resp.header("Content-Length") or ""
            if declared.isdigit() and len(rest) >= int(declared):
                rest = rest[int(declared):]
        if expectation.head_only and rest and \
                not rest.startswith(b"HTTP/1."):
            if lenient:
                return divergences
            divergences.append(Divergence.build(
                corner_name, session.name, expectation.label,
                "head-carries-body",
                f"bytes after a HEAD response: {rest[:60]!r}"))
            return divergences
        verdict = expectation.check(resp)
        if verdict.outcome == "mismatch":
            if lenient:
                return divergences
            divergences.append(Divergence.build(
                corner_name, session.name, expectation.label,
                verdict.kind, verdict.reason or verdict.kind))
            return divergences
        if verdict.outcome == "shed" or verdict.closes:
            # whole-connection shed or a close-marked exchange: later
            # pipelined responses are a tolerated tail
            closed = True
            break
    if rest and not closed and not lenient:
        divergences.append(Divergence.build(
            corner_name, session.name, "<tail>", "extra-bytes",
            f"{len(rest)} byte(s) beyond the modelled exchanges: "
            f"{rest[:60]!r}"))
    return divergences


# ---------------------------------------------------------------------------
# driving a corner


@dataclass
class CornerResult:
    corner: Corner
    sessions: int = 0
    exchanges: int = 0
    divergences: List[Divergence] = field(default_factory=list)
    #: the server still answered after the whole session set
    survived: bool = True

    @property
    def clean(self) -> bool:
        return not self.divergences and self.survived


def _build_corner_server(corner: Corner, workdir: str,
                         files: Dict[str, bytes]):
    from repro.servers.cops_http import build_cops_http

    docroot = os.path.join(workdir, "docroot")
    if not os.path.isdir(docroot):
        os.makedirs(docroot)
        materialise(files, docroot)
    dest = os.path.join(workdir, f"fw_{corner.name.replace('-', '_')}")
    package = f"conform_{corner.name.replace('-', '_')}_fw"
    plane = (FaultPlane(corner.fault_spec, seed=corner.fault_seed)
             if corner.fault_spec is not None else None)
    server, fw, _report = build_cops_http(
        docroot, options=corner.options, dest=dest, package=package,
        **corner.build, **corner.config)
    if plane is not None:
        plane.install(server)
    return server, plane


def _probe_alive(host: str, port: int) -> bool:
    probe = Session(name="probe", steps=[Step(
        "send", b"GET /index.html HTTP/1.1\r\nHost: probe\r\n"
                b"Connection: close\r\n\r\n")])
    for _ in range(5):
        if replay_session(host, port, probe, idle_timeout=0.5):
            return True
        time.sleep(0.05)
    return False


def run_corner(corner: Corner, sessions: Sequence[Session],
               files: Optional[Dict[str, bytes]] = None,
               workdir: Optional[str] = None,
               concurrency: int = 4) -> CornerResult:
    """Replay ``sessions`` against a freshly generated server for
    ``corner`` and judge every stream against the model.

    The readiness backend is the runtime's pick (``REPRO_POLLER``, else
    the platform default).  Without a ``workdir`` the run makes a
    temporary one and removes it after.
    """
    files = files if files is not None else DEFAULT_FILES
    if workdir is None:
        with tempfile.TemporaryDirectory(
                prefix=f"conform_{corner.name}_") as workdir:
            return run_corner(corner, sessions, files, workdir,
                              concurrency)
    vfs = ModelVFS(files)
    result = CornerResult(corner=corner, sessions=len(sessions))
    server, _plane = _build_corner_server(corner, workdir, files)
    server.start()
    try:
        host, port = "127.0.0.1", server.port
        if corner.sequential or concurrency <= 1:
            streams = [replay_session(host, port, s) for s in sessions]
        else:
            with ThreadPoolExecutor(max_workers=concurrency) as pool:
                streams = list(pool.map(
                    lambda s: replay_session(host, port, s), sessions))
        for session, stream in zip(sessions, streams):
            found = check_session(session, stream, vfs, corner.model,
                                  corner.freedoms, corner.name)
            result.exchanges += len(expected_exchanges(
                session.payload, vfs, corner.model, corner.freedoms))
            result.divergences.extend(found)
        result.survived = _probe_alive(host, port)
        if not result.survived:
            result.divergences.append(Divergence.build(
                corner.name, "<post>", "<probe>", "server-dead",
                "server stopped answering after the session sweep"))
    finally:
        server.stop()
    return result


# ---------------------------------------------------------------------------
# shrinking


def _atomize(session: Session) -> List[Step]:
    """Break a session into the smallest removable units: request
    frames inside send steps, plus reset markers."""
    units: List[Step] = []
    for step in session.steps:
        if step.kind != "send":
            units.append(step)
            continue
        rest = step.data
        while rest:
            split = conform_model._split_model(rest)
            if split is None or isinstance(split, int):
                units.append(Step("send", rest, trickle=step.trickle))
                break
            frame, rest = split
            units.append(Step("send", frame, trickle=step.trickle))
    return units


def shrink_session(session: Session,
                   failing: Callable[[Session], bool],
                   max_attempts: int = 80) -> Session:
    """Greedy ddmin-lite: remove one unit at a time while ``failing``
    still holds; the result is 1-minimal (no single unit can go).

    ``failing`` replays a candidate and reports whether the divergence
    reproduces; it is called at most ``max_attempts`` times."""
    units = _atomize(session)
    attempts = 0
    shrunk = True
    while shrunk and attempts < max_attempts and len(units) > 1:
        shrunk = False
        for i in range(len(units)):
            candidate = Session(name=f"{session.name}-shrink",
                                steps=units[:i] + units[i + 1:])
            attempts += 1
            if failing(candidate):
                units = candidate.steps
                shrunk = True
                break
            if attempts >= max_attempts:
                break
    return Session(name=f"{session.name}-min", steps=units)
