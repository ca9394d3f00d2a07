"""Deterministic concurrency harness for the socket-level tests.

Three small tools replace ad-hoc ``time.sleep()`` synchronization:

* :class:`FakeClock` — a manually advanced monotonic clock for
  components that accept a ``clock`` callable (e.g. the generated O7
  idle reaper, see :func:`idle_container`), so deadline logic is tested
  without real waiting;
* :func:`wait_until` — poll a predicate with a deadline and a helpful
  failure message, the one sanctioned way to wait for cross-thread
  state (counters, debug-ring events) to become visible;
* :class:`ServerFixture` — a context manager owning a started server's
  lifecycle plus the client-side plumbing every integration test was
  re-implementing (connect, framed request/response, raw HTTP GET);
* :func:`generated_server` — a generated framework's ``Server`` for an
  option set, generating each distinct option set only once per test
  session (:func:`generated_framework` returns the package itself).

The package lives under ``tests/`` (made importable as ``harness`` by
``tests/conftest.py``) because it is test infrastructure, not library
code: nothing under ``src/`` may depend on it.
"""

from __future__ import annotations

import atexit
import importlib
import shutil
import socket
import tempfile
import time
from types import SimpleNamespace
from typing import Callable, Mapping, Optional

__all__ = ["FakeClock", "FakeHandle", "IdleConn", "ServerFixture", "feed",
           "generated_framework", "generated_server", "idle_container",
           "wait_until"]


class FakeClock:
    """A monotonic clock that only moves when the test says so.

    Pass ``clock=fake_clock`` to a component that takes a time source
    (e.g. :func:`idle_container`), then call :meth:`advance` to step
    time deterministically.
    """

    def __init__(self, start: float = 0.0):
        self._now = float(start)
        self.sleeps: list[float] = []

    def __call__(self) -> float:
        return self._now

    def monotonic(self) -> float:
        return self._now

    def advance(self, seconds: float) -> None:
        if seconds < 0:
            raise ValueError("a monotonic clock cannot go backwards")
        self._now += float(seconds)

    def sleep(self, seconds: float) -> None:
        """Record the sleep and advance instantly — no real waiting."""
        self.sleeps.append(float(seconds))
        self.advance(seconds)


class FakeHandle:
    """In-memory stand-in for a SocketHandle: Communicator unit tests
    inject bytes with :func:`feed` and read replies off ``sent``."""

    def __init__(self):
        self.name = "fake"
        self.out_buffer = bytearray()
        self.sent = bytearray()
        self.last_activity = 0.0
        self.closed = False

    def try_recv(self, max_bytes=65536):
        return None

    def try_send(self):
        n = len(self.out_buffer)
        self.sent.extend(self.out_buffer)
        del self.out_buffer[:]
        return n

    @property
    def wants_write(self):
        return bool(self.out_buffer)

    def fileno(self):
        return -1

    def close(self):
        self.closed = True


def feed(conn, data: bytes) -> None:
    """Inject bytes into a Communicator as if the socket delivered
    them."""
    conn.in_buffer.extend(data)
    conn._pump_requests()


def wait_until(predicate: Callable[[], bool], timeout: float = 10.0,
               interval: float = 0.005,
               message: Optional[str] = None) -> bool:
    """Poll ``predicate`` until true or ``timeout`` elapses.

    Raises ``AssertionError`` on timeout when ``message`` is given;
    otherwise returns False so callers can assert with their own text.
    """
    deadline = time.monotonic() + timeout
    while True:
        if predicate():
            return True
        if time.monotonic() >= deadline:
            if message is not None:
                raise AssertionError(
                    f"condition not met within {timeout:.1f}s: {message}")
            return False
        time.sleep(interval)


#: generated packages of this session, keyed by their full option set
_FRAMEWORKS: dict = {}
#: where they live; created on first use, removed at interpreter exit
_framework_dir: Optional[str] = None


def generated_framework(options: Mapping[str, object]):
    """The loaded framework package generated for ``options``.

    ``options`` overrides the template defaults (e.g. ``{"O4":
    "Synchronous", "O13": True}``).  Each distinct option set is generated
    once per session into a temporary directory removed at exit, so
    tests that share a shape share its package.
    """
    global _framework_dir
    from repro.co2p3s.nserver import NSERVER
    from repro.co2p3s.template import load_generated_package

    opts = NSERVER.configure(options)
    key = repr(sorted(opts.as_dict().items()))
    framework = _FRAMEWORKS.get(key)
    if framework is None:
        if _framework_dir is None:
            _framework_dir = tempfile.mkdtemp(prefix="repro-fw-")
            atexit.register(shutil.rmtree, _framework_dir, True)
        package = f"harness_fw_{len(_FRAMEWORKS)}"
        NSERVER.generate(opts, _framework_dir, package=package)
        framework = load_generated_package(_framework_dir, package)
        _FRAMEWORKS[key] = framework
    return framework


def idle_container(clock: Callable[[], float]):
    """The generated O7 ``ContainerComponent`` — whose ``reap_idle`` is
    the idle reaper — of a framework reading time from ``clock``."""
    framework = generated_framework({"O4": "Synchronous", "O7": True})
    communication = importlib.import_module(
        framework.__name__ + ".communication")
    return communication.ContainerComponent(SimpleNamespace(clock=clock))


class IdleConn:
    """A Communicator stand-in for the idle reaper, added to
    ``container`` on construction; like the real teardown, ``close``
    removes it again."""

    def __init__(self, container, last_activity: float = 0.0):
        self.handle = SimpleNamespace(last_activity=last_activity)
        self.closed = False
        self.container = container
        container.add(self)

    def close(self) -> None:
        self.closed = True
        self.container.remove(self)


def generated_server(hooks, options: Mapping[str, object], **config):
    """A not-yet-started generated ``Server`` for ``options`` whose
    ``ServerConfiguration`` takes ``config`` as overrides."""
    framework = generated_framework(options)
    return framework.Server(
        hooks, configuration=framework.ServerConfiguration(**config))


class ServerFixture:
    """Own a server's start/stop lifecycle and its client plumbing.

    Works with any object exposing ``start()``, ``stop()`` and ``port``
    — in practice the generated ``Server`` facade (build one with
    :func:`generated_server`).  ``stop()``
    is exactly-once: tests that drain/stop early call
    :meth:`mark_stopped`.
    """

    def __init__(self, server, host: str = "127.0.0.1",
                 connect_timeout: float = 5.0):
        self.server = server
        self.host = host
        self.connect_timeout = connect_timeout
        self._stopped = False

    # -- lifecycle -------------------------------------------------------
    def __enter__(self) -> "ServerFixture":
        self.server.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    @property
    def port(self) -> int:
        return self.server.port

    def mark_stopped(self) -> None:
        """The test already stopped/drained the server itself."""
        self._stopped = True

    def stop(self) -> None:
        if not self._stopped:
            self._stopped = True
            self.server.stop()

    # -- client plumbing -------------------------------------------------
    def connect(self, timeout: Optional[float] = None) -> socket.socket:
        timeout = self.connect_timeout if timeout is None else timeout
        s = socket.create_connection((self.host, self.port), timeout=timeout)
        s.settimeout(timeout)
        return s

    def read_line(self, sock: socket.socket) -> bytes:
        """Read until newline or EOF (the tests' framing)."""
        buf = b""
        while not buf.endswith(b"\n"):
            chunk = sock.recv(4096)
            if not chunk:
                break
            buf += chunk
        return buf

    def request(self, payload: bytes, timeout: Optional[float] = None) -> bytes:
        """One connection, one newline-framed request/response."""
        s = self.connect(timeout)
        try:
            s.sendall(payload)
            return self.read_line(s)
        finally:
            s.close()

    def http_get(self, path: str, timeout: float = 5.0) -> bytes:
        """One-shot ``Connection: close`` HTTP GET; b'' if the server
        dropped the connection (e.g. an injected fault)."""
        try:
            s = socket.create_connection((self.host, self.port),
                                         timeout=timeout)
        except OSError:
            return b""
        s.settimeout(timeout)
        data = b""
        try:
            s.sendall(f"GET {path} HTTP/1.1\r\nHost: t\r\n"
                      "Connection: close\r\n\r\n".encode())
            while True:
                chunk = s.recv(65536)
                if not chunk:
                    break
                data += chunk
        except OSError:
            pass
        finally:
            s.close()
        return data

    def http_get_until_ok(self, path: str, attempts: int = 8) -> bytes:
        """Retry around injected faults (deterministic per seed)."""
        for _ in range(attempts):
            response = self.http_get(path)
            if response.startswith(b"HTTP/1.1 200"):
                return response
        raise AssertionError(f"no 200 for {path} in {attempts} attempts")
