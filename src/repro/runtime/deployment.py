"""Multi-process deployment (option O16): prefork workers on one socket.

Threads (O1/O2) overlap I/O but share one GIL; the deployment plane
scales CPU-bound work past it the way Apache's prefork MPM and nginx
do — N worker *processes*, each running its own reactor, all
accepting from one shared listening socket:

* the :class:`ProcessSupervisor` binds a single ``SO_REUSEPORT`` listen
  socket in the parent and **never closes it** while the deployment is
  up — the accept queue survives any individual worker's death or
  restart, which is what makes rolling restarts drop nothing;
* each worker is a **fresh interpreter** (``python -m
  repro.runtime.deployment --worker``), not a fork: no inherited
  threads, no duplicated locks, no shared flight rings.  The listen
  socket's fd travels to the worker over a Unix-domain control socket
  via ``socket.send_fds`` along with a JSON spec naming a *factory*
  (``"module:callable"``) that builds the worker's server;
* the control socket then carries newline-delimited JSON both ways:
  ``status`` / ``drain`` / ``stop`` requests from the supervisor,
  ``ready`` and id-correlated replies from the worker.  The worker's
  **main thread is its control loop** — request handling runs on the
  reactor's own threads, so a status query is never stuck behind a
  slow request;
* crashes are detected by a monitor thread and respawned within a
  bounded budget (``respawn_limit`` exits per ``respawn_window``
  seconds), so a crash *storm* degrades to fewer workers instead of a
  fork bomb;
* ``SIGHUP`` (or :meth:`ProcessSupervisor.rolling_restart`) replaces
  workers one at a time: spawn the successor, wait until it is
  accepting, then drain the predecessor — at every instant at least
  ``procs`` workers are accepting, so no connection is refused and no
  in-flight request is cut;
* cross-process observability: the supervisor serves an aggregation
  endpoint on a Unix *stats socket* (path exported to workers as
  ``$REPRO_STATS_SOCKET``); a worker answering ``/server-status``
  calls :func:`cluster_status_fields`, which asks the supervisor,
  which polls every worker's O11 registry over the control channels
  and merges them with
  :func:`repro.obs.exposition.merge_status_fields`.  Flight dumps
  are already namespaced per PID, and trace ids carry a PID component
  (:func:`repro.obs.tracing.next_trace_id`), so evidence from
  different workers never collides.

The generated frameworks reach this module through one factory:
:func:`generated_worker` rebuilds a generated package's ``Worker``
inside the child process from the :func:`generated_worker_args` spec.
"""

from __future__ import annotations

import importlib
import json
import os
import signal
import socket
import subprocess
import sys
import tempfile
import threading
import time
from typing import Dict, List, Optional, Sequence, Tuple

from repro.lint.locks import access, make_lock, shared
from repro.obs.exposition import merge_status_fields
from repro.obs.flight import install_signal_dump

__all__ = [
    "STATS_SOCKET_ENV",
    "ProcessSupervisor",
    "adopted_listen_socket",
    "cluster_status_fields",
    "generated_worker",
    "generated_worker_args",
    "in_worker_process",
    "worker_listen_handle",
]

#: environment variable carrying the supervisor's stats-socket path
#: into worker processes (unset = not running under a supervisor)
STATS_SOCKET_ENV = "REPRO_STATS_SOCKET"

#: the listening socket this process adopted from its supervisor;
#: module-level *runtime state*, set once by ``worker_main`` before any
#: server is constructed and read by :func:`worker_listen_handle`
_ADOPTED_LISTEN: Optional[socket.socket] = None


# -- worker-process runtime state ---------------------------------------------


def in_worker_process() -> bool:
    """True when this process is an O16 worker (it adopted a socket)."""
    return _ADOPTED_LISTEN is not None


def adopted_listen_socket() -> Optional[socket.socket]:
    """The shared listening socket this worker received, or None."""
    return _ADOPTED_LISTEN


def worker_listen_handle(configuration, handle_cls: Optional[type] = None):
    """The listen handle for a server component inside an O16 worker.

    Adopts the supervisor-passed socket when one was received; outside
    a supervisor (a worker build instantiated directly, e.g. by the
    conformance harness) it binds its own ``SO_REUSEPORT`` socket so
    the build still serves.  ``configuration`` supplies host, port and
    backlog exactly as the single-process listen expression does.
    """
    from repro.runtime.handles import ListenHandle
    backlog = getattr(configuration, "backlog", 128)
    adopted = adopted_listen_socket()
    if adopted is not None:
        return ListenHandle(configuration.host, configuration.port,
                            backlog, handle_cls=handle_cls, sock=adopted)
    return ListenHandle(configuration.host, configuration.port,
                        backlog, handle_cls=handle_cls, reuse_port=True)


def _resolve(path: str):
    """Resolve a ``"module:attribute"`` dotted path to the object."""
    module_name, _, attr = path.partition(":")
    if not module_name or not attr:
        raise ValueError(f"factory path must be 'module:attr', not {path!r}")
    target = importlib.import_module(module_name)
    for part in attr.split("."):
        target = getattr(target, part)
    return target


# -- the control protocol -----------------------------------------------------


def _send_json(sock: socket.socket, message: dict) -> None:
    """One newline-terminated JSON message onto a control socket."""
    sock.sendall(json.dumps(message).encode("utf-8") + b"\n")


def _read_line(sock: socket.socket, buf: bytearray) -> Optional[bytes]:
    """Blocking read of one newline-terminated record; None on EOF."""
    while b"\n" not in buf:
        try:
            chunk = sock.recv(65536)
        except OSError:
            return None
        if not chunk:
            return None
        buf += chunk
    line, _, rest = bytes(buf).partition(b"\n")
    del buf[:]
    buf += rest
    return line


# -- the supervisor -----------------------------------------------------------


class _Worker:
    """Supervisor-side record of one worker process.

    Owns the parent end of the control socket, the reader thread that
    drains it, and the id-correlated pending-request table.
    """

    def __init__(self, proc: subprocess.Popen, control: socket.socket,
                 generation: int):
        self.proc = proc
        self.control = control
        self.generation = generation
        self.pid = proc.pid
        #: bound port reported in the worker's ready message
        self.port: Optional[int] = None
        self.ready = threading.Event()
        #: set during rolling restart / shutdown so the monitor does
        #: not respawn a worker we deliberately drained
        self.retiring = False
        self._send_lock = threading.Lock()
        self._next_id = 1
        self._pending: Dict[int, dict] = {}
        self._pending_lock = threading.Lock()
        self._reader = threading.Thread(
            target=self._read_loop, name=f"deploy-reader-{self.pid}",
            daemon=True)
        self._reader.start()

    def _read_loop(self) -> None:
        """Drain control messages: readiness and request replies."""
        buf = bytearray()
        while True:
            line = _read_line(self.control, buf)
            if line is None:
                break  # worker exited (or crashed); the monitor reacts
            try:
                message = json.loads(line)
            except ValueError:
                continue
            kind = message.get("type")
            if kind == "ready":
                self.port = message.get("port")
                self.ready.set()
            elif kind == "reply":
                with self._pending_lock:
                    slot = self._pending.pop(message.get("id"), None)
                if slot is not None:
                    slot["reply"] = message
                    slot["event"].set()
        # wake every waiter: no reply is ever coming
        with self._pending_lock:
            pending, self._pending = dict(self._pending), {}
        for slot in pending.values():
            slot["event"].set()

    def send(self, message: dict) -> bool:
        """Fire-and-forget control message; False if the pipe is dead."""
        try:
            with self._send_lock:
                _send_json(self.control, message)
            return True
        except OSError:
            return False

    def request(self, message: dict, timeout: float) -> Optional[dict]:
        """Send a control request and wait for its correlated reply."""
        slot = {"event": threading.Event(), "reply": None}
        with self._pending_lock:
            request_id = self._next_id
            self._next_id += 1
            self._pending[request_id] = slot
        message = dict(message, id=request_id)
        if not self.send(message):
            with self._pending_lock:
                self._pending.pop(request_id, None)
            return None
        slot["event"].wait(timeout)
        with self._pending_lock:
            self._pending.pop(request_id, None)
        return slot["reply"]

    def close(self) -> None:
        """Close the control socket (unblocks the reader thread)."""
        try:
            self.control.close()
        except OSError:  # pragma: no cover - already closed
            pass


class ProcessSupervisor:
    """Prefork supervisor: N worker processes on one listen socket.

    ``factory`` is a ``"module:callable"`` dotted path resolved *in the
    worker process* and called as ``factory(args, listen_sock)``; it
    must return an object with ``start()`` and ``stop()`` and may offer
    ``drain(timeout)`` and ``status_fields()``.  ``args`` must be
    JSON-serializable — it is the only state that travels to the fresh
    worker interpreter.

    The supervisor itself runs no reactor: it binds the shared socket,
    spawns and watches workers, answers stats queries, and orchestrates
    rolling restarts.  Per-server planes — Acceptor, fault plane,
    worker supervision — are constructed *per process*, inside each
    worker's own server.
    """

    def __init__(self, factory: str, args: dict, procs: int,
                 host: str = "127.0.0.1", port: int = 0,
                 backlog: int = 128,
                 ready_timeout: float = 15.0,
                 drain_timeout: float = 5.0,
                 respawn_limit: int = 5,
                 respawn_window: float = 30.0):
        if procs < 1:
            raise ValueError(f"procs must be >= 1, not {procs}")
        self.factory = factory
        self.args = args
        self.procs = procs
        self.host = host
        self._requested_port = port
        self.backlog = backlog
        self.ready_timeout = ready_timeout
        self.drain_timeout = drain_timeout
        self.respawn_limit = respawn_limit
        self.respawn_window = respawn_window

        self._listen_sock: Optional[socket.socket] = None
        self._stats_dir: Optional[str] = None
        self._stats_path: Optional[str] = None
        self._stats_sock: Optional[socket.socket] = None
        self._stats_thread: Optional[threading.Thread] = None
        self._monitor_thread: Optional[threading.Thread] = None
        self._stop_event = threading.Event()
        self._started = False
        self._started_at = 0.0

        self._lock = make_lock("process-supervisor")
        #: serialises rolling restarts against each other and shutdown
        self._restart_lock = threading.Lock()
        self._workers: List[_Worker] = []
        self._respawn_times: List[float] = []
        #: workers replaced after an unexpected exit
        self.restarts_total = 0
        #: completed rolling restarts (the deployment's generation)
        self.generation = 0
        #: True once the respawn budget ran dry (the storm breaker)
        self.respawn_exhausted = False
        shared(self, "_workers", "_respawn_times", "restarts_total",
               "generation", "respawn_exhausted", "_started",
               label="supervisor worker table (monitor vs restart vs "
                     "stats threads)")

    # -- lifecycle ------------------------------------------------------

    @property
    def port(self) -> int:
        """The shared listen socket's bound port."""
        if self._listen_sock is None:
            raise RuntimeError("supervisor not started")
        return self._listen_sock.getsockname()[1]

    def start(self) -> None:
        """Bind the shared socket, start stats + monitor, spawn workers.

        Blocks until every worker reported ready (listening) or raises
        after ``ready_timeout``, tearing the half-started deployment
        down first.
        """
        with self._lock:
            if self._started:
                return
            access(self, "_started")
            self._started = True
        self._started_at = time.monotonic()
        self._stop_event.clear()
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        if hasattr(socket, "SO_REUSEPORT"):
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
        sock.bind((self.host, self._requested_port))
        sock.listen(self.backlog)
        self._listen_sock = sock
        self._open_stats_socket()
        try:
            workers = [self._spawn_worker() for _ in range(self.procs)]
            self._await_ready(workers)
        except Exception:
            self._shutdown()
            raise
        self._monitor_thread = threading.Thread(
            target=self._monitor_loop, name="deploy-monitor", daemon=True)
        self._monitor_thread.start()

    def _await_ready(self, workers: Sequence[_Worker]) -> None:
        """Wait until every given worker reported ready, or raise."""
        deadline = time.monotonic() + self.ready_timeout
        for worker in workers:
            remaining = deadline - time.monotonic()
            if remaining <= 0 or not worker.ready.wait(remaining):
                raise RuntimeError(
                    f"worker pid={worker.pid} not ready within "
                    f"{self.ready_timeout}s")

    def _spawn_worker(self) -> _Worker:
        """Launch one fresh worker interpreter and hand it the socket."""
        parent, child = socket.socketpair()
        # -c, not -m: runpy would execute this module a second time as
        # __main__ (and warn — repro.runtime already imported it), with
        # the adopted-socket global in the wrong module instance.
        command = [sys.executable, "-c",
                   "import sys; from repro.runtime.deployment import main; "
                   "sys.exit(main(sys.argv[1:]))",
                   "--worker", "--control-fd", str(child.fileno())]
        env = dict(os.environ)
        env[STATS_SOCKET_ENV] = self._stats_path or ""
        # The fresh interpreter must find the repro package wherever
        # the supervisor found it, with or without an installed dist.
        import repro
        src = os.path.dirname(os.path.dirname(os.path.abspath(
            repro.__file__)))
        extra = env.get("PYTHONPATH", "")
        if src not in extra.split(os.pathsep):
            env["PYTHONPATH"] = (src + os.pathsep + extra) if extra else src
        proc = subprocess.Popen(command, env=env,
                                pass_fds=(child.fileno(),))
        child.close()
        spec = json.dumps({"factory": self.factory,
                           "args": self.args}).encode("utf-8") + b"\n"
        socket.send_fds(parent, [spec], [self._listen_sock.fileno()])
        worker = _Worker(proc, parent, self.generation)
        with self._lock:
            access(self, "_workers")
            self._workers.append(worker)
        return worker

    def _live_workers(self) -> List[_Worker]:
        """Snapshot of the current worker table."""
        with self._lock:
            access(self, "_workers", write=False)
            return list(self._workers)

    def _forget(self, worker: _Worker) -> None:
        with self._lock:
            access(self, "_workers")
            if worker in self._workers:
                self._workers.remove(worker)
        worker.close()

    # -- crash detection ------------------------------------------------

    def _monitor_loop(self) -> None:
        """Watch for unexpected worker exits and respawn within budget."""
        while not self._stop_event.wait(0.05):
            for worker in self._live_workers():
                if worker.proc.poll() is None or worker.retiring:
                    continue
                self._forget(worker)
                if self._stop_event.is_set():
                    continue
                if self._respawn_allowed():
                    with self._lock:
                        access(self, "restarts_total")
                        self.restarts_total += 1
                    replacement = self._spawn_worker()
                    replacement.ready.wait(self.ready_timeout)
                else:
                    with self._lock:
                        access(self, "respawn_exhausted")
                        self.respawn_exhausted = True

    def _respawn_allowed(self) -> bool:
        """Charge the bounded respawn budget; False when exhausted."""
        now = time.monotonic()
        with self._lock:
            access(self, "_respawn_times")
            self._respawn_times = [
                t for t in self._respawn_times
                if now - t < self.respawn_window]
            if len(self._respawn_times) >= self.respawn_limit:
                return False
            self._respawn_times.append(now)
            return True

    # -- rolling restart ------------------------------------------------

    def rolling_restart(self, drain_timeout: Optional[float] = None
                        ) -> None:
        """Replace every worker with a fresh one, zero downtime.

        One worker at a time: spawn the successor, wait until it is
        accepting on the shared socket, then ask the predecessor to
        drain (in-flight requests finish) and wait for it to exit.  At
        least ``procs`` workers are accepting at every instant, and
        the listen socket never closes, so established connections
        survive and new ones are never refused.  Wired to ``SIGHUP``
        by :meth:`install_signals`.
        """
        timeout = (drain_timeout if drain_timeout is not None
                   else self.drain_timeout)
        with self._restart_lock:
            for worker in self._live_workers():
                if worker.retiring:
                    continue
                replacement = self._spawn_worker()
                if not replacement.ready.wait(self.ready_timeout):
                    # Do not degrade capacity on a broken successor:
                    # keep the old worker, kill the stillborn one.
                    replacement.retiring = True
                    replacement.proc.kill()
                    replacement.proc.wait()
                    self._forget(replacement)
                    raise RuntimeError(
                        "rolling restart aborted: replacement worker "
                        f"pid={replacement.pid} never became ready")
                worker.retiring = True
                worker.send({"type": "drain", "timeout": timeout})
                self._reap(worker, timeout + self.ready_timeout)
                self._forget(worker)
            with self._lock:
                access(self, "generation")
                self.generation += 1

    def _reap(self, worker: _Worker, timeout: float) -> None:
        """Wait for a retiring worker; escalate to SIGKILL at the end."""
        try:
            worker.proc.wait(timeout)
            return
        except subprocess.TimeoutExpired:
            pass
        worker.proc.terminate()
        try:
            worker.proc.wait(2.0)
        except subprocess.TimeoutExpired:  # pragma: no cover - stuck child
            worker.proc.kill()
            worker.proc.wait()

    # -- graceful shutdown ----------------------------------------------

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Drain every worker (in-flight work finishes), then stop.

        Returns True when every worker exited voluntarily before its
        deadline.
        """
        timeout = timeout if timeout is not None else self.drain_timeout
        workers = self._live_workers()
        for worker in workers:
            worker.retiring = True
            worker.send({"type": "drain", "timeout": timeout})
        drained = True
        deadline = time.monotonic() + timeout + self.ready_timeout
        for worker in workers:
            try:
                worker.proc.wait(max(deadline - time.monotonic(), 0.1))
            except subprocess.TimeoutExpired:
                drained = False
        self._shutdown()
        return drained

    def stop(self) -> None:
        """Stop every worker and release sockets (idempotent)."""
        self._shutdown()

    def _shutdown(self) -> None:
        # Named apart from stop() so the blocking lint's name-resolved
        # call graph cannot route an on-loop ``.start()`` edge through
        # the supervisor into EventProcessor.stop's drain sleep.
        with self._lock:
            if not self._started:
                return
            access(self, "_started")
            self._started = False
        self._stop_event.set()
        if self._monitor_thread is not None:
            self._monitor_thread.join(timeout=5.0)
            self._monitor_thread = None
        for worker in self._live_workers():
            worker.retiring = True
            worker.send({"type": "stop"})
        for worker in self._live_workers():
            self._reap(worker, 5.0)
            self._forget(worker)
        self._close_stats_socket()
        if self._listen_sock is not None:
            try:
                self._listen_sock.close()
            except OSError:  # pragma: no cover
                pass
            self._listen_sock = None

    def __enter__(self) -> "ProcessSupervisor":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- signals ---------------------------------------------------------

    def install_signals(self) -> None:
        """Operator signal plane (only call from a CLI main thread):
        ``SIGHUP`` → rolling restart, ``SIGTERM`` → drain and stop,
        ``SIGUSR2`` → forwarded to every worker (flight-ring dumps).
        """
        def _hup(*_args):
            threading.Thread(target=self.rolling_restart,
                             name="deploy-sighup", daemon=True).start()

        def _term(*_args):
            threading.Thread(target=self.drain,
                             name="deploy-sigterm", daemon=True).start()

        def _usr2(*_args):
            for worker in self._live_workers():
                try:
                    worker.proc.send_signal(signal.SIGUSR2)
                except OSError:  # pragma: no cover - racing an exit
                    pass

        if hasattr(signal, "SIGHUP"):
            signal.signal(signal.SIGHUP, _hup)
        signal.signal(signal.SIGTERM, _term)
        if hasattr(signal, "SIGUSR2"):
            signal.signal(signal.SIGUSR2, _usr2)

    # -- cross-process observability -------------------------------------

    def status(self) -> dict:
        """Supervisor-level summary (no worker round-trips)."""
        workers = self._live_workers()
        with self._lock:
            access(self, "restarts_total", write=False)
            access(self, "generation", write=False)
            access(self, "respawn_exhausted", write=False)
            return {
                "procs": self.procs,
                "workers": [worker.pid for worker in workers],
                "generation": self.generation,
                "restarts_total": self.restarts_total,
                "respawn_exhausted": self.respawn_exhausted,
            }

    @property
    def running(self) -> bool:
        """True between :meth:`start` and :meth:`drain`/:meth:`stop` —
        a CLI foreground loop polls this to exit once a ``SIGTERM``
        drain (which runs on its own thread) has completed."""
        with self._lock:
            access(self, "_started", write=False)
            return self._started

    def collect_status_fields(self, timeout: float = 2.0
                              ) -> List[Tuple[int, list]]:
        """Every live worker's O11 status fields, via control channels.

        Requests go out to all workers first, then replies are gathered
        under one shared deadline; workers that miss it (or died) are
        skipped rather than stalling the page.
        """
        workers = [w for w in self._live_workers()
                   if w.ready.is_set() and not w.retiring]
        sections: List[Tuple[int, list]] = []
        threads = []
        results: Dict[int, Optional[dict]] = {}

        def _ask(index: int, worker: _Worker) -> None:
            results[index] = worker.request({"type": "status"}, timeout)

        for index, worker in enumerate(workers):
            thread = threading.Thread(target=_ask, args=(index, worker),
                                      daemon=True)
            thread.start()
            threads.append(thread)
        deadline = time.monotonic() + timeout + 0.5
        for thread in threads:
            thread.join(max(deadline - time.monotonic(), 0.05))
        for index, worker in enumerate(workers):
            reply = results.get(index)
            if reply is None:
                continue
            sections.append((reply.get("pid", worker.pid),
                             reply.get("fields") or []))
        return sections

    def aggregated_status_fields(self) -> list:
        """One merged status-field list over every worker's registry."""
        uptime = time.monotonic() - self._started_at
        return merge_status_fields(self.collect_status_fields(),
                                   uptime=uptime)

    def _open_stats_socket(self) -> None:
        """Bind the Unix stats socket workers aggregate through."""
        self._stats_dir = tempfile.mkdtemp(prefix="repro-deploy-")
        self._stats_path = os.path.join(self._stats_dir, "stats.sock")
        stats = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        stats.bind(self._stats_path)
        stats.listen(8)
        stats.settimeout(0.2)
        self._stats_sock = stats
        self._stats_thread = threading.Thread(
            target=self._stats_loop, name="deploy-stats", daemon=True)
        self._stats_thread.start()

    def _close_stats_socket(self) -> None:
        if self._stats_sock is not None:
            try:
                self._stats_sock.close()
            except OSError:  # pragma: no cover
                pass
            self._stats_sock = None
        if self._stats_thread is not None:
            self._stats_thread.join(timeout=2.0)
            self._stats_thread = None
        if self._stats_path is not None:
            try:
                os.unlink(self._stats_path)
            except OSError:
                pass
            self._stats_path = None
        if self._stats_dir is not None:
            try:
                os.rmdir(self._stats_dir)
            except OSError:
                pass
            self._stats_dir = None

    def _stats_loop(self) -> None:
        """Accept stats queries; each served on its own thread."""
        while not self._stop_event.is_set():
            sock = self._stats_sock
            if sock is None:
                return
            try:
                conn, _addr = sock.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            threading.Thread(target=self._serve_stats, args=(conn,),
                             daemon=True).start()

    def _serve_stats(self, conn: socket.socket) -> None:
        """Answer one stats query with the per-worker field sections."""
        try:
            conn.settimeout(5.0)
            buf = bytearray()
            _read_line(conn, buf)  # the request line; content ignored
            sections = self.collect_status_fields()
            payload = {
                "uptime": time.monotonic() - self._started_at,
                "workers": [[pid, fields] for pid, fields in sections],
            }
            conn.sendall(json.dumps(payload).encode("utf-8") + b"\n")
        except OSError:  # pragma: no cover - client went away
            pass
        finally:
            try:
                conn.close()
            except OSError:  # pragma: no cover
                pass


# -- worker-side client for the stats socket ----------------------------------


def cluster_status_fields(timeout: float = 5.0) -> Optional[list]:
    """Aggregated status fields for the whole deployment, or None.

    Called by a worker's generated ``Observability`` when it serves
    ``/server-status``: connects to the supervisor's stats socket
    (``$REPRO_STATS_SOCKET``), which polls every worker and returns the
    per-worker sections this function merges.  Returns None when not
    running under a supervisor or the supervisor cannot answer — the
    caller falls back to its own process-local registry.  No deadlock:
    the querying worker's control loop runs on its main thread, free to
    answer the supervisor's poll while a processor thread waits here.
    """
    path = os.environ.get(STATS_SOCKET_ENV)
    if not path:
        return None
    try:
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
            sock.settimeout(timeout)
            sock.connect(path)
            sock.sendall(b"status\n")
            buf = bytearray()
            line = _read_line(sock, buf)
    except OSError:
        return None
    if line is None:
        return None
    try:
        payload = json.loads(line)
    except ValueError:
        return None
    sections = [(entry[0], [tuple(field) for field in entry[1]])
                for entry in payload.get("workers", [])
                if isinstance(entry, list) and len(entry) == 2]
    if not sections:
        return None
    return merge_status_fields(sections, uptime=payload.get("uptime"))


# -- the worker factory -----------------------------------------------------


def generated_worker(args: dict, listen_sock):
    """Worker factory rebuilding a generated framework's ``Worker``.

    ``args`` is the :func:`generated_worker_args` spec: the generated
    package's location, a dotted path re-creating the hooks, and the
    JSON-safe configuration overrides.  The adopted ``listen_sock`` is
    already registered process-globally, so the generated server
    component's ``rt.worker_listen_handle`` call finds it.
    """
    from repro.co2p3s.template import load_generated_package
    fw = load_generated_package(args["dest"], args["package"])
    module = importlib.import_module(args["package"] + ".deployment")
    hooks = _resolve(args["hooks_factory"])()
    configuration = fw.ServerConfiguration(**(args.get("config") or {}))
    return module.Worker(hooks, configuration)


def generated_worker_args(module_name: str, module_file: str,
                          configuration, hooks) -> dict:
    """The JSON spec a generated ``Deployment`` ships to its workers.

    Captures the generated package (name + parent directory, so the
    fresh interpreter can re-import it), a ``"module:attr"`` path that
    re-creates the hooks with no arguments, and every JSON-serializable
    configuration override.  Hooks must therefore be an importable
    zero-argument callable — anything defined in ``__main__`` or a
    local scope cannot cross the process boundary, and is rejected
    here (at build time, in the supervisor) rather than in a worker
    that dies mid-spawn.
    """
    package = module_name.rsplit(".", 1)[0]
    dest = os.path.dirname(os.path.dirname(os.path.abspath(module_file)))
    hooks_cls = type(hooks)
    module = hooks_cls.__module__
    if module == "__main__":
        # ``python -m pkg.mod`` executes the module under the name
        # __main__, so classes it defines carry that as __module__ —
        # unresolvable in a worker, whose __main__ is the spawn stub.
        # runpy records the real import path in the spec; recover it.
        # (A plain-script __main__ has no dotted spec and stays
        # rejected below.)
        spec = getattr(sys.modules.get("__main__"), "__spec__", None)
        module = getattr(spec, "name", None) or "__main__"
    factory = f"{module}:{hooks_cls.__qualname__}"
    try:
        resolved = _resolve(factory)
    except Exception:
        resolved = None
    importable = resolved is hooks_cls
    if not importable and module != hooks_cls.__module__:
        # The remapped module is a fresh execution of the same source,
        # so the class object differs; same qualified name is the
        # strongest identity available across that boundary.
        importable = (isinstance(resolved, type)
                      and resolved.__qualname__ == hooks_cls.__qualname__)
    if not importable:
        raise ValueError(
            f"multi-process deployment needs importable hooks: "
            f"{factory!r} does not resolve back to {hooks_cls!r} "
            f"(hooks defined in __main__ or a local scope cannot "
            f"cross the process boundary)")
    config = {}
    for key, value in vars(configuration).items():
        try:
            json.dumps(value)
        except (TypeError, ValueError):
            continue
        config[key] = value
    return {"package": package, "dest": dest,
            "hooks_factory": factory, "config": config}


# -- the worker process entry -------------------------------------------------


def worker_main(control_fd: int) -> int:
    """Run one worker: adopt the socket, build the server, serve.

    The first control message carries the JSON spec and, as ancillary
    data, the shared listening socket's fd.  After ``start()`` the
    main thread settles into the control loop — ``status`` replies,
    ``drain``/``stop`` shutdown, plus a test-only ``crash`` fault
    injection — and exits when the supervisor's end closes.
    """
    global _ADOPTED_LISTEN
    control = socket.socket(fileno=control_fd)
    buf = bytearray()
    fds: List[int] = []
    while b"\n" not in buf:
        data, new_fds, _flags, _addr = socket.recv_fds(control, 65536, 4)
        if not data and not new_fds:
            return 1
        fds.extend(new_fds)
        buf += data
    line, _, rest = bytes(buf).partition(b"\n")
    spec = json.loads(line)
    if fds:
        _ADOPTED_LISTEN = socket.socket(fileno=fds[0])
        for extra_fd in fds[1:]:  # pragma: no cover - defensive
            os.close(extra_fd)
    # The supervisor forwards SIGUSR2 to every worker: dump this
    # process's flight rings instead of dying of the default action.
    install_signal_dump()
    factory = _resolve(spec["factory"])
    server = factory(spec.get("args") or {}, _ADOPTED_LISTEN)
    server.start()
    _send_json(control, {"type": "ready", "pid": os.getpid(),
                         "port": getattr(server, "port", None)})
    buf = bytearray(rest)
    while True:
        message_line = _read_line(control, buf)
        if message_line is None:
            break  # supervisor died: shut down with it
        try:
            message = json.loads(message_line)
        except ValueError:
            continue
        kind = message.get("type")
        if kind == "status":
            getter = getattr(server, "status_fields", None)
            fields = [[key, value] for key, value in getter()] \
                if getter is not None else []
            _send_json(control, {"type": "reply", "id": message.get("id"),
                                 "pid": os.getpid(), "fields": fields})
        elif kind == "drain":
            drainer = getattr(server, "drain", None)
            if drainer is not None:
                drainer(message.get("timeout"))
            else:
                server.stop()
            return 0
        elif kind == "stop":
            server.stop()
            return 0
        elif kind == "crash":
            # Test-only fault injection: die the way a segfault would,
            # skipping every finally block and atexit hook.
            os._exit(int(message.get("code", 2)))
    server.stop()
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """``python -m repro.runtime.deployment --worker --control-fd N``.

    The only supported invocation is the worker entry the supervisor
    spawns; everything operator-facing goes through the generated
    servers' CLIs (e.g. ``python -m repro.servers.cops_http --procs``).
    """
    import argparse
    parser = argparse.ArgumentParser(prog="repro.runtime.deployment")
    parser.add_argument("--worker", action="store_true",
                        help="run as a supervised worker process")
    parser.add_argument("--control-fd", type=int, default=None,
                        help="inherited control-socket file descriptor")
    options = parser.parse_args(argv)
    if not options.worker or options.control_fd is None:
        parser.error("only the supervisor-spawned worker mode is "
                     "supported: --worker --control-fd N")
    return worker_main(options.control_fd)


if __name__ == "__main__":  # pragma: no cover - subprocess entry
    # Re-enter through the canonical module so the adopted-socket
    # global lives where ``repro.runtime`` re-exports read it (under
    # ``-m`` this file executes as ``__main__``, a *second* module
    # instance).
    from repro.runtime.deployment import main as _canonical_main
    sys.exit(_canonical_main())
