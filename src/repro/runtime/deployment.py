"""Multi-process deployment (option O16): prefork workers on one socket.

Threads (O1/O2) overlap I/O but share one GIL; the deployment plane
scales CPU-bound work past it the way Apache's prefork MPM and nginx
do — N worker *processes*, each running its own reactor, all
accepting from one shared listening socket:

* the :class:`ProcessSupervisor` binds a single ``SO_REUSEPORT`` listen
  socket in the parent and **never closes it** while the deployment is
  up — the accept queue survives any individual worker's death or
  restart, which is what makes rolling restarts drop nothing;
* each worker is a **fresh interpreter** (``python -c`` calling
  :func:`worker_main`), not a fork: no inherited threads, no
  duplicated locks, no shared flight rings.  The listen
  socket's fd travels to the worker over a Unix-domain control socket
  via ``socket.send_fds`` along with a JSON spec naming a *factory*
  (``"module:callable"``) that builds the worker's server;
* the control socket then carries newline-delimited JSON both ways,
  one protocol at both ends (:class:`_Channel`): ``status`` /
  ``drain`` / ``stop`` from the supervisor, ``ready`` and ``cluster``
  from the worker, and an id-matched ``reply`` to every request.  The
  worker's **main thread is its control loop** — request handling
  runs on the reactor's own threads, so a status query is never stuck
  behind a slow request;
* crashes are detected by a monitor thread and respawned within a
  bounded budget (``respawn_limit`` exits per ``respawn_window``
  seconds), so a crash *storm* degrades to fewer workers instead of a
  fork bomb;
* ``SIGHUP`` (or :meth:`ProcessSupervisor.rolling_restart`) replaces
  workers one at a time: spawn the successor, wait until it is
  accepting, then drain the predecessor — at every instant at least
  ``procs`` workers are accepting, so no connection is refused and no
  in-flight request is cut;
* cross-process observability rides the same channel: a worker
  answering ``/server-status`` calls :func:`cluster_status_fields`,
  which sends ``cluster`` to the supervisor, which polls every
  worker's O11 registry with ``status`` and answers with
  :meth:`ProcessSupervisor.aggregated_status_fields`, the one place
  that merges (:func:`repro.obs.exposition.merge_status_fields`).
  Nothing touches the filesystem.  Flight dumps
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
import threading
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.lint.locks import access, make_lock, shared
from repro.obs.exposition import merge_status_fields
from repro.obs.flight import install_signal_dump

__all__ = [
    "ProcessSupervisor",
    "adopted_listen_socket",
    "cluster_status_fields",
    "generated_worker",
    "generated_worker_args",
    "worker_listen_handle",
]

#: the listening socket this process adopted from its supervisor;
#: module-level *runtime state*, set once by ``worker_main`` before any
#: server is constructed and read by :func:`worker_listen_handle`
_ADOPTED_LISTEN: Optional[socket.socket] = None

#: this worker's end of the control socket, set by ``worker_main``;
#: None outside a supervisor, where :func:`cluster_status_fields` has
#: no one to ask
_CONTROL: Optional["_Channel"] = None


# -- worker-process runtime state ---------------------------------------------


def adopted_listen_socket() -> Optional[socket.socket]:
    """The shared listening socket this worker received, or None."""
    return _ADOPTED_LISTEN


def worker_listen_handle(configuration):
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
                            backlog, sock=adopted)
    return ListenHandle(configuration.host, configuration.port,
                        backlog, reuse_port=True)


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


class _Pending:
    """The slot one request's reply lands in."""

    __slots__ = ("id", "done", "reply")

    def __init__(self, request_id: int):
        self.id = request_id
        self.done = threading.Event()
        self.reply: Optional[dict] = None


class _Channel:
    """One end of a control socket: locked sends, id-matched requests.

    The supervisor's :class:`_Worker` and the worker process speak the
    same protocol through it.  :meth:`ask` tags a message with a fresh
    ``id``; the one thread reading the socket hands each ``reply`` to
    :meth:`deliver`, and calls :meth:`hang_up` once no reply can come,
    which wakes every waiter and refuses later requests.
    """

    def __init__(self, sock: socket.socket):
        self.sock = sock
        self._send_lock = threading.Lock()
        self._lock = make_lock("control-channel")
        self._next_id = 1
        #: request id -> slot; None once the channel hung up
        self._pending: Optional[Dict[int, _Pending]] = {}
        shared(self, "_next_id", "_pending",
               label="control-channel pending replies (requesters vs "
                     "reader)")

    def send(self, message: dict) -> bool:
        """Fire-and-forget message; False if the socket is dead."""
        data = json.dumps(message).encode("utf-8") + b"\n"
        try:
            with self._send_lock:
                self.sock.sendall(data)
            return True
        except OSError:
            return False

    def ask(self, message: dict) -> Optional[_Pending]:
        """Send ``message`` as a request; the slot its reply will fill,
        or None when the channel is down."""
        with self._lock:
            access(self, "_pending")
            if self._pending is None:
                return None
            access(self, "_next_id")
            slot = _Pending(self._next_id)
            self._next_id += 1
            self._pending[slot.id] = slot
        if not self.send(dict(message, id=slot.id)):
            self._drop(slot)
            return None
        return slot

    def wait(self, slot: Optional[_Pending], timeout: float
             ) -> Optional[dict]:
        """The reply ``slot`` got within ``timeout``, or None."""
        if slot is None:
            return None
        slot.done.wait(timeout)
        self._drop(slot)
        return slot.reply

    def request(self, message: dict, timeout: float) -> Optional[dict]:
        """Send a request and wait for its reply (None on timeout)."""
        return self.wait(self.ask(message), timeout)

    def deliver(self, reply: dict) -> None:
        """Hand one ``reply`` to the request waiting for its id."""
        with self._lock:
            access(self, "_pending")
            slot = (self._pending.pop(reply.get("id"), None)
                    if self._pending is not None else None)
        if slot is not None:
            slot.reply = reply
            slot.done.set()

    def hang_up(self) -> None:
        """No reply can come any more: wake every waiter."""
        with self._lock:
            access(self, "_pending")
            pending, self._pending = self._pending or {}, None
        for slot in pending.values():
            slot.done.set()

    def _drop(self, slot: _Pending) -> None:
        with self._lock:
            access(self, "_pending")
            if self._pending is not None:
                self._pending.pop(slot.id, None)


# -- the supervisor -----------------------------------------------------------


class _Worker:
    """Supervisor-side record of one worker process.

    Owns the parent end of the control socket and the reader thread
    that drains it.  A worker's ``cluster`` request is answered on a
    short-lived thread with ``aggregate()``: the reader must stay free,
    because the asking worker's own ``status`` reply arrives on it.
    """

    def __init__(self, proc: subprocess.Popen, control: socket.socket,
                 aggregate: Callable[[], list]):
        self.proc = proc
        self.channel = _Channel(control)
        self.pid = proc.pid
        #: bound port reported in the worker's ready message
        self.port: Optional[int] = None
        self.ready = threading.Event()
        #: set during rolling restart / shutdown so the monitor does
        #: not respawn a worker we deliberately drained
        self.retiring = False
        self._aggregate = aggregate
        self._reader = threading.Thread(
            target=self._read_loop, name=f"deploy-reader-{self.pid}",
            daemon=True)
        self._reader.start()

    def _read_loop(self) -> None:
        """Drain control messages: readiness, replies, cluster asks."""
        buf = bytearray()
        while True:
            line = _read_line(self.channel.sock, buf)
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
                self.channel.deliver(message)
            elif kind == "cluster":
                threading.Thread(
                    target=self._answer_cluster, args=(message.get("id"),),
                    name=f"deploy-cluster-{self.pid}", daemon=True).start()
        self.channel.hang_up()

    def _answer_cluster(self, request_id) -> None:
        self.channel.send({"type": "reply", "id": request_id,
                           "fields": self._aggregate()})

    def send(self, message: dict) -> bool:
        """Fire-and-forget control message; False if the pipe is dead."""
        return self.channel.send(message)

    def close(self) -> None:
        """Close the control socket (unblocks the reader thread)."""
        try:
            self.channel.sock.close()
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
    spawns and watches workers, answers their ``cluster`` status
    requests, and orchestrates rolling restarts.  Per-server planes —
    Acceptor, fault plane, worker supervision — are constructed *per
    process*, inside each worker's own server.
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
                     "cluster-status threads)")

    # -- lifecycle ------------------------------------------------------

    @property
    def port(self) -> int:
        """The shared listen socket's bound port."""
        if self._listen_sock is None:
            raise RuntimeError("supervisor not started")
        return self._listen_sock.getsockname()[1]

    def start(self) -> None:
        """Bind the shared socket, spawn workers, start the monitor.

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
        # the worker's module state in the wrong module instance.
        command = [sys.executable, "-c",
                   "import sys; from repro.runtime.deployment import "
                   "worker_main; sys.exit(worker_main(int(sys.argv[1])))",
                   str(child.fileno())]
        env = dict(os.environ)
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
        worker = _Worker(proc, parent, self.aggregated_status_fields)
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

        Every request goes out first, then each reply is awaited under
        one shared deadline; a worker that misses it, or dies (its
        reader's hang-up wakes the wait), is skipped rather than
        stalling the page.
        """
        asked = [(worker, worker.channel.ask({"type": "status"}))
                 for worker in self._live_workers()
                 if worker.ready.is_set() and not worker.retiring]
        deadline = time.monotonic() + timeout
        sections: List[Tuple[int, list]] = []
        for worker, slot in asked:
            reply = worker.channel.wait(
                slot, max(deadline - time.monotonic(), 0.0))
            if reply is not None:
                sections.append((reply.get("pid", worker.pid),
                                 reply.get("fields") or []))
        return sections

    def aggregated_status_fields(self) -> list:
        """One merged status-field list over every worker's registry:
        the generated ``Deployment``'s page and every worker's
        ``cluster`` reply."""
        uptime = time.monotonic() - self._started_at
        return merge_status_fields(self.collect_status_fields(),
                                   uptime=uptime)


# -- the worker side ----------------------------------------------------------


def cluster_status_fields(timeout: float = 5.0) -> Optional[list]:
    """Merged status fields for the whole deployment, or None.

    Called by a worker's generated ``Observability`` when it serves
    ``/server-status``: sends ``cluster`` over this worker's control
    channel, and the supervisor answers with
    :meth:`ProcessSupervisor.aggregated_status_fields`.  Returns None
    outside a supervisor, or when no answer comes in time — the caller
    then falls back to its own process-local registry.  No deadlock:
    this worker's control loop runs on its main thread, free to answer
    the supervisor's ``status`` poll while a processor thread waits
    here.
    """
    if _CONTROL is None:
        return None
    reply = _CONTROL.request({"type": "cluster"}, timeout)
    if reply is None:
        return None
    return [tuple(field) for field in reply.get("fields") or []] or None


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

    The supervisor spawns ``python -c`` calling this with the inherited
    control socket's fd.  The first control message carries the JSON
    spec and, as ancillary data, the shared listening socket's fd.
    After ``start()`` the main thread settles into the control loop —
    ``status`` replies, replies to this worker's own ``cluster``
    requests, ``drain``/``stop`` shutdown, plus a test-only ``crash``
    fault injection — and exits when the supervisor's end closes.
    """
    global _ADOPTED_LISTEN, _CONTROL
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
    _CONTROL = _Channel(control)
    # The supervisor forwards SIGUSR2 to every worker: dump this
    # process's flight rings instead of dying of the default action.
    install_signal_dump()
    factory = _resolve(spec["factory"])
    server = factory(spec.get("args") or {}, _ADOPTED_LISTEN)
    server.start()
    _CONTROL.send({"type": "ready", "pid": os.getpid(),
                   "port": getattr(server, "port", None)})
    buf = bytearray(rest)
    while True:
        message_line = _read_line(control, buf)
        if message_line is None:
            message = {"type": "stop"}  # supervisor died: stop with it
            break
        try:
            message = json.loads(message_line)
        except ValueError:
            continue
        kind = message.get("type")
        if kind in ("drain", "stop"):
            break
        if kind == "reply":
            _CONTROL.deliver(message)
        elif kind == "status":
            getter = getattr(server, "status_fields", None)
            fields = [[key, value] for key, value in getter()] \
                if getter is not None else []
            _CONTROL.send({"type": "reply", "id": message.get("id"),
                           "pid": os.getpid(), "fields": fields})
        elif kind == "crash":
            # Test-only fault injection: die the way a segfault would,
            # skipping every finally block and atexit hook.
            os._exit(int(message.get("code", 2)))
    # Nothing reads the channel from here on: a scrape still waiting
    # for its cluster reply serves this worker's own fields instead.
    _CONTROL.hang_up()
    drainer = getattr(server, "drain", None)
    if message.get("type") == "drain" and drainer is not None:
        drainer(message.get("timeout"))
    else:
        server.stop()
    return 0
