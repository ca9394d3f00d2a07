"""O16 deployment plane: the process supervisor over real workers.

Every test here forks real interpreter processes — the supervisor's
whole point — so the suite keeps worker counts at 2 and workloads
small.  Synchronisation is harness-timed (``wait_until`` on supervisor
state), never slept.
"""

import importlib
import json
import os
import random
import signal
import socket
import sys
import tempfile
import threading
import time

import pytest

from harness import generated_framework, wait_until
from repro.runtime.deployment import (
    ProcessSupervisor,
    _Channel,
    _read_line,
    generated_worker_args,
)
from repro.servers.time_server import TIME_SERVER_OPTIONS, TimeServerHooks

#: the time server as a worker build: O16>1 emits the Worker each
#: process runs, O11 its status fields and O13 its graceful drain
OPTIONS = dict(TIME_SERVER_OPTIONS, O11=True, O13=True, O16=2)

pytestmark = pytest.mark.skipif(
    not hasattr(socket, "send_fds"),
    reason="fd passing (socket.send_fds) unavailable")


def make_supervisor(procs=2, **kwargs):
    """A supervisor whose workers rebuild the generated time server
    from the spec its own ``Deployment`` component would ship."""
    framework = generated_framework(OPTIONS)
    deployment = importlib.import_module(framework.__name__ + ".deployment")
    kwargs.setdefault("factory", "repro.runtime.deployment:generated_worker")
    kwargs.setdefault("args", generated_worker_args(
        deployment.__name__, deployment.__file__,
        framework.ServerConfiguration(), TimeServerHooks()))
    return ProcessSupervisor(procs=procs, **kwargs)


def ask_time(port, timeout=10.0):
    """One request line in, one timestamp line out."""
    s = socket.create_connection(("127.0.0.1", port), timeout=timeout)
    s.settimeout(timeout)
    try:
        s.sendall(b"time please\n")
        buf = b""
        while not buf.endswith(b"\n"):
            chunk = s.recv(4096)
            if not chunk:
                raise ConnectionError("peer closed mid-reply")
            buf += chunk
        return buf
    finally:
        s.close()


def test_control_channel_matches_every_reply_to_its_request():
    """Many threads share one channel's pending table: each request
    gets its own reply, and a hang-up wakes a waiter at once."""
    ours, theirs = socket.socketpair()
    channel, peer = _Channel(ours), _Channel(theirs)

    def echo():  # the far end: answer every request but "ignore"
        buf = bytearray()
        while (line := _read_line(theirs, buf)) is not None:
            message = json.loads(line)
            if message["type"] != "ignore":
                peer.send({"type": "reply", "id": message["id"],
                           "n": message["n"]})

    def read():  # this end's one reader
        buf = bytearray()
        while (line := _read_line(ours, buf)) is not None:
            channel.deliver(json.loads(line))
        channel.hang_up()

    mismatched = []

    def requester(base):
        for n in range(base, base + 50):
            reply = channel.request({"type": "echo", "n": n}, timeout=10)
            if reply is None or reply["n"] != n:
                mismatched.append((n, reply))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    helpers = [threading.Thread(target=echo, daemon=True),
               threading.Thread(target=read, daemon=True)]
    try:
        for thread in helpers:
            thread.start()
        requesters = [threading.Thread(target=requester, args=(i * 1000,))
                      for i in range(8)]
        for thread in requesters:
            thread.start()
        for thread in requesters:
            thread.join(timeout=30)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert mismatched == []

    started = time.monotonic()
    waiter = threading.Thread(target=lambda: mismatched.append(
        channel.request({"type": "ignore", "n": 0}, timeout=30)))
    waiter.start()
    wait_until(lambda: channel._pending,
               message="the request never reached the pending table")
    theirs.shutdown(socket.SHUT_RDWR)  # EOF at this end's reader
    waiter.join(timeout=10)
    assert not waiter.is_alive()
    assert mismatched == [None]
    assert time.monotonic() - started < 10
    assert channel.request({"type": "echo", "n": 1}, timeout=30) is None
    for thread in helpers:
        thread.join(timeout=5)
    ours.close()
    theirs.close()


def test_supervisor_spawns_and_serves():
    with make_supervisor(procs=2) as supervisor:
        status = supervisor.status()
        assert len(status["workers"]) == 2
        assert status["generation"] == 0
        for _ in range(4):  # SO_REUSEPORT spreads these across workers
            reply = ask_time(supervisor.port)
            assert reply.endswith(b"\n") and reply[4:5] == b"-"
    assert supervisor.status()["workers"] == []


def test_crashed_worker_respawns_within_budget():
    # A seeded storm: four induced crashes, picked pseudo-randomly,
    # each the way a segfault dies (os._exit, no cleanup).  The monitor
    # must respawn every one within the budget and keep serving.
    rng = random.Random(7)
    with make_supervisor(procs=2, respawn_limit=10,
                         respawn_window=60.0) as supervisor:
        for round_number in range(1, 5):
            victim = rng.choice(supervisor._live_workers())
            victim.send({"type": "crash", "code": 3})
            wait_until(
                lambda: supervisor.status()["restarts_total"]
                >= round_number,
                message=f"crash {round_number} not respawned")
            wait_until(
                lambda: len(supervisor.status()["workers"]) == 2
                and victim.pid not in supervisor.status()["workers"],
                message="worker table not back to full strength")
            assert ask_time(supervisor.port).endswith(b"\n")
        status = supervisor.status()
        assert status["restarts_total"] == 4
        assert not status["respawn_exhausted"]


def test_respawn_storm_beyond_budget_latches_exhausted():
    with make_supervisor(procs=1, respawn_limit=1,
                         respawn_window=60.0) as supervisor:
        first, = supervisor._live_workers()
        first.send({"type": "crash", "code": 3})
        wait_until(lambda: supervisor.status()["restarts_total"] == 1,
                   message="first crash should respawn")
        wait_until(lambda: len(supervisor.status()["workers"]) == 1,
                   message="replacement never became live")
        second, = supervisor._live_workers()
        second.send({"type": "crash", "code": 3})
        wait_until(lambda: supervisor.status()["respawn_exhausted"],
                   message="budget breach should latch the storm guard")
        assert supervisor.status()["restarts_total"] == 1


def test_rolling_restart_replaces_every_worker():
    with make_supervisor(procs=2) as supervisor:
        before = set(supervisor.status()["workers"])
        supervisor.rolling_restart()
        after = set(supervisor.status()["workers"])
        assert len(after) == 2
        assert before.isdisjoint(after)
        assert supervisor.status()["generation"] == 1
        assert ask_time(supervisor.port).endswith(b"\n")


def test_rolling_restart_drops_no_inflight_connections():
    """Zero downtime under load: closed-loop keep-alive clients hammer
    through a rolling restart.  A worker may close a connection at a
    request boundary while draining (the client reconnects — ordinary
    HTTP keep-alive semantics); what must never happen is a truncated
    reply: response bytes started and then cut."""
    with make_supervisor(procs=2) as supervisor:
        port = supervisor.port
        stop = threading.Event()
        truncated = []
        completed = [0] * 4

        def client(index):
            sock = None
            while not stop.is_set():
                try:
                    if sock is None:
                        sock = socket.create_connection(
                            ("127.0.0.1", port), timeout=10)
                        sock.settimeout(10)
                    sock.sendall(b"tick\n")
                except OSError:
                    # Send failed: the previous reply completed, so
                    # this is a clean boundary close.  Reconnect.
                    sock = None
                    continue
                buf = b""
                try:
                    while not buf.endswith(b"\n"):
                        chunk = sock.recv(4096)
                        if not chunk:
                            raise ConnectionError("eof")
                        buf += chunk
                    completed[index] += 1
                except OSError:
                    sock = None
                    if buf:  # reply started, then died: a real drop
                        truncated.append(buf)
                    # buf empty: boundary race — the request was never
                    # admitted; an idempotent retry is the protocol.

        threads = [threading.Thread(target=client, args=(i,))
                   for i in range(4)]
        for t in threads:
            t.start()
        try:
            wait_until(lambda: sum(completed) >= 20,
                       message="load never ramped")
            before = set(supervisor.status()["workers"])
            supervisor.rolling_restart()
            after = set(supervisor.status()["workers"])
            floor = sum(completed) + 10
            wait_until(lambda: sum(completed) >= floor,
                       message="no traffic after the restart")
        finally:
            stop.set()
            for t in threads:
                t.join(timeout=10)
        assert truncated == [], truncated[:3]
        assert before.isdisjoint(after)
        assert min(completed) > 0, completed


def test_aggregated_status_fields_cover_every_worker_exactly_once():
    with make_supervisor(procs=2) as supervisor:
        for _ in range(6):
            ask_time(supervisor.port)
        wait_until(lambda: len(supervisor.collect_status_fields()) == 2,
                   message="both workers should answer the status poll")
        fields = supervisor.aggregated_status_fields()
        as_dict = dict(fields)
        pids = supervisor.status()["workers"]
        # one labelled section per live worker, no duplicates
        labelled = [name for name, _v in fields
                    if name.startswith("server_requests_total{worker=")]
        assert len(labelled) == len(set(labelled)) == 2
        assert {f'server_requests_total{{worker="{pid}"}}'
                for pid in pids} == set(labelled)
        # the cluster total is exactly the sum of the per-worker parts
        assert float(as_dict["server_requests_total"]) == sum(
            float(as_dict[name]) for name in labelled) == 6.0
        assert int(as_dict["Workers"]) == 2


def test_running_supervisor_creates_nothing_on_the_filesystem(
        tmp_path, monkeypatch):
    """Status aggregation rides the control sockets: a deployment
    leaves no socket file or directory behind, even if killed."""
    supervisor = make_supervisor(procs=2)
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    monkeypatch.setenv("TMPDIR", str(tmp_path))
    with supervisor:
        ask_time(supervisor.port)
        assert len(supervisor.collect_status_fields()) == 2
        assert list(tmp_path.iterdir()) == []
    assert list(tmp_path.iterdir()) == []


def test_sigusr2_dumps_every_worker_flight_ring(tmp_path, monkeypatch):
    """The supervisor forwards SIGUSR2 to every worker: each dumps its
    flight ring and keeps serving instead of dying of the signal."""
    monkeypatch.setenv("REPRO_FLIGHT_DIR", str(tmp_path))
    with make_supervisor(procs=2) as supervisor:
        ask_time(supervisor.port)
        before = set(supervisor.status()["workers"])
        for worker in supervisor._live_workers():
            worker.proc.send_signal(signal.SIGUSR2)
        wait_until(lambda: len([name for name in os.listdir(tmp_path)
                                if "sigusr2" in name]) >= 2,
                   message="workers never dumped their flight rings")
        assert set(supervisor.status()["workers"]) == before
        assert supervisor.status()["restarts_total"] == 0
        assert ask_time(supervisor.port).endswith(b"\n")


def test_generated_worker_args_reject_unimportable_hooks():
    from repro.runtime.deployment import generated_worker_args

    class LocalHooks:  # not importable from a fresh interpreter
        pass

    class FakeConfiguration:
        host = "127.0.0.1"

    with pytest.raises(ValueError, match="importable"):
        generated_worker_args("pkg.deployment", "/tmp/pkg/deployment.py",
                              FakeConfiguration(), LocalHooks())


def test_drain_stops_workers_and_releases_socket():
    supervisor = make_supervisor(procs=2)
    supervisor.start()
    port = supervisor.port
    assert supervisor.drain(timeout=5.0)
    assert supervisor.status()["workers"] == []
    with pytest.raises(OSError):
        socket.create_connection(("127.0.0.1", port), timeout=0.5)
