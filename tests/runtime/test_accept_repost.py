"""An O18=select build leaves the readiness backend to the runtime,
which picks edge-triggered epoll on Linux.  When such a build stops an
accept drain early (here: O9 overload postponement), it must re-post
its listener: the consumed edge never repeats, so without the re-post
the waiting client strands until some *other* connection arrives."""

import socket

import pytest

from harness import ServerFixture, generated_server, wait_until
from repro.runtime import ServerHooks, available_pollers

pytestmark = pytest.mark.skipif(
    "epoll" not in available_pollers(),
    reason="epoll poller unavailable on this platform")


def test_select_build_on_epoll_accepts_its_postponed_backlog(monkeypatch):
    monkeypatch.setenv("REPRO_POLLER", "epoll")
    server = generated_server(
        ServerHooks(),
        {"O3": False, "O4": "Synchronous", "O9": True, "O11": True,
         "O18": "select"},
        max_connections=1)
    assert server.reactor.socket_source.edge_triggered
    with ServerFixture(server) as srv:
        profiler = server.reactor.profiler
        s1 = srv.connect(timeout=3)
        s1.sendall(b"first\n")
        assert srv.read_line(s1) == b"first\n"
        # At the connection cap: the second client waits in the kernel
        # backlog, postponed.
        s2 = srv.connect(timeout=3)
        s2.settimeout(0.3)
        s2.sendall(b"second\n")
        with pytest.raises(socket.timeout):
            s2.recv(4096)
        # Release the cap.  No further connection arrives, so only the
        # re-posted listener can get the waiting client accepted.
        s1.close()
        wait_until(lambda: profiler.snapshot().connections_accepted >= 2,
                   message="postponed connection stranded in the backlog")
        s2.settimeout(3)
        assert srv.read_line(s2) == b"second\n"
        s2.close()
