"""On the edge-triggered epoll backend an accept loop that stops its
drain early (O9 overload postponement, or O17 with
``shed_on_overload="postpone"``) must re-post its listener: the
consumed edge never repeats, so without the re-post the waiting client
strands until some *other* connection arrives."""

import socket

import pytest

from harness import ServerFixture, generated_server, wait_until
from repro.runtime import ServerHooks, available_pollers

pytestmark = pytest.mark.skipif(
    "epoll" not in available_pollers(),
    reason="epoll poller unavailable on this platform")

ECHO = {"O3": False, "O4": "Synchronous", "O9": True, "O11": True}


@pytest.mark.parametrize("options, config", [
    ({}, {}),
    ({"O17": True}, {"shed_on_overload": "postpone"}),
], ids=["O9", "O17"])
def test_epoll_build_accepts_its_postponed_backlog(monkeypatch, options,
                                                   config):
    monkeypatch.setenv("REPRO_POLLER", "epoll")
    server = generated_server(
        ServerHooks(), dict(ECHO, **options), max_connections=1, **config)
    assert server.reactor.socket_source.edge_triggered
    with ServerFixture(server) as srv:
        registry = server.reactor.observability.registry
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
        wait_until(lambda: registry.value(
                       "server_connections_accepted_total") >= 2,
                   message="postponed connection stranded in the backlog")
        s2.settimeout(3)
        assert srv.read_line(s2) == b"second\n"
        s2.close()
