"""Graceful-drain property: a request the server has already accepted
into its pipeline — and that completes before the drain deadline — is
never lost.  The client must receive the full reply even though drain
was initiated while the request was still being handled."""

import socket
import time

import pytest
from hypothesis import given, settings, strategies as st

from harness import generated_server
from repro.runtime import ServerHooks

pytestmark = [pytest.mark.faults, pytest.mark.timeout(120)]


class SlowUpperHooks(ServerHooks):
    """Echo-upper with a deliberate handling delay, so drain always
    overlaps in-flight work."""

    def __init__(self, delay: float):
        self.delay = delay
        self.started = 0

    def handle(self, request, conn):
        self.started += 1
        time.sleep(self.delay)
        return request.upper()


payloads = st.lists(
    st.binary(min_size=1, max_size=64).map(
        lambda b: b.replace(b"\n", b"x") or b"y"),
    min_size=1, max_size=3)


@settings(max_examples=10, deadline=None)
@given(batch=payloads)
def test_drain_never_loses_accepted_requests(batch):
    hooks = SlowUpperHooks(delay=0.03)
    # O13 emits the drain path; the build is generated once per session
    server = generated_server(hooks, {"O13": True},
                              drain_timeout=10.0, processor_threads=2)
    server.start()
    try:
        client = socket.create_connection(("127.0.0.1", server.port),
                                          timeout=10)
        client.settimeout(10)
        try:
            wire = b"".join(p + b"\n" for p in batch)
            client.sendall(wire)

            # Wait until the server has pulled at least the first request
            # into its pipeline, then drain mid-flight.
            deadline = time.monotonic() + 5
            while hooks.started == 0 and time.monotonic() < deadline:
                time.sleep(0.001)
            assert hooks.started > 0, "request never entered the pipeline"

            drained = server.drain()
            assert drained, "server did not reach quiescence"

            # Every request the server accepted before the listener
            # closed must have produced its complete reply.
            expected = wire.upper()
            got = b""
            while len(got) < len(expected):
                chunk = client.recv(4096)
                if not chunk:
                    break
                got += chunk
            assert got == expected
        finally:
            client.close()
    finally:
        server.stop()
