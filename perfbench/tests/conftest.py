import os
import socket
import sys
import threading

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from workloads import Request  # noqa: E402

BODY = b"x" * 300


def body_request(path: str = "/f") -> Request:
    import zlib

    return Request(path, 200, len(BODY), zlib.crc32(BODY))


class StubServer:
    """Keep-alive HTTP stub on loopback: one thread per connection,
    answering every request with :data:`BODY`.

    ``reply(n)`` (n = 0-based request count over the server's life)
    returns the wire bytes for the n-th reply; ``stall(n)`` returns
    seconds to sleep before answering it; the connection is dropped
    after reply ``n`` when ``hangup(n)``."""

    def __init__(self, reply=None, stall=None, hangup=None):
        self.reply = reply or (lambda n: ok_reply(BODY))
        self.stall = stall or (lambda n: 0.0)
        self.hangup = hangup or (lambda n: False)
        self.count = 0
        self.lock = threading.Lock()
        self.sock = socket.create_server(("127.0.0.1", 0))
        self.addr = self.sock.getsockname()
        self.running = True
        threading.Thread(target=self._accept, daemon=True).start()

    def _accept(self):
        while self.running:
            try:
                conn, _ = self.sock.accept()
            except OSError:
                return
            threading.Thread(target=self._serve, args=(conn,),
                             daemon=True).start()

    def _serve(self, conn):
        import time

        buf = b""
        with conn:
            while True:
                try:
                    data = conn.recv(65536)
                except OSError:
                    return
                if not data:
                    return
                buf += data
                while b"\r\n\r\n" in buf:
                    _, buf = buf.split(b"\r\n\r\n", 1)
                    with self.lock:
                        n = self.count
                        self.count += 1
                    time.sleep(self.stall(n))
                    conn.sendall(self.reply(n))
                    if self.hangup(n):
                        return

    def close(self):
        self.running = False
        self.sock.close()


def ok_reply(body: bytes, extra: bytes = b"") -> bytes:
    return (b"HTTP/1.1 200 OK\r\nContent-Length: " + str(len(body)).encode()
            + b"\r\n" + extra + b"\r\n" + body)


@pytest.fixture
def stub():
    servers = []

    def make(**kw):
        server = StubServer(**kw)
        servers.append(server)
        return server

    yield make
    for server in servers:
        server.close()
