"""What file bodies cost a COPS-HTTP process, measured from outside it.

A body of at least one page is an open file sent with ``os.sendfile``,
so serving it leaves no copy in the server's memory; the cache holds an
fd for it instead, bounded by a share of the soft ``RLIMIT_NOFILE``.
Each test runs the server in a child process (``python -m
repro.servers.cops_http``) and reads its ``/proc`` status.
"""

import os
import re
import signal
import socket
import subprocess
import sys

import pytest

from repro.cache.file_cache import FD_SHARE, PAGE

SRC = os.path.abspath(os.path.join(os.path.dirname(__file__),
                                   os.pardir, os.pardir, "src"))

pytestmark = pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                                reason="reads the server's /proc status")

#: the child: lower the soft RLIMIT_NOFILE (0 keeps it), then serve
CHILD = """
import resource, sys
soft = int(sys.argv[2])
if soft:
    _, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
    resource.setrlimit(resource.RLIMIT_NOFILE, (soft, hard))
from repro.servers.cops_http import main
sys.argv[1:] = ["--root", sys.argv[1]]
main()
"""


class Child:
    """A COPS-HTTP server process on an ephemeral port."""

    def __init__(self, docroot, nofile: int = 0):
        self.proc = subprocess.Popen(
            [sys.executable, "-c", CHILD, str(docroot), str(nofile)],
            stdout=subprocess.PIPE, env=dict(os.environ, PYTHONPATH=SRC))
        line = self.proc.stdout.readline().decode()
        match = re.search(r":(\d+) ", line)
        assert match, f"no port in {line!r}"
        self.port = int(match.group(1))

    def status(self, field: str) -> int:
        with open(f"/proc/{self.proc.pid}/status") as fh:
            for line in fh:
                if line.startswith(field + ":"):
                    return int(line.split()[1])
        raise AssertionError(f"no {field} in /proc status")

    def open_files(self, under: str) -> int:
        """The server's fds open on files below ``under``."""
        fd_dir = f"/proc/{self.proc.pid}/fd"
        count = 0
        for fd in os.listdir(fd_dir):
            try:
                count += os.readlink(f"{fd_dir}/{fd}").startswith(under)
            except OSError:
                pass
        return count

    def stop(self) -> None:
        self.proc.send_signal(signal.SIGINT)
        try:
            self.proc.wait(timeout=15)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


@pytest.fixture
def child():
    started = []

    def start(docroot, nofile=0):
        started.append(Child(docroot, nofile))
        return started[-1]

    yield start
    for server in started:
        server.stop()


def fetch(sock, path: str, buf: bytearray) -> memoryview:
    """One keep-alive GET on ``sock``; the body, read into ``buf``."""
    sock.sendall(f"GET {path} HTTP/1.1\r\nHost: x\r\n\r\n".encode())
    view = memoryview(buf)
    got = 0
    while (end := buf.find(b"\r\n\r\n", 0, got)) < 0:
        n = sock.recv_into(view[got:])
        assert n, "server closed mid-head"
        got += n
    head = bytes(buf[:end])
    assert head.startswith(b"HTTP/1.1 200 OK"), head
    length = int(re.search(rb"Content-Length: (\d+)", head).group(1))
    start = end + 4
    while got < start + length:
        n = sock.recv_into(view[got:])
        assert n, "server closed mid-body"
        got += n
    return view[start:got]


def test_serving_file_bodies_leaves_no_copy_in_the_server(tmp_path, child):
    """32 MiB of bodies, served twice over, raise the server's peak
    resident memory by less than 8 MiB: the bytes go from the page
    cache to the socket, not through the 20 MiB file cache."""
    docroot = tmp_path / "www"
    docroot.mkdir()
    (docroot / "small.txt").write_bytes(b"warm")
    bodies = {}
    for i in range(32):
        body = bytes([i]) * (1 << 20)
        bodies[f"/body{i}.bin"] = body
        (docroot / f"body{i}.bin").write_bytes(body)
    (docroot / "page.bin").write_bytes(b"p" * PAGE)
    server = child(docroot)
    buf = bytearray((1 << 20) + 4096)
    with socket.create_connection(("127.0.0.1", server.port),
                                  timeout=30) as sock:
        fetch(sock, "/small.txt", buf)
        fetch(sock, "/page.bin", buf)
        before = server.status("VmHWM")
        for _ in range(2):
            for path, body in bodies.items():
                assert fetch(sock, path, buf) == body
        risen_kib = server.status("VmHWM") - before
    assert risen_kib < 8 * 1024, f"peak RSS rose {risen_kib} KiB"


def test_the_cache_keeps_its_fds_under_a_lowered_nofile_limit(
        tmp_path, child):
    """With the soft RLIMIT_NOFILE at 128, 400 distinct file bodies are
    served byte-exact, the cache holds at most its share of the limit
    open, and new connections are still accepted."""
    docroot = tmp_path / "www"
    docroot.mkdir()
    bodies = {}
    for i in range(400):
        body = i.to_bytes(2, "big") * (PAGE // 2) + b"#" * (i % 97)
        bodies[f"/b{i}.bin"] = body
        (docroot / f"b{i}.bin").write_bytes(body)
    server = child(docroot, nofile=128)
    buf = bytearray(2 * PAGE + 4096)
    with socket.create_connection(("127.0.0.1", server.port),
                                  timeout=30) as sock:
        for path, body in bodies.items():
            assert fetch(sock, path, buf) == body
        held = server.open_files(str(docroot))
        assert 0 < held <= 128 // FD_SHARE
    socks = [socket.create_connection(("127.0.0.1", server.port),
                                      timeout=30) for _ in range(20)]
    try:
        for i, sock in enumerate(socks):
            path = f"/b{i * 19}.bin"
            assert fetch(sock, path, buf) == bodies[path]
    finally:
        for sock in socks:
            sock.close()
