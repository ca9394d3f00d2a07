"""Option-matrix integration: generate servers at diverse Table-1
option combinations and exercise each over real sockets.

The point of a generative template is that *every* legal combination
yields a correct server; this test samples structurally distinct
corners of the option space end-to-end.
"""

import socket

import pytest

from repro.co2p3s.nserver import NSERVER
from repro.co2p3s.template import load_generated_package
from repro.runtime import ServerHooks

BASE = {
    "O1": "1", "O2": True, "O3": True, "O4": "Synchronous",
    "O5": "Static", "O6": None, "O7": False, "O8": False, "O9": False,
    "O10": "Production", "O11": False, "O12": False,
}

#: structurally distinct corners of the option space
MATRIX = {
    "minimal_no_codec": dict(BASE, O3=False),
    "inline_reactor": dict(BASE, O2=False),
    "two_n_dispatchers": dict(BASE, O1="2N"),
    "dynamic_threads": dict(BASE, O5="Dynamic"),
    "async_completions": dict(BASE, O4="Asynchronous"),
    "scheduling": dict(BASE, O8=True),
    "overload": dict(BASE, O9=True),
    "debug_everything": dict(BASE, O10="Debug", O11=True, O12=True),
    "cache_hyper_g": dict(BASE, O4="Asynchronous", O6="Hyper-G"),
    "fault_tolerance": dict(BASE, O13=True),
    "fault_tolerance_inline": dict(BASE, O2=False, O13=True),
    # Every build writes replies through the handle's segmented,
    # copy-free out-buffer: bare, and composed with the async cache.
    "zerocopy_bare": dict(BASE),
    "zerocopy_cached": dict(BASE, O4="Asynchronous", O6="LRU"),
    "kitchen_sink": dict(BASE, O1="2N", O4="Asynchronous", O5="Dynamic",
                         O6="LFU", O7=True, O8=True, O9=True,
                         O10="Debug", O11=True, O12=True, O13=True),
}


class UpperHooks(ServerHooks):
    def decode(self, raw, conn):
        return raw.strip().decode()

    def handle(self, request, conn):
        return request.upper()

    def encode(self, result, conn):
        return result.encode() + b"\n"


class RawUpperHooks(ServerHooks):
    """For the no-codec variants: bytes in, bytes out."""

    def handle(self, request, conn):
        return request.strip().upper() + b"\n"


def roundtrip(port: int, n: int = 3) -> None:
    s = socket.create_connection(("127.0.0.1", port), timeout=5)
    s.settimeout(5)
    try:
        for i in range(n):
            payload = f"request number {i}\n".encode()
            s.sendall(payload)
            buf = b""
            while not buf.endswith(b"\n"):
                buf += s.recv(4096)
            assert buf == payload.upper()
    finally:
        s.close()


@pytest.mark.parametrize("name", sorted(MATRIX))
def test_option_combination_serves_correctly(name, tmp_path):
    config = MATRIX[name]
    opts = NSERVER.configure(config)
    NSERVER.validate(opts)
    package = f"matrix_{name}_fw"
    NSERVER.generate(opts, str(tmp_path), package=package)
    fw = load_generated_package(str(tmp_path), package)

    hooks = UpperHooks() if config["O3"] else RawUpperHooks()
    kwargs = {}
    if config["O8"]:
        kwargs["scheduling_quotas"] = {0: 4, 1: 2}
    configuration = fw.ServerConfiguration(**kwargs)
    server = fw.Server(hooks, configuration=configuration)
    server.start()
    try:
        roundtrip(server.port)
        # Two concurrent connections for the threaded variants.
        import threading

        errors = []

        def client():
            try:
                roundtrip(server.port, n=2)
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=client) for _ in range(3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
        assert not errors, errors
    finally:
        server.stop()
    assert fw.GENERATED_OPTIONS == opts.as_dict()


def test_o16_multiproc_corner_serves_correctly(tmp_path):
    """O16=2: the generated Server forks two worker processes that
    accept on one shared SO_REUSEPORT socket.  Hooks must be importable
    (they cross the process boundary by module path), so this corner
    uses the time server's instead of the module-local ones."""
    from repro.servers.time_server import TimeServerHooks

    config = dict(BASE, O3=False, O16=2)
    opts = NSERVER.configure(config)
    NSERVER.validate(opts)
    NSERVER.generate(opts, str(tmp_path), package="matrix_procs_fw")
    fw = load_generated_package(str(tmp_path), "matrix_procs_fw")
    server = fw.Server(TimeServerHooks(),
                       configuration=fw.ServerConfiguration())
    server.start()
    try:
        for _ in range(4):  # REUSEPORT spreads these across workers
            s = socket.create_connection(("127.0.0.1", server.port),
                                         timeout=10)
            s.settimeout(10)
            try:
                s.sendall(b"what time is it\n")
                buf = b""
                while not buf.endswith(b"\n"):
                    buf += s.recv(4096)
                assert buf.decode("ascii")[4] == "-"  # YYYY-MM-DD ...
            finally:
                s.close()
    finally:
        server.stop()


def test_o16_default_emits_zero_deployment_code(tmp_path):
    """O16=1 builds carry no trace of the multi-process plane — not a
    file, not a word (the no-dead-code property again)."""
    opts = NSERVER.configure(BASE)
    report = NSERVER.generate(opts, str(tmp_path), package="matrix_one_fw")
    assert "deployment.py" not in report.files
    for name in report.files:
        if name == "__init__.py":
            continue  # GENERATED_OPTIONS records 'O16': 1
        text = (tmp_path / "matrix_one_fw" / name).read_text()
        for forbidden in ("Deployment", "supervisor", "respawn",
                          "rolling_restart", "worker_listen",
                          "cluster_status", "REUSEPORT", "multi-process"):
            assert forbidden not in text, \
                f"{forbidden!r} leaked into O16=1 {name}"
