"""A generated server loads only the library modules its options use.

The generated framework carries no code for an option that is off
(Table 2); this holds the process that serves it to the same rule.  A
fresh interpreter builds COPS-HTTP, answers one request and reports
which ``repro`` modules it had to import.  The package façades are lazy
and the always-on runtime imports option modules only on the option's
own code path, so the other applications, the hand-wired static
server and every switched-off runtime plane stay out of ``sys.modules``.
"""

import json
import os
import subprocess
import sys

import pytest

SRC = os.path.abspath(os.path.join(os.path.dirname(__file__),
                                   os.pardir, os.pardir, "src"))

SERVE_ONE_REQUEST = """
import json, os, socket, sys
from repro.servers.cops_http import build_cops_http

root, dest, overrides = sys.argv[1], sys.argv[2], json.loads(sys.argv[3])
server, _fw, _report = build_cops_http(root, dest=dest, **overrides)
server.start()
try:
    with socket.create_connection(("127.0.0.1", server.port), timeout=5) as c:
        c.sendall(b"GET /index.html HTTP/1.1\\r\\nHost: x\\r\\n"
                  b"Connection: close\\r\\n\\r\\n")
        reply = b""
        while chunk := c.recv(65536):
            reply += chunk
finally:
    server.stop()
print(json.dumps({"status": reply.split(b"\\r\\n", 1)[0].decode(),
                  "modules": sorted(m for m in sys.modules
                                    if m == "repro" or m.startswith("repro."))}))
"""

#: never needed by a default build: other applications and their
#: protocol libraries, option-off runtime planes (O7 idle, O9 overload,
#: O13 resilience, O14 shard placement, O16 deployment, O17
#: degradation), O11 exposition/sampling and the offline tooling
NOT_LOADED = [
    "repro.runtime.sharding",
    "repro.runtime.deployment", "repro.runtime.degradation",
    "repro.runtime.overload", "repro.runtime.resilience",
    "repro.runtime.idle",
    "repro.obs.exposition", "repro.obs.sampler",
    "repro.servers.cops_ftp", "repro.servers.mail_server",
    "repro.servers.time_server",
    "repro.ftp", "repro.smtp", "repro.co2p3s.metrics", "repro.conform",
    "repro.sim",
]

#: repro modules a default COPS-HTTP process may hold after one request
MAX_DEFAULT_MODULES = 62


def serve_one_request(tmp_path, **overrides):
    """Modules a fresh COPS-HTTP process loaded to answer one GET."""
    root = tmp_path / "www"
    root.mkdir()
    (root / "index.html").write_text("hello")
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run(
        [sys.executable, "-c", SERVE_ONE_REQUEST, str(root),
         str(tmp_path / "build"), json.dumps(overrides)],
        env=env, capture_output=True, text=True, timeout=60, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["status"] == "HTTP/1.1 200 OK"
    return result["modules"]


def loaded(modules, name):
    """True when ``name`` or any of its submodules was imported."""
    return any(m == name or m.startswith(name + ".") for m in modules)


@pytest.fixture(scope="module")
def default_modules(tmp_path_factory):
    return serve_one_request(tmp_path_factory.mktemp("default"))


@pytest.mark.parametrize("name", NOT_LOADED)
def test_default_build_does_not_load(default_modules, name):
    assert not loaded(default_modules, name), (
        f"{name} loaded by a default COPS-HTTP server")


def test_default_build_module_budget(default_modules):
    assert len(default_modules) <= MAX_DEFAULT_MODULES, default_modules


def test_option_on_build_loads_its_module(tmp_path):
    """The footprint test sees imports: with O17 on, the degradation
    runtime the generated framework references is loaded."""
    modules = serve_one_request(tmp_path, degradation=True)
    assert "repro.runtime.degradation" in modules
