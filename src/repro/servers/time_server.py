"""Time server: the paper's example of a *trivial* application the same
template supports ("ranging from trivial applications (e.g., Time
server) to those as sophisticated ... as Web servers").

Daytime-style protocol: any request line gets the current time; the
option set is the minimal one — no codec (Fig 2's three-step cycle),
no pool features, synchronous completions.
"""

from __future__ import annotations

import tempfile
import time
from typing import Optional

from repro.co2p3s.nserver import NSERVER
from repro.co2p3s.template import (load_generated_package,
                                    remove_build_on_stop)
from repro.runtime import ServerHooks

__all__ = ["TimeServerHooks", "TIME_SERVER_OPTIONS", "build_time_server"]

#: The minimal Table 1 column a time server needs.
TIME_SERVER_OPTIONS = {
    "O1": "1",
    "O2": True,
    "O3": False,            # Fig 2: no encode/decode steps
    "O4": "Synchronous",
    "O5": "Static",
    "O6": None,
    "O7": True,             # drop idle clients
    "O8": False,
    "O9": False,
    "O10": "Production",
    "O11": False,
    "O12": False,
}


class TimeServerHooks(ServerHooks):
    """One hook method: any line in, the time out (no codec steps)."""

    def __init__(self, clock=time.time):
        self.clock = clock

    def handle(self, request: bytes, conn) -> bytes:
        stamp = time.strftime("%Y-%m-%d %H:%M:%S",
                              time.gmtime(self.clock()))
        return stamp.encode("ascii") + b"\n"


def build_time_server(dest: Optional[str] = None,
                      package: str = "time_server_fw",
                      host: str = "127.0.0.1", port: int = 0,
                      **config_overrides):
    """Generate the time-server framework and return the server.

    Returns ``(server, framework_module, generation_report)``.
    """
    opts = NSERVER.configure(TIME_SERVER_OPTIONS)
    build = dest or tempfile.mkdtemp(prefix="time_server_")
    report = NSERVER.generate(opts, build, package=package)
    fw = load_generated_package(build, package)
    configuration = fw.ServerConfiguration(host=host, port=port,
                                           **config_overrides)
    server = fw.Server(TimeServerHooks(), configuration=configuration)
    if dest is None:
        remove_build_on_stop(server, build)
    return server, fw, report
