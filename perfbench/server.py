"""Server process of the benchmark: the default generated COPS-HTTP build.

    python3 perfbench/server.py --root DOCROOT --build DIR [--trace]

Generates the framework into the fresh directory ``--build`` with the
paper's Table 1 COPS-HTTP options (``build_cops_http`` defaults),
starts it on an ephemeral loopback port and prints one JSON line:
``{"port", "pid", "poller", "python"}``.  It then obeys one command per
stdin line, answering each with one JSON line, and exits on ``quit``
or end of input:

* ``trace-start`` / ``trace-stop`` — switch span recording (``--trace``)
* ``dump PATH`` — write the recorded spans to PATH
* ``quit`` — stop the server and exit
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench-server")
    parser.add_argument("--root", required=True)
    parser.add_argument("--build", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    recorder = None
    if args.trace:
        import tracer

        recorder = tracer.install()
    from repro.servers.cops_http import build_cops_http

    server, _fw, _report = build_cops_http(args.root, dest=args.build)
    server.start()
    reactor = server.reactor
    print(json.dumps({"port": server.port, "pid": os.getpid(),
                      "poller": reactor.socket_source.poller_name,
                      "python": platform.python_version()}), flush=True)
    try:
        for line in sys.stdin:
            cmd, _, arg = line.strip().partition(" ")
            if cmd == "quit":
                break
            if cmd == "trace-start" and recorder is not None:
                recorder.start(reactor.cache.stats)
            elif cmd == "trace-stop" and recorder is not None:
                recorder.stop(reactor.cache.stats)
            elif cmd == "dump" and recorder is not None:
                recorder.dump(arg)
            else:
                print(json.dumps({"error": f"unknown command {cmd!r}"}),
                      flush=True)
                continue
            print(json.dumps({"ok": cmd}), flush=True)
    finally:
        server.stop()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
