"""COPS-HTTP over real sockets: generate the web-server framework with
the paper's Table 1 COPS-HTTP options (async completions, LRU cache,
Event Processor pool), serve a small site, and fetch pages with the
standard library's http.client.

Run:  python examples/http_server.py
"""

import http.client
import os
import tempfile

from repro.servers import build_cops_http


def make_site() -> str:
    root = tempfile.mkdtemp(prefix="cops_site_")
    with open(os.path.join(root, "index.html"), "w") as fh:
        fh.write("<html><body><h1>COPS-HTTP (repro)</h1>"
                 "<p>Generated by the N-Server template.</p></body></html>")
    os.makedirs(os.path.join(root, "docs"))
    with open(os.path.join(root, "docs", "paper.html"), "w") as fh:
        fh.write("<html><body>Using Generative Design Patterns to Develop "
                 "Network Server Applications</body></html>")
    with open(os.path.join(root, "style.css"), "w") as fh:
        fh.write("body { font-family: sans-serif }")
    return root


def main() -> None:
    root = make_site()
    # Profiling on so we can print the paper's server statistics.
    from repro.co2p3s.nserver import COPS_HTTP_OPTIONS

    options = dict(COPS_HTTP_OPTIONS, O11=True)
    server, fw, report = build_cops_http(root, options=options)
    print(f"framework: {len(report.classes)} generated classes "
          f"({report.total_lines} lines)")
    server.start()
    print(f"COPS-HTTP listening on 127.0.0.1:{server.port}\n")

    try:
        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=5)
        for path in ("/", "/docs/paper.html", "/style.css", "/", "/missing"):
            conn.request("GET", path)
            resp = conn.getresponse()
            body = resp.read()
            print(f"GET {path:18s} -> {resp.status} "
                  f"{resp.getheader('Content-Type')} ({len(body)} bytes)")
        conn.close()

        observability = server.reactor.observability
        observability.sample()              # refresh the sampled gauges
        value = observability.registry.value
        print("\nserver statistics (option O11 profiling):")
        print("  connections accepted : "
              f"{value('server_connections_accepted_total'):.0f}")
        print(f"  requests handled     : {value('server_requests_total'):.0f}")
        print(f"  bytes read / sent    : {value('server_bytes_read_total'):.0f}"
              f" / {value('server_bytes_sent_total'):.0f}")
        print(f"  cache hit rate       : {value('server_cache_hit_rate'):.0%}")
    finally:
        server.stop()
    print("done.")


if __name__ == "__main__":
    main()
