"""End-to-end benchmark of the generated COPS-HTTP server.

    python3 perfbench/run.py --workload hot-small --seed 1 --seconds 32 --trace 0

Run from the repository root.  Builds the seeded docroot of the
workload, starts the default COPS-HTTP build in its own process
(``server.py``), drives it over loopback from this process with the
open-loop generator (``loadgen.py``) and prints a human-readable report
followed, as the last line, by one JSON object
``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` reports the
per-layer metrics of a traced run at the workload's heavy rate.  Rates
and latency limits per workload live in ``config.json``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))

import layers  # noqa: E402  (this directory is on sys.path as the script's)
import loadgen  # noqa: E402
import workloads  # noqa: E402
from stats import bisect_rate, percentile  # noqa: E402

#: variables that would change which server is measured
SCRUBBED_ENV = ("REPRO_POLLER", "REPRO_RACE_DETECTOR", "REPRO_BENCH_SMOKE",
                "REPRO_FLIGHT_DIR")
CLK_TCK = os.sysconf("SC_CLK_TCK")
#: a request with no reply this long after it was sent fails (5x the
#: p99 limit of every workload)
TIMEOUT_S = 0.5
#: shares of ``--seconds`` of the untraced phases after warm-up
SHARES = {"probes": 0.4, "light": 0.2, "heavy": 0.4}


def host_ticks():
    """(steal, total) CPU ticks of the host so far, from /proc/stat."""
    with open("/proc/stat") as fh:
        fields = [int(x) for x in fh.readline().split()[1:]]
    return fields[7], sum(fields[:8])


class BenchError(Exception):
    """The run cannot produce a valid result."""


class ServerProcess:
    """One server process; ``setup_s`` is spawn -> first valid reply."""

    def __init__(self, bench, trace=False):
        self.build = tempfile.mkdtemp(prefix="build-", dir=bench.work)
        env = {k: v for k, v in os.environ.items() if k not in SCRUBBED_ENV}
        env["PYTHONPATH"] = bench.src
        env["TMPDIR"] = bench.tmp
        cmd = [sys.executable, os.path.join(HERE, "server.py"),
               "--root", bench.docroot, "--build", self.build]
        if trace:
            cmd.append("--trace")
        self.log = open(os.path.join(bench.work, "server.log"), "ab+")
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(cmd, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE,
                                     stderr=self.log, cwd=bench.root,
                                     env=env)

    def handshake(self, probe_req):
        """Wait for the server's ready line, then fetch ``probe_req``;
        returns the fetch's failure kind (None when it checked out)."""
        self.info = self._reply(60.0)
        self.pid = self.info["pid"]
        self.addr = ("127.0.0.1", self.info["port"])
        failure = loadgen.fetch_once(self.addr, probe_req)
        self.setup_s = time.perf_counter() - self.started
        return failure

    def _reply(self, timeout: float) -> dict:
        ready, _, _ = select.select([self.proc.stdout], [], [], timeout)
        line = self.proc.stdout.readline() if ready else b""
        if not line:
            self.log.seek(0)
            tail = self.log.read()[-2000:].decode(errors="replace")
            raise BenchError(f"server process did not answer:\n{tail}")
        return json.loads(line)

    def command(self, cmd: str) -> dict:
        self.proc.stdin.write(cmd.encode() + b"\n")
        self.proc.stdin.flush()
        return self._reply(60.0)

    def cpu_s(self) -> float:
        with open(f"/proc/{self.pid}/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / CLK_TCK

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise BenchError("no VmHWM in /proc status")

    def stop(self) -> None:
        if self.proc.poll() is None:
            try:
                self.proc.stdin.write(b"quit\n")
                self.proc.stdin.close()
            except OSError:
                pass
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self.log.close()
        shutil.rmtree(self.build, ignore_errors=True)


class Bench:
    def __init__(self, root, work, workload, seed, seconds, config):
        self.root = root
        self.src = os.path.join(root, "src")
        self.work = work
        self.tmp = os.path.join(work, "tmp")
        os.makedirs(self.tmp)
        self.docroot = os.path.join(work, "docroot")
        self.name = workload
        self.seed = seed
        self.seconds = seconds
        self.config = config
        self.wl = config["workloads"][workload]
        self.conns = len(os.sched_getaffinity(0))
        self.servers = []
        self.server_info = {}
        self.phases = []
        self.setup_failures = []
        self.table = workloads.make_docroot(
            self.docroot, seed, self.wl["dirs"], self.wl["classes"])
        self.first_file = workloads.warmup_stream(self.table, 0)[0]

    # -- servers -------------------------------------------------------------
    def spawn(self, trace=False) -> ServerProcess:
        server = ServerProcess(self, trace=trace)
        self.servers.append(server)
        self.setup_failures.append(server.handshake(self.first_file))
        self.server_info = server.info
        return server

    def time_setup(self, setups) -> None:
        """Spawn one more server, add its set-up time to ``setups`` and
        stop it.  Called between phases, so the samples spread over the
        whole run and a few seconds of host noise move one, not the
        median."""
        extra = self.spawn()
        setups.append(extra.setup_s)
        self.retire(extra)

    def retire(self, server) -> None:
        server.stop()
        self.servers.remove(server)

    def close(self) -> None:
        for server in list(self.servers):
            self.retire(server)

    # -- phases ----------------------------------------------------------------
    def phase(self, server, label, rate, seconds, grace=None,
              requests=None, offsets=None):
        if offsets is None:
            offsets = workloads.arrivals(self.seed, label, rate, seconds)
            requests = workloads.request_stream(
                self.seed, label, len(offsets), self.wl["dirs"],
                self.wl["classes"], self.table, self.wl["absent_every"])
        gc.collect()
        gc.disable()
        cpu0 = server.cpu_s()
        try:
            res = loadgen.run_phase(
                server.addr, requests, offsets, label=label,
                max_conns=self.conns,
                depth=self.wl["depth"], per_conn=self.wl["per_conn"],
                close_each=self.wl["close"],
                timeout=TIMEOUT_S, grace=grace)
        finally:
            gc.enable()
        res.server_cpu_s = server.cpu_s() - cpu0
        self.phases.append(res)
        return res

    def warm_up(self, server):
        reqs = workloads.warmup_stream(self.table, self.wl["warm_class"])
        return self.phase(server, "warmup", 0.0, 0.0, grace=120.0,
                          requests=reqs, offsets=[0.0] * len(reqs))

    def passes(self, res) -> bool:
        """The probe met the p99 limit (failures, cut and unsent
        requests all count as missing it), kept errors within 0.1 % and
        ended without a growing backlog."""
        limit = self.wl["p99_limit_ms"] / 1e3
        total = res.attempted + res.cut + res.unsent
        if total * 0.01 < 10:
            return False   # too few requests to show a p99 within limit
        missed = (res.failed + res.cut + res.unsent
                  + sum(1 for lat in res.latencies if lat > limit))
        quarter = max(len(res.backlog) // 4, 1)
        growing = (statistics.fmean(res.backlog[-quarter:])
                   > statistics.fmean(res.backlog[:quarter])
                   + self.conns * self.wl["depth"])
        return (missed <= total * 0.01
                and res.failed <= res.attempted * 0.001
                and not growing)

    # -- totals ----------------------------------------------------------------
    def totals(self):
        wrong = sum(p.wrong for p in self.phases) + sum(
            1 for f in self.setup_failures if f in loadgen.WRONG_REPLY)
        attempted = sum(p.attempted for p in self.phases) + len(
            self.setup_failures)
        failed = sum(p.failed for p in self.phases) + sum(
            1 for f in self.setup_failures if f is not None)
        return wrong == 0, attempted, failed

    def check_lag(self, measured) -> float:
        lag = [x for p in measured for x in p.lag]
        p99 = percentile(lag, 0.99)
        floor = min(w["p99_limit_ms"]
                    for w in self.config["workloads"].values())
        if p99 is None or p99 * 1e3 >= floor:
            raise BenchError(f"generator lag p99 {p99} s over {len(lag)} "
                             f"arrivals is not below {floor} ms: "
                             "the run is invalid")
        return p99 * 1e3

    # -- the two modes -------------------------------------------------------
    def run_untraced(self):
        server = self.spawn()
        setups = [server.setup_s]
        self.warm_up(server)
        self.time_setup(setups)

        probe_s = self.seconds * SHARES["probes"] / self.wl["probes"]
        probes = []

        def probe(rate):
            # Whatever is unanswered 2x the limit after the last arrival
            # has missed the limit: stop there, so probes take fixed time.
            res = self.phase(server, f"probe{len(probes)}", rate, probe_s,
                             grace=2e-3 * self.wl["p99_limit_ms"])
            probes.append(res)
            self.time_setup(setups)
            return self.passes(res)

        lo, hi = self.wl["bracket_rps"]
        sustained, history = bisect_rate(float(lo), float(hi),
                                         self.wl["probes"], probe)
        mean_body = (sum(p.body_bytes for p in probes)
                     / max(sum(p.ok for p in probes), 1))
        light = self.phase(server, "light", self.wl["light_rps"],
                           self.seconds * SHARES["light"])
        self.time_setup(setups)
        heavy = self.phase(server, "heavy", self.wl["heavy_rps"],
                           self.seconds * SHARES["heavy"])
        rss = server.peak_rss_mb()
        self.time_setup(setups)
        lag_p99 = self.check_lag(probes + [light, heavy])

        metrics = {
            "sustained_rps": (sustained, "req/s",
                              sum(p.attempted for p in probes)),
            "sustained_mbps": (sustained * mean_body / 1e6, "MB/s",
                               sum(p.ok for p in probes)),
        }
        for res in (light, heavy):
            for q, tag in ((0.50, "p50"), (0.99, "p99")):
                value = percentile(res.latencies, q)
                metrics[f"{res.label}.{tag}_ms"] = (
                    None if value is None else value * 1e3, "ms",
                    len(res.latencies))
        metrics["heavy.cpu_us_per_req"] = (heavy.cpu_us_per_req, "us",
                                           heavy.ok)
        correct, attempted, failed = self.totals()
        metrics["error_rate"] = (failed / max(attempted, 1), "fraction",
                                 attempted)
        metrics["setup_s"] = (statistics.median(setups), "s", len(setups))
        metrics["server_rss_mb"] = (rss, "MB", 1)
        notes = ["probes: " + ", ".join(
            f"{rate:.0f}{'+' if ok else '-'}" for rate, ok in history),
            f"loadgen.lag_ms.p99 {lag_p99:.3f}"]
        if not any(ok for _, ok in history):
            notes.append(f"no probe passed: sustained_rps is below the "
                         f"bracket floor {lo}, reported as the floor")
        return metrics, notes

    def run_traced(self):
        half = self.seconds / 2
        plain = self.spawn()
        self.warm_up(plain)
        base = self.phase(plain, "heavy", self.wl["heavy_rps"], half)
        self.retire(plain)

        traced = self.spawn(trace=True)
        self.warm_up(traced)
        traced.command("trace-start")
        heavy = self.phase(traced, "heavy", self.wl["heavy_rps"], half)
        traced.command("trace-stop")
        path = os.path.join(self.work, "spans.json")
        traced.command(f"dump {path}")
        self.retire(traced)
        lag_p99 = self.check_lag([base, heavy])
        with open(path) as fh:
            dump = json.load(fh)

        metrics = layers.layer_metrics(dump, heavy.ok)
        metrics["loadgen.lag_ms.p99"] = (lag_p99, "ms", len(heavy.lag))
        metrics["loadgen.backlog_max"] = (max(heavy.backlog, default=0),
                                          "count", len(heavy.backlog))
        metrics["trace.overhead_cpu_pct"] = (
            (heavy.cpu_us_per_req / base.cpu_us_per_req - 1) * 100, "%",
            heavy.ok)
        _, attempted, failed = self.totals()
        metrics["error_rate"] = (failed / max(attempted, 1), "fraction",
                                 attempted)
        notes = [f"spans {len(dump['spans'])}"]
        results = check_claims(self.wl["checks"], metrics)
        notes += [line for line, _ in results]
        wrong = [line for line, ok in results if not ok]
        if wrong:
            raise BenchError("the workload does not do what it claims: "
                             + "; ".join(wrong))
        return metrics, notes


def check_claims(checks, metrics):
    """``[(line, ok), ...]``: each of the workload's ``checks``
    (``name -> [op, want]``, op one of ``==``, ``<`` and ``~`` for
    within 2 %) against the traced run's ``metrics``."""
    results = []
    for name, (op, want) in sorted(checks.items()):
        value = metrics[name][0]
        ok = {"==": value == want, "<": value < want,
              "~": abs(value - want) <= 0.02 * want}[op]
        results.append((f"check {name} {op} {want}: {value:.4g} "
                        + ("ok" if ok else "FAILED"), ok))
    return results


def report(bench, metrics, notes, names, steal):
    """Human-readable lines, then the JSON result as the last line."""
    correct, attempted, failed = bench.totals()
    info = bench.server_info
    print(f"perfbench {bench.name} seed={bench.seed} "
          f"seconds={bench.seconds} python={info['python']} "
          f"nproc={bench.conns} poller={info['poller']} "
          f"host-steal={steal:.1%}")
    failures = sum((p.failures for p in bench.phases), Counter())
    print(f"  requests: attempted={attempted} failed={failed} "
          f"({dict(failures)}) cut={sum(p.cut for p in bench.phases)} "
          f"unsent={sum(p.unsent for p in bench.phases)}")
    for note in notes:
        print("  " + note)
    print("  (* = in BENCHMARK.json and the JSON line below)")
    out = {}
    for name in sorted(metrics):
        value, unit, n = metrics[name]
        shown = "unsupported (too few samples)" if value is None \
            else f"{value:.6g}"
        mark = "*" if name in names else " "
        print(f"{mark} {name:40s} {shown:>14s} {unit:9s} n={n}")
        if name in names:
            out[name] = {"value": 0.0 if value is None else value,
                         "unit": unit}
    missing = set(names) - set(out)
    if missing:
        raise BenchError(f"metrics not produced: {sorted(missing)}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": out}))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "servers",
                                       "cops_http.py")):
        print("perfbench: src/repro not found; run from the repository "
              "root", file=sys.stderr)
        return 2
    with open(os.path.join(HERE, "config.json")) as fh:
        config = json.load(fh)
    if args.workload not in config["workloads"]:
        print(f"perfbench: unknown workload {args.workload!r}",
              file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    names = [m["name"] for m in spec["per_layer" if args.trace
                                     else "end_to_end"]]

    # SIGTERM unwinds like Ctrl-C so the server processes are stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    base = os.path.join(root, ".perfbench_work")
    os.makedirs(base, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-",
                            dir=base)
    bench = None
    try:
        steal0, total0 = host_ticks()
        bench = Bench(root, work, args.workload, args.seed, args.seconds,
                      config)
        if args.trace:
            metrics, notes = bench.run_traced()
        else:
            metrics, notes = bench.run_untraced()
        steal1, total1 = host_ticks()
        report(bench, metrics, notes, names,
               (steal1 - steal0) / max(total1 - total0, 1))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        if bench is not None:
            bench.close()
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(base)
        except OSError:
            pass
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
