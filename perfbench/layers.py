"""Per-layer metrics from a traced run's span dump.

Pure functions over the dump that ``tracer.Recorder.dump`` writes, so
they can be checked without a server.  Self time is a span's duration
minus the time covered by its child spans.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Optional, Tuple

from stats import percentile

US = 1e-3  # ns -> us


class Spans:
    """Spans of one dump, grouped by name."""

    def __init__(self, dump: dict):
        names = dump["names"]
        self.by_name: Dict[str, List[tuple]] = defaultdict(list)
        child_ns: Dict[int, int] = defaultdict(int)
        for span in dump["spans"]:
            sid, kind, start, end, parent, trace, thread, value = span
            self.by_name[names[kind]].append(span)
            if parent:
                child_ns[parent] += end - start
        self.child_ns = child_ns

    def count(self, name: str) -> int:
        return len(self.by_name.get(name, ()))

    def durations_us(self, name: str) -> List[float]:
        return [(s[3] - s[2]) * US for s in self.by_name.get(name, ())]

    def self_us(self, name: str) -> List[float]:
        return [(s[3] - s[2] - self.child_ns.get(s[0], 0)) * US
                for s in self.by_name.get(name, ())]

    def values(self, name: str) -> List[int]:
        return [s[7] for s in self.by_name.get(name, ()) if s[7] is not None]

    def decode_us(self) -> List[float]:
        """Per request: the ``split_request`` call that framed it plus the
        ``parse_request`` that parsed it (paired per thread, in order)."""
        calls = sorted(
            [(s[6], s[2], False, s) for s in self.by_name.get(
                "http.split_request", ())]
            + [(s[6], s[2], True, s) for s in self.by_name.get(
                "http.parse_request", ())])
        framed: Dict[int, int] = {}
        out = []
        for thread, _start, is_parse, s in calls:
            dur = s[3] - s[2]
            if is_parse:
                out.append((framed.pop(thread, 0) + dur) * US)
            elif s[7]:
                framed[thread] = dur
        return out


def layer_metrics(dump: dict, requests: int
                  ) -> Dict[str, Tuple[Optional[float], str, int]]:
    """``name -> (value, unit, samples)`` for every span-derived layer
    metric; ``value`` is None when a percentile has too few samples."""
    sp = Spans(dump)
    n = max(requests, 1)
    out: Dict[str, Tuple[Optional[float], str, int]] = {}

    def per_req(name, count):
        out[name] = (count / n, "1/req", requests)

    def pct(name, samples, q, unit="us"):
        out[name] = (percentile(samples, q), unit, len(samples))

    waits = [w * US for w in dump["queue_waits"]]
    files = [w * US for w in dump["file_waits"]]
    per_req("processor.submits_per_req", sp.count("processor.submit"))
    pct("processor.queue_wait_us.p50", waits, 0.50)
    pct("processor.queue_wait_us.p99", waits, 0.99)
    out["processor.busy_us_per_req"] = (
        sum(sp.durations_us("processor.handler")) / n, "us", requests)
    per_req("event_source.wakeups_per_req", sp.count("event_source.wakeup"))
    per_req("event_source.pause_resume_per_req",
            sp.count("event_source.pause") + sp.count("event_source.resume"))
    polls = sp.count("poller.poll")
    per_req("poller.polls_per_req", polls)
    out["poller.events_per_poll"] = (
        sum(sp.values("poller.poll")) / max(polls, 1), "count", polls)
    per_req("poller.ctl_calls_per_req", sp.count("poller.ctl"))
    pct("dispatcher.dispatch_us.p50", sp.durations_us("dispatcher.dispatch"),
        0.50)
    for op in ("on_readable", "on_writable", "complete_request"):
        pct(f"communicator.{op}_self_us.p50",
            sp.self_us("communicator." + op), 0.50)
    pct("http.decode_us.p50", sp.decode_us(), 0.50)
    pct("http.encode_us.p50", sp.durations_us("http.encode"), 0.50)
    pct("cops_http.handle_self_us.p50", sp.self_us("cops_http.handle"), 0.50)
    per_req("handles.recv_calls_per_req", sp.count("handles.try_recv"))
    sends = sp.values("handles.try_send")
    per_req("handles.send_calls_per_req", len(sends))
    out["handles.short_send_ratio"] = (
        sum(1 for left in sends if left) / max(len(sends), 1), "ratio",
        len(sends))
    pct("handles.try_send_us.p50", sp.durations_us("handles.try_send"), 0.50)
    per_req("file_io.read_file_calls_per_req", sp.count("file_io.read_file"))
    pct("file_io.completion_wait_us.p50", files, 0.50)
    pct("file_io.completion_wait_us.p99", files, 0.99)
    pct("cache.get_file_us.p50", sp.durations_us("cache.get_file"), 0.50)
    per_req("acceptor.accepts_per_req", sum(sp.values("acceptor.try_accept")))
    pct("acceptor.handle_us.p50", sp.durations_us("acceptor.handle"), 0.50)

    before, after = dump["cache"]["start"], dump["cache"]["stop"]
    hits = after["hits"] - before["hits"]
    lookups = hits + after["misses"] - before["misses"]
    out["cache.hit_ratio"] = (hits / max(lookups, 1), "ratio", lookups)
    per_req("cache.evictions_per_req",
            after["evictions"] - before["evictions"])
    timings = dump["timings"]
    out["co2p3s.generate_s"] = (timings.get("generate_s"), "s", 1)
    out["co2p3s.load_s"] = (timings.get("load_s"), "s", 1)
    return out
