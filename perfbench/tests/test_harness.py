"""Self-tests of the benchmark harness (no COPS-HTTP server involved).

    python3 -m pytest perfbench/tests -q
"""

import zlib

import pytest

import layers
import loadgen
import run
import workloads
from conftest import BODY, body_request, ok_reply
from stats import bisect_rate, percentile


# -- seeded inputs -------------------------------------------------------------
def _inputs(tmp_path, seed):
    root = tmp_path / f"root{seed}"
    table = workloads.make_docroot(str(root), seed, dirs=3, classes=(0, 1))
    offsets = workloads.arrivals(seed, "heavy", 500.0, 2.0)
    reqs = workloads.request_stream(seed, "heavy", len(offsets), 3, (0, 1),
                                    table, absent_every=10)
    return table, offsets, reqs


def test_same_seed_same_schedule_and_requests(tmp_path):
    table1, offsets1, reqs1 = _inputs(tmp_path, 7)
    table2, offsets2, reqs2 = _inputs(tmp_path / "again", 7)
    assert offsets1 == offsets2
    assert reqs1 == reqs2
    assert table1 == table2


def test_other_seed_other_schedule_and_requests(tmp_path):
    table1, offsets1, reqs1 = _inputs(tmp_path, 7)
    table2, offsets2, reqs2 = _inputs(tmp_path, 8)
    assert offsets1 != offsets2
    assert [r.path for r in reqs1] != [r.path for r in reqs2]
    # same file set shape, different bytes
    assert table1.keys() == table2.keys()
    assert [v[2] for v in table1.values()] != [v[2] for v in table2.values()]


def test_poisson_rate_and_absent_share(tmp_path):
    _, offsets, reqs = _inputs(tmp_path, 3)
    assert 900 <= len(offsets) <= 1100      # 500/s for 2 s
    absent = [r for r in reqs if r.status == 404]
    assert len(absent) == len(reqs) // 10   # exactly one per block of 10


def test_docroot_matches_expectations(tmp_path):
    table = workloads.make_docroot(str(tmp_path), 1, dirs=1, classes=(0,))
    for path, (status, length, crc) in table.items():
        data = (tmp_path / path.lstrip("/")).read_bytes()
        assert (status, length, crc) == (200, len(data), zlib.crc32(data))


# -- coordinated omission -------------------------------------------------------
def test_latency_includes_wait_behind_a_stall(stub):
    """One 200 ms server stall: requests that fell due during it are
    timed from their due time, not from when they could be sent."""
    server = stub(stall=lambda n: 0.2 if n == 10 else 0.0)
    reqs = [body_request()] * 40
    offsets = [0.01 * i for i in range(40)]
    res = loadgen.run_phase(server.addr, reqs, offsets, max_conns=1,
                            depth=1, timeout=2.0)
    assert res.ok == 40 and res.failed == 0
    # Completion order == due order on one connection: request 10
    # stalls from ~0.10 s to ~0.30 s, so request 10+j (due 0.10+0.01j)
    # cannot finish before 0.30 s.
    for j in range(1, 15):
        assert res.latencies[10 + j] >= 0.2 - 0.01 * j - 0.005
    assert max(res.latencies[:10]) < 0.1
    assert max(res.backlog) >= 15


# -- percentiles -------------------------------------------------------------------
def test_percentile_needs_ten_samples_beyond():
    assert percentile(list(range(999)), 0.99) is None
    assert percentile(list(range(1000)), 0.99) == 989
    assert percentile(list(range(19)), 0.50) is None
    assert percentile(list(range(20)), 0.50) == 9
    assert percentile([], 0.5) is None


# -- validator ---------------------------------------------------------------------
def _parse(wire):
    parser = loadgen.ReplyParser()
    parser.feed(wire)
    return parser.next_reply()


def test_validator_accepts_exact_reply():
    assert loadgen.check_reply(body_request(), *_parse(ok_reply(BODY)),
                               close=False) is None


def test_validator_rejects_corrupted_body():
    bad = BODY[:-1] + b"y"
    assert loadgen.check_reply(body_request(), *_parse(ok_reply(bad)),
                               close=False) == "body"


def test_validator_rejects_wrong_content_length():
    wire = (b"HTTP/1.1 200 OK\r\nContent-Length: 299\r\n\r\n" + BODY)
    assert loadgen.check_reply(body_request(), *_parse(wire),
                               close=False) == "body"
    with pytest.raises(loadgen.FramingError):
        _parse(ok_reply(BODY, b"Content-Length: 300\r\n"))


def test_validator_rejects_wrong_status_and_missing_close():
    wire = ok_reply(BODY).replace(b"200 OK", b"404 Not Found")
    assert loadgen.check_reply(body_request(), *_parse(wire),
                               close=False) == "status"
    assert loadgen.check_reply(body_request(), *_parse(ok_reply(BODY)),
                               close=True) == "framing"


def test_truncated_reply_is_a_failure(stub):
    """The second reply is cut 50 bytes short and the connection drops:
    that request fails as truncated, the rest succeed on a new one."""
    cut = ok_reply(BODY)[:-50]
    server = stub(reply=lambda n: cut if n == 1 else ok_reply(BODY),
                  hangup=lambda n: n == 1)
    res = loadgen.run_phase(server.addr, [body_request()] * 3,
                            [0.0, 0.05, 0.1], max_conns=1, depth=1,
                            timeout=1.0)
    assert res.ok == 2
    assert res.failures == {"truncated": 1}


def test_timeout_is_a_failure_not_retried(stub):
    server = stub(stall=lambda n: 1.0 if n == 0 else 0.0)
    res = loadgen.run_phase(server.addr, [body_request()] * 2, [0.0, 0.01],
                            max_conns=1, depth=1, timeout=0.3)
    assert res.failures["timeout"] == 1
    assert res.attempted == 2
    assert server.count <= 2


# -- bisection ---------------------------------------------------------------------
def test_bisection_is_a_function_of_probe_outcomes():
    outcomes = iter([True, False, True, True, False, False])
    first, hist1 = bisect_rate(100, 1600, 6, lambda r: next(outcomes))
    outcomes = iter([True, False, True, True, False, False])
    second, hist2 = bisect_rate(100, 1600, 6, lambda r: next(outcomes))
    assert first == second and hist1 == hist2
    assert len(hist1) == 6
    assert hist1[0][0] == pytest.approx(400.0)


def test_bisection_converges_on_a_threshold():
    rate, history = bisect_rate(100, 1600, 8, lambda r: r <= 700)
    assert 650 < rate <= 700
    assert len(history) == 8


# -- span analysis -------------------------------------------------------------------
def test_self_time_subtracts_children():
    names = ["communicator.on_readable", "handles.try_recv",
             "http.split_request", "http.parse_request"]
    spans = [
        # id, kind, start, end, parent, trace, thread, value
        [2, 1, 1000, 3000, 1, 5, 1, None],
        [3, 2, 3000, 4000, 1, 5, 1, 1],
        [4, 3, 4000, 6000, 1, 5, 1, None],
        [1, 0, 0, 10000, 0, 5, 1, None],
    ]
    dump = {"names": names, "spans": spans}
    sp = layers.Spans(dump)
    assert sp.self_us("communicator.on_readable") == [5.0]
    assert sp.decode_us() == [3.0]


# -- workload claims -------------------------------------------------------------------
def _dump(hits, misses, accepts):
    """A traced run's dump with only cache stats and accept spans."""
    names = ["acceptor.try_accept"]
    spans = [[k + 1, 0, 0, 10, 0, 0, 1, 1] for k in range(accepts)]
    return {"names": names, "spans": spans, "queue_waits": [],
            "file_waits": [], "timings": {},
            "cache": {"start": {"hits": 0, "misses": 0, "evictions": 0},
                      "stop": {"hits": hits, "misses": misses,
                               "evictions": 0}}}


HOT_SMALL = {"cache.hit_ratio": ["==", 1.0],
             "acceptor.accepts_per_req": ["<", 0.02]}


def test_claims_hold_on_a_hot_small_dump():
    metrics = layers.layer_metrics(_dump(1000, 0, 10), 1000)
    assert all(ok for _, ok in run.check_claims(HOT_SMALL, metrics))


def test_a_cache_miss_on_hot_small_fails_the_run():
    metrics = layers.layer_metrics(_dump(999, 1, 10), 1000)
    results = run.check_claims(HOT_SMALL, metrics)
    assert [ok for _, ok in results] == [True, False]
    assert "cache.hit_ratio" in results[1][0]


def test_churn_needs_one_accept_per_request():
    churn = {"acceptor.accepts_per_req": ["~", 1.0]}
    for accepts, want in ((1000, True), (1015, True), (950, False)):
        metrics = layers.layer_metrics(_dump(0, 0, accepts), 1000)
        assert [ok for _, ok in run.check_claims(churn, metrics)] == [want]

