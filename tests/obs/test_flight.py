"""The always-on flight recorder: ring semantics, dump round-trips,
per-request path reconstruction, and the SIGUSR2 dump-everything hook."""

import os
import signal

import pytest

from repro.obs.flight import (
    DETAIL_LIMIT,
    FlightEvent,
    FlightRecorder,
    dump_all,
    install_signal_dump,
    parse_dump,
    reconstruct_path,
)


def make_recorder(**kwargs):
    """A recorder with a deterministic clock (0.0, 1.0, 2.0, ...)."""
    ticks = iter(range(10_000))
    kwargs.setdefault("clock", lambda: float(next(ticks)))
    return FlightRecorder(**kwargs)


# -- ring semantics --------------------------------------------------------

def test_record_returns_timestamp_and_buffers_event():
    rec = make_recorder(capacity=8)
    ts = rec.record("accept", "127.0.0.1:1234", trace_id=7)
    assert ts == 0.0
    (event,) = rec.events()
    assert event == FlightEvent(timestamp=0.0, trace_id=7,
                                category="accept", detail="127.0.0.1:1234")


def test_capacity_bounds_the_ring_oldest_first_out():
    rec = make_recorder(capacity=4)
    for i in range(6):
        rec.record("tick", str(i))
    assert len(rec) == 4
    assert [e.detail for e in rec.events()] == ["2", "3", "4", "5"]


def test_capacity_below_one_is_rejected():
    with pytest.raises(ValueError):
        FlightRecorder(capacity=0)


def test_detail_payload_is_capped():
    rec = make_recorder()
    rec.record("big", "x" * (DETAIL_LIMIT + 100))
    (event,) = rec.events()
    assert len(event.detail) == DETAIL_LIMIT


def test_category_and_trace_filters():
    rec = make_recorder()
    rec.record("accept", "a", trace_id=1)
    rec.record("dispatch", "b", trace_id=1)
    rec.record("accept", "c", trace_id=2)
    assert [e.detail for e in rec.events(category="accept")] == ["a", "c"]
    assert [e.detail for e in rec.events(trace_id=1)] == ["a", "b"]
    assert [e.detail for e in rec.events(category="accept", trace_id=2)] \
        == ["c"]


def test_clear_drops_events_but_keeps_categories():
    rec = make_recorder()
    rec.record("accept", "a")
    rec.clear()
    assert len(rec) == 0
    rec.record("accept", "b")
    assert [e.category for e in rec.events()] == ["accept"]


# -- dump / parse round-trips ----------------------------------------------

def test_snapshot_round_trips_through_parse_dump(tmp_path):
    rec = make_recorder(name="unit", dump_dir=str(tmp_path))
    rec.record("accept", "peer", trace_id=0x2A)
    rec.record("fault", "recv short-read", trace_id=0x2A)
    path = rec.snapshot("test")
    assert os.path.dirname(path) == str(tmp_path)
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    assert text.startswith("# flight recorder=unit reason=test events=2\n")
    assert parse_dump(text) == rec.events()


def test_snapshot_directory_argument_beats_dump_dir(tmp_path):
    pinned = tmp_path / "pinned"
    override = tmp_path / "override"
    pinned.mkdir()
    override.mkdir()
    rec = make_recorder(name="unit", dump_dir=str(pinned))
    rec.record("accept")
    path = rec.snapshot("test", directory=str(override))
    assert os.path.dirname(path) == str(override)
    assert os.path.exists(path)


def test_snapshot_env_var_directory(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_FLIGHT_DIR", str(tmp_path))
    rec = make_recorder(name="envdir")
    rec.record("accept")
    path = rec.snapshot("test")
    assert os.path.dirname(path) == str(tmp_path)
    assert os.path.exists(path)


def test_failed_snapshot_never_raises(tmp_path):
    rec = make_recorder(name="doomed",
                        dump_dir=str(tmp_path / "missing" / "deeper"))
    rec.record("accept")
    path = rec.snapshot("crash")   # the directory does not exist
    assert not os.path.exists(path)


def test_parse_dump_rejects_malformed_lines():
    with pytest.raises(ValueError):
        parse_dump("0.000001 0000000000000001 no-category-bracket")


def test_parse_dump_skips_comments_and_blanks():
    assert parse_dump("# header\n\n") == []


# -- reconstruction --------------------------------------------------------

def test_reconstruct_path_merges_recorders_chronologically():
    clock = iter(range(100))
    tick = lambda: float(next(clock))  # noqa: E731 - shared test clock
    accept_plane = FlightRecorder(name="accept-plane", clock=tick)
    worker = FlightRecorder(name="worker-0", clock=tick)
    accept_plane.record("accept", "peer", trace_id=9)
    worker.record("dispatch", "", trace_id=9)
    worker.record("dispatch", "", trace_id=8)       # another request
    worker.record("stage-enter", "decode", trace_id=9)
    worker.record("write-complete", "", trace_id=9)
    merged = worker.events() + accept_plane.events()   # any order in
    path = reconstruct_path(9, merged)
    assert [e.category for e in path] == [
        "accept", "dispatch", "stage-enter", "write-complete"]
    assert [e.timestamp for e in path] == sorted(e.timestamp for e in path)


def test_dump_all_snapshots_every_live_recorder(tmp_path):
    rec = make_recorder(name="dump-all-unit")
    rec.record("accept")
    paths = dump_all("test", directory=str(tmp_path))
    mine = [p for p in paths if "dump-all-unit" in os.path.basename(p)]
    assert len(mine) == 1
    assert parse_dump(open(mine[0], encoding="utf-8").read()) \
        == rec.events()


def test_sigusr2_dumps_to_the_env_directory(tmp_path, monkeypatch):
    if not hasattr(signal, "SIGUSR2"):
        pytest.skip("platform has no SIGUSR2")
    monkeypatch.setenv("REPRO_FLIGHT_DIR", str(tmp_path))
    rec = make_recorder(name="sig-unit")
    rec.record("accept", "sig test")
    if not install_signal_dump():
        pytest.skip("cannot install signal handlers here")
    assert install_signal_dump()   # idempotent
    os.kill(os.getpid(), signal.SIGUSR2)
    dumps = [p for p in os.listdir(tmp_path)
             if p.startswith("flight-sig-unit-sigusr2-")]
    assert len(dumps) == 1
