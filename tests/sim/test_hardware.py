"""Tests for the simulated hardware: link, disk, CPU pool, TCP."""

import pytest

from repro.sim import Simulator
from repro.sim.disk import Disk, OsBufferCache
from repro.sim.host import CpuPool, multiprogramming_inflation
from repro.sim.link import Link
from repro.sim.tcp import ListenQueue, SimConnection, connect


def run_proc(sim, gen):
    p = sim.process(gen)
    sim.run()
    return p.value


# -- link ------------------------------------------------------------------


def test_link_serialization_time_scales_with_bytes():
    sim = Simulator()
    link = Link(sim, bandwidth_bps=100e6)
    t1 = link.serialization_time(1460)
    t2 = link.serialization_time(14600)
    assert t2 > t1 * 9  # roughly linear


def test_link_framing_overhead():
    sim = Simulator()
    link = Link(sim, bandwidth_bps=100e6, mtu=1500)
    # 1460 payload = 1 packet = 1500 wire bytes
    assert link.serialization_time(1460) == pytest.approx(1500 * 8 / 100e6)


def test_link_transfer_takes_wire_time():
    sim = Simulator()
    link = Link(sim, bandwidth_bps=80e6, latency=0.0)

    def proc():
        yield from link.transfer(100_000)

    sim.process(proc())
    sim.run()
    assert sim.now == pytest.approx(link.serialization_time(100_000))
    assert link.bytes_carried == 100_000


def test_link_fifo_serialises_transfers():
    sim = Simulator()
    link = Link(sim, bandwidth_bps=80e6, latency=0.0)
    finish = []

    def proc(n):
        yield from link.transfer(n)
        finish.append((n, sim.now))

    sim.process(proc(80_000))
    sim.process(proc(80_000))
    sim.run()
    # Second transfer waits for the first: finishes at ~2x.
    assert finish[1][1] == pytest.approx(2 * finish[0][1])


def test_link_validation():
    sim = Simulator()
    with pytest.raises(ValueError):
        Link(sim, bandwidth_bps=0)
    with pytest.raises(ValueError):
        Link(sim, mtu=10)


# -- disk ---------------------------------------------------------------------


def test_disk_miss_pays_seek_then_hit_is_fast():
    sim = Simulator()
    disk = Disk(sim, seek_time=0.008)
    times = []

    def proc():
        t0 = sim.now
        yield from disk.read("/f", 10_000)
        times.append(sim.now - t0)
        t0 = sim.now
        yield from disk.read("/f", 10_000)
        times.append(sim.now - t0)

    sim.process(proc())
    sim.run()
    assert times[0] > 0.008
    assert times[1] < 0.001
    assert disk.physical_reads == 1 and disk.buffered_reads == 1


def test_os_buffer_evicts_lru():
    buf = OsBufferCache(capacity_bytes=100)
    assert not buf.lookup("/a", 60)
    assert not buf.lookup("/b", 60)   # evicts /a
    assert not buf.lookup("/a", 60)   # miss again
    assert buf.lookup("/a", 60)


def test_disk_arm_serialises():
    sim = Simulator()
    disk = Disk(sim, seek_time=0.01, buffer_cache=OsBufferCache(1))
    done = []

    def proc(path):
        yield from disk.read(path, 1000)
        done.append(sim.now)

    sim.process(proc("/x"))
    sim.process(proc("/y"))
    sim.run()
    assert done[1] >= done[0] + 0.01  # second read waited for the arm


# -- cpu ------------------------------------------------------------------------


def test_cpu_pool_parallelism():
    sim = Simulator()
    cpu = CpuPool(sim, cpus=2)
    done = []

    def proc():
        yield from cpu.consume(1.0)
        done.append(sim.now)

    for _ in range(4):
        sim.process(proc())
    sim.run()
    assert done == [1.0, 1.0, 2.0, 2.0]
    assert cpu.busy_time == pytest.approx(4.0)
    assert cpu.utilization(2.0) == pytest.approx(1.0)


def test_cpu_zero_work_is_free():
    sim = Simulator()
    cpu = CpuPool(sim, cpus=1)

    def proc():
        yield from cpu.consume(0.0)
        yield sim.timeout(0)

    sim.process(proc())
    sim.run()
    assert sim.now == 0.0


def test_inflation_kicks_in_above_cpu_count():
    assert multiprogramming_inflation(4, 4) == 1.0
    assert multiprogramming_inflation(2, 4) == 1.0
    assert multiprogramming_inflation(104, 4, 0.004) == pytest.approx(1.4)


def test_cpu_validation():
    with pytest.raises(ValueError):
        CpuPool(Simulator(), cpus=0)


# -- tcp ---------------------------------------------------------------------------


def test_connect_succeeds_when_server_accepts():
    sim = Simulator()
    listen = ListenQueue(sim, backlog=8)

    def server():
        conn = yield listen.accept()
        conn.accepted.succeed(sim.now)

    def client():
        conn, wait, attempts = yield from connect(sim, listen, client_id=1,
                                                  syn_latency=0.0)
        return wait, attempts

    sim.process(server())
    p = sim.process(client())
    sim.run()
    wait, attempts = p.value
    assert attempts == 1 and wait == pytest.approx(0.0)


def test_syn_dropped_when_backlog_full_then_backoff():
    sim = Simulator()
    listen = ListenQueue(sim, backlog=1)
    # Fill the backlog; nobody accepts.
    filler = SimConnection(sim=sim, client_id=0)
    assert listen.try_syn(filler)

    def late_server():
        yield sim.timeout(2.5)   # drain the filler before the retry lands
        while True:
            conn = yield listen.accept()
            conn.accepted.succeed(sim.now)

    def client():
        conn, wait, attempts = yield from connect(
            sim, listen, client_id=1, rto_initial=3.0, syn_latency=0.0)
        return wait, attempts

    sim.process(late_server())
    p = sim.process(client())
    sim.run()
    wait, attempts = p.value
    assert attempts == 2
    assert wait >= 3.0
    assert listen.syn_drops == 1


def test_backoff_doubles_and_caps():
    sim = Simulator()
    listen = ListenQueue(sim, backlog=1)
    listen.try_syn(SimConnection(sim=sim, client_id=0))  # jam it
    attempt_times = []

    orig_try = listen.try_syn

    def spy(conn):
        attempt_times.append(sim.now)
        return orig_try(conn)

    listen.try_syn = spy

    def client():
        yield from connect(sim, listen, client_id=1, rto_initial=1.0,
                           rto_max=4.0, syn_latency=0.0)

    sim.process(client())
    sim.run(until=20.0)
    gaps = [attempt_times[i + 1] - attempt_times[i]
            for i in range(len(attempt_times) - 1)]
    assert gaps[0] == pytest.approx(1.0)
    assert gaps[1] == pytest.approx(2.0)
    assert gaps[2] == pytest.approx(4.0)
    assert all(g == pytest.approx(4.0) for g in gaps[2:])  # capped


def test_connection_close_sends_eof_sentinel():
    sim = Simulator()
    conn = SimConnection(sim=sim, client_id=1)
    got = []

    def reader():
        item = yield conn.requests.get()
        got.append(item)

    sim.process(reader())
    conn.close()
    sim.run()
    assert got == [None]
