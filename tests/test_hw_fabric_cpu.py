"""Tests for the fabric (bandwidth/latency) and CPU accounting models."""

import pytest

from repro.hw import DEFAULT_PARAMS, CpuSet, Fabric, SimParams
from repro.sim import Simulator


def make_fabric(n=2, params=None):
    sim = Simulator()
    params = params or DEFAULT_PARAMS
    fabric = Fabric(sim, params)
    for node_id in range(n):
        fabric.attach(node_id)
    return sim, fabric, params


def test_transfer_latency_small_message():
    sim, fabric, params = make_fabric()

    def proc():
        yield from fabric.transfer(0, 1, 64)

    sim.run_process(proc())
    expected = params.prices.ser(64) + params.prices.prop
    assert sim.now == pytest.approx(expected)


def test_transfer_latency_scales_with_size():
    sim, fabric, params = make_fabric()
    times = []

    def proc(nbytes):
        start = sim.now
        yield from fabric.transfer(0, 1, nbytes)
        times.append(sim.now - start)

    sim.run_process(proc(1024))
    sim.run_process(proc(65536))
    assert times[1] > times[0]
    assert times[1] - times[0] == pytest.approx(params.prices.ser(65536 - 1024))


def test_link_bandwidth_is_a_ceiling():
    """Two senders to one receiver share the ingress link (incast)."""
    sim, fabric, params = make_fabric(n=3)
    done = []

    def sender(src):
        yield from fabric.transfer(src, 2, 1_000_000)
        done.append(sim.now)

    sim.process(sender(0))
    sim.process(sender(1))
    sim.run()
    serialization = params.prices.ser(1_000_000)
    # Second transfer must wait for the first to clear the ingress link.
    assert done[1] >= 2 * serialization


def test_parallel_disjoint_transfers_do_not_interfere():
    sim, fabric, params = make_fabric(n=4)
    done = []

    def sender(src, dst):
        yield from fabric.transfer(src, dst, 1_000_000)
        done.append(sim.now)

    sim.process(sender(0, 1))
    sim.process(sender(2, 3))
    sim.run()
    expected = params.prices.ser(1_000_000) + params.prices.prop
    assert done[0] == pytest.approx(expected)
    assert done[1] == pytest.approx(expected)


def test_loopback_transfer_short_circuits_switch():
    sim, fabric, params = make_fabric()

    def proc():
        yield from fabric.transfer(0, 0, 4096)

    sim.run_process(proc())
    assert sim.now < params.prices.ser(4096) + params.prices.prop


def test_transfer_to_unattached_node_raises():
    sim, fabric, _params = make_fabric()

    def proc():
        yield from fabric.transfer(0, 99, 10)

    with pytest.raises(ValueError):
        sim.run_process(proc())


def test_byte_accounting():
    sim, fabric, _params = make_fabric()

    def proc():
        yield from fabric.transfer(0, 1, 500)

    sim.run_process(proc())
    assert fabric.total_bytes == 500
    assert fabric.ports[0].tx_bytes == 500
    assert fabric.ports[1].rx_bytes == 500


# ---------------------------------------------------------------- CPU --


def test_cpu_execute_accounts_busy_time():
    sim = Simulator()
    cpu = CpuSet(sim, DEFAULT_PARAMS, cores=2)

    def proc():
        yield from cpu.execute(5.0, tag="map")
        yield from cpu.execute(3.0, tag="map")

    sim.run_process(proc())
    assert cpu.busy_time["map"] == pytest.approx(8.0)
    assert cpu.total_busy() == pytest.approx(8.0)


def test_cpu_core_contention_queues():
    sim = Simulator()
    cpu = CpuSet(sim, DEFAULT_PARAMS, cores=1)
    finish = []

    def proc(label):
        yield from cpu.execute(10.0, tag=label)
        finish.append((label, sim.now))

    sim.process(proc("a"))
    sim.process(proc("b"))
    sim.run()
    assert finish == [("a", 10.0), ("b", 20.0)]


def test_busy_wait_charges_full_wait():
    sim = Simulator()
    params = DEFAULT_PARAMS
    cpu = CpuSet(sim, params)
    gate = sim.event()

    def firer():
        yield sim.timeout(50)
        gate.succeed("done")

    def waiter():
        value = yield from cpu.busy_wait(gate, tag="poller")
        return value

    sim.process(firer())
    proc = sim.process(waiter())
    assert sim.run(stop=proc) == "done"
    assert cpu.busy_time["poller"] == pytest.approx(50 + params.poll_loop_us / 2)


def test_adaptive_wait_sleeps_after_window():
    params = SimParams(adaptive_busy_window_us=10.0, thread_wakeup_us=2.0)
    sim = Simulator()
    cpu = CpuSet(sim, params)
    gate = sim.event()

    def firer():
        yield sim.timeout(100)
        gate.succeed()

    def waiter():
        yield from cpu.adaptive_wait(gate, tag="adaptive")

    sim.process(firer())
    proc = sim.process(waiter())
    sim.run(stop=proc)
    # Charged only the busy window + wakeup, far less than 100 us.
    assert cpu.busy_time["adaptive"] == pytest.approx(10.0 + 2.0)
    # But the wakeup added latency.
    assert sim.now == pytest.approx(102.0)


def test_adaptive_wait_fast_path_has_no_wakeup_latency():
    params = SimParams(adaptive_busy_window_us=10.0, thread_wakeup_us=2.0)
    sim = Simulator()
    cpu = CpuSet(sim, params)
    gate = sim.event()

    def firer():
        yield sim.timeout(3)
        gate.succeed()

    def waiter():
        yield from cpu.adaptive_wait(gate, tag="adaptive")

    sim.process(firer())
    proc = sim.process(waiter())
    sim.run(stop=proc)
    assert sim.now < 4.0
    assert cpu.busy_time["adaptive"] == pytest.approx(3.0 + params.poll_loop_us / 2)


def test_charge_rejects_negative():
    sim = Simulator()
    cpu = CpuSet(sim, DEFAULT_PARAMS)
    with pytest.raises(ValueError):
        cpu.charge("x", -1.0)


def test_params_pages_touched():
    params = DEFAULT_PARAMS
    assert params.pages_touched(0, 1) == 1
    assert params.pages_touched(0, 4096) == 1
    assert params.pages_touched(0, 4097) == 2
    assert params.pages_touched(4095, 2) == 2
    assert params.pages_touched(0, 0) == 0


def test_params_copy_overrides():
    params = DEFAULT_PARAMS.copy(mr_key_cache_entries=7)
    assert params.mr_key_cache_entries == 7
    assert DEFAULT_PARAMS.mr_key_cache_entries != 7
