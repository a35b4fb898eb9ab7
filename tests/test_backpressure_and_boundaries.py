"""Backpressure limits and storage-boundary edge cases."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cluster import Cluster
from repro.core import LiteContext, lite_boot, rpc_server_loop
from repro.hw.memory import HostMemory, PhysRegion
from repro.verbs import Access, Opcode, SendWR, Sge


def test_send_queue_depth_limits_outstanding_ops():
    """max_send_wr bounds in-flight WRs: extra posts queue at the SQ."""
    cluster = Cluster(2)
    sim = cluster.sim

    def proc():
        a, b = cluster[0], cluster[1]
        pd_a, pd_b = a.device.alloc_pd(), b.device.alloc_pd()
        mr_a = yield from a.device.reg_mr(pd_a, 1 << 16, Access.ALL)
        mr_b = yield from b.device.reg_mr(pd_b, 1 << 16, Access.ALL)
        qa = a.device.create_qp(pd_a, "RC", max_send_wr=4)
        qb = b.device.create_qp(pd_b, "RC")
        a.device.connect(qa, qb)
        procs = [
            qa.post_send(SendWR(
                Opcode.WRITE, sgl=[Sge(mr_a, 0, 4096)],
                remote_addr=mr_b.base_addr, rkey=mr_b.rkey,
                signaled=False,
            ))
            for _ in range(12)
        ]
        # Only 4 slots: in-flight never exceeds the queue depth.
        assert qa._sq_slots.in_use <= 4
        yield sim.all_of(procs)
        assert qa.posted_sends == 12
        return True

    assert cluster.run_process(proc()) is True


def test_rpc_ring_sustains_sustained_overload():
    """Offered load far above the tiny ring's capacity: flow control
    keeps every call correct, none lost, none duplicated."""
    from repro.hw import SimParams

    params = SimParams(lite_rpc_ring_bytes=1 << 11)  # 2 KB ring
    cluster = Cluster(2, params=params)
    kernels = lite_boot(cluster)
    sim = cluster.sim
    served = []

    def handler(data):
        yield sim.timeout(5)
        served.append(data)
        return data

    server = LiteContext(kernels[1], "s")
    sim.process(rpc_server_loop(server, 1, handler))
    client_ctxs = [LiteContext(kernels[0], f"c{i}") for i in range(6)]
    replies = []

    def worker(index):
        ctx = client_ctxs[index]
        for call in range(8):
            payload = f"{index}-{call}".encode() + b"x" * 300
            reply = yield from ctx.lt_rpc(2, 1, payload, max_reply=512)
            replies.append(reply)

    def proc():
        yield sim.timeout(1)
        procs = [sim.process(worker(i)) for i in range(6)]
        yield sim.all_of(procs)

    cluster.run_process(proc())
    assert len(replies) == 48
    assert sorted(replies) == sorted(served)
    assert len(set(replies)) == 48


# ----------------------------------------------- sparse-block storage --


@pytest.mark.slow
@given(data=st.data())
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.data_too_large])
def test_property_sparse_region_rw_across_block_boundaries(data):
    """Reads/writes straddling the 64 KiB sparse-block boundary behave
    exactly like a flat buffer."""
    size = 3 * PhysRegion._BLOCK
    region = PhysRegion(0, 0, size)
    shadow = bytearray(size)
    for _ in range(data.draw(st.integers(min_value=1, max_value=12))):
        offset = data.draw(st.integers(min_value=0, max_value=size - 1))
        length = data.draw(st.integers(min_value=0, max_value=min(
            size - offset, 100_000)))
        if data.draw(st.booleans()):
            payload = data.draw(st.binary(min_size=length, max_size=length))
            region.write(offset, payload)
            shadow[offset : offset + length] = payload
        else:
            assert region.read(offset, length) == bytes(
                shadow[offset : offset + length]
            )
    # Full sweep at the end.
    assert region.read(0, size) == bytes(shadow)


def test_sparse_region_untouched_blocks_cost_nothing():
    region = PhysRegion(0, 0, 1 << 30)  # 1 GB
    region.write(123_456_789, b"island")
    assert region.resident_bytes <= 4096
    assert region.read(123_456_789, 6) == b"island"
    assert region.read(0, 16) == b"\x00" * 16


def test_host_memory_resolve_at_exact_region_end():
    memory = HostMemory(0, capacity=1 << 16)
    region = memory.alloc(4096)
    found, offset = memory.resolve(region.addr + 4095, 1)
    assert found is region and offset == 4095
    with pytest.raises(ValueError):
        memory.resolve(region.addr + 4095, 2)  # spills past the end


def test_kv_store_contention_many_clients():
    """Several clients hammer overlapping keys; every GET returns some
    committed value for that key, and the final state is exact."""
    import random

    from repro.apps.kvstore import LiteKVClient, LiteKVServer

    rng = random.Random(17)
    cluster = Cluster(3)
    kernels = lite_boot(cluster)
    sim = cluster.sim
    servers = [LiteKVServer(kernels[2], 0)]

    def setup():
        yield from servers[0].start(n_server_threads=4)
        yield sim.timeout(1)

    cluster.run_process(setup())
    clients = [
        LiteKVClient(kernels[index % 2], servers, principal=f"cl{index}")
        for index in range(4)
    ]
    keys = [b"shared-a", b"shared-b"]
    committed = {key: set() for key in keys}
    final = {}

    def worker(index):
        client = clients[index]
        for op in range(12):
            key = keys[rng.randrange(2)]
            if rng.random() < 0.5:
                value = f"{index}:{op}".encode()
                committed[key].add(value)
                yield from client.put(key, value)
                final[key] = (sim.now, value)
            else:
                got = yield from client.get(key)
                if got is not None:
                    assert got in committed[key], got

    def proc():
        procs = [sim.process(worker(i)) for i in range(4)]
        yield sim.all_of(procs)
        # Quiesced: a fresh client must read the last-written values.
        fresh = LiteKVClient(kernels[0], servers, principal="fresh")
        out = {}
        for key in keys:
            if key in final:
                out[key] = (yield from fresh.get(key))
        return out

    out = cluster.run_process(proc())
    for key, value in out.items():
        assert value == final[key][1]
