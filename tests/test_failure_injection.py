"""Failure-injection and edge-condition tests across the LITE stack."""

import pytest

from repro.cluster import Cluster
from repro.core import (
    LiteContext,
    LiteError,
    Permission,
    RpcTimeoutError,
    lite_boot,
)
from repro.hw import SimParams
from repro.hw.memory import OutOfMemoryError


def test_rpc_timeout_when_server_thread_dies():
    """A registered function whose only server thread died: the client's
    timeout is the failure signal (§5.1 — no send-state polling)."""
    cluster = Cluster(2)
    kernels = lite_boot(cluster)
    client = LiteContext(kernels[0], "c")
    server = LiteContext(kernels[1], "s")
    sim = cluster.sim

    def short_lived_server():
        server.lt_reg_rpc(1)
        call = yield from server.lt_recv_rpc(1)
        yield from server.lt_reply_rpc(call, b"only-once")
        # The thread exits; nobody serves func 1 anymore.

    def proc():
        sim.process(short_lived_server())
        yield sim.timeout(1)
        first = yield from client.lt_rpc(2, 1, b"a", max_reply=64)
        assert first == b"only-once"
        with pytest.raises(RpcTimeoutError):
            yield from client.lt_rpc(2, 1, b"b", max_reply=64, timeout=300.0)
        return True

    assert cluster.run_process(proc()) is True


def test_timeout_does_not_leak_reply_memory():
    cluster = Cluster(2)
    kernels = lite_boot(cluster)
    client = LiteContext(kernels[0], "c")
    server = LiteContext(kernels[1], "s")
    server.lt_reg_rpc(9)  # registered, never served
    memory = kernels[0].node.memory
    sim = cluster.sim

    def proc():
        yield sim.timeout(1)
        # First call binds the ring (persistent 8 B head slot): let that
        # state exist before measuring.
        with pytest.raises(RpcTimeoutError):
            yield from client.lt_rpc(2, 9, b"x", max_reply=4096, timeout=200.0)
        before = memory.allocated_bytes
        for _ in range(5):
            with pytest.raises(RpcTimeoutError):
                yield from client.lt_rpc(2, 9, b"x", max_reply=4096,
                                         timeout=200.0)
        return before, memory.allocated_bytes

    before, after = cluster.run_process(proc())
    assert after == before


def test_remote_alloc_out_of_memory_propagates():
    """An lt_malloc targeting a node without space raises at the caller."""
    cluster = Cluster(2)
    # Tiny remote node.
    small = 8 * 1024 * 1024
    cluster.nodes[1].memory.capacity = small
    cluster.nodes[1].memory._free = [(0, small)]
    cluster.nodes[1].memory._live.clear()
    cluster.nodes[1].memory._live_addrs.clear()
    kernels = lite_boot(cluster)
    ctx = LiteContext(kernels[0], "c")

    def proc():
        with pytest.raises(LiteError, match="contiguous|free"):
            yield from ctx.lt_malloc(1 << 30, nodes=2)

    cluster.run_process(proc())


def test_local_alloc_out_of_memory_raises():
    cluster = Cluster(1)
    kernels = lite_boot(cluster)
    ctx = LiteContext(kernels[0], "c")

    def proc():
        with pytest.raises(OutOfMemoryError):
            yield from ctx.lt_malloc(1 << 60)

    cluster.run_process(proc())


def test_write_to_freed_lmr_fails_fast():
    cluster = Cluster(3)
    kernels = lite_boot(cluster)
    alice = LiteContext(kernels[0], "alice")
    bob = LiteContext(kernels[1], "bob")
    sim = cluster.sim

    def proc():
        lh = yield from alice.lt_malloc(
            4096, name="vanishing", nodes=3,
            default_perm=Permission.READ | Permission.WRITE,
        )
        bob_lh = yield from bob.lt_map("vanishing")
        yield from bob.lt_write(bob_lh, 0, b"fine")
        yield from alice.lt_free(lh)
        yield sim.timeout(50)  # FREE_NOTIFY propagation
        with pytest.raises(PermissionError, match="freed"):
            yield from bob.lt_write(bob_lh, 0, b"too late")

    cluster.run_process(proc())


def test_double_free_rejected():
    cluster = Cluster(1)
    kernels = lite_boot(cluster)
    ctx = LiteContext(kernels[0], "c")

    def proc():
        lh = yield from ctx.lt_malloc(64, name="once")
        yield from ctx.lt_free(lh)
        with pytest.raises(PermissionError):
            yield from ctx.lt_free(lh)

    cluster.run_process(proc())


def test_unconnected_peer_rejected():
    """Operations toward a node LITE never meshed with fail loudly."""
    cluster = Cluster(2)
    kernels = [
        __import__("repro.core", fromlist=["LiteKernel"]).LiteKernel(
            node, cluster.manager
        )
        for node in cluster.nodes
    ]

    def proc():
        yield from kernels[0].boot()
        yield from kernels[1].boot()
        # No connect() — the mesh is missing.
        with pytest.raises(LiteError, match="not connected"):
            kernels[0].ctrl_send(2, {"type": "x"})
        return True

    assert cluster.run_process(proc()) is True


def test_double_boot_rejected():
    cluster = Cluster(1)
    kernels = lite_boot(cluster)

    def proc():
        with pytest.raises(LiteError, match="already booted"):
            yield from kernels[0].boot()

    cluster.run_process(proc())


def test_control_plane_fragmentation_of_huge_chunk_lists():
    """A multi-GB spread LMR produces a chunk list far beyond one
    control slot; fragmentation + reassembly must keep it exact."""
    params = SimParams(lite_chunk_bytes=1 << 20)  # 1 MB chunks
    cluster = Cluster(3, params=params)
    kernels = lite_boot(cluster)
    ctx = LiteContext(kernels[0], "c")

    def proc():
        # 600 chunks -> several control-slot fragments for the reply.
        lh = yield from ctx.lt_malloc(600 << 20, nodes=[2, 3])
        assert len(lh.mapping.chunks) == 600
        yield from ctx.lt_write(lh, (299 << 20) + 12345, b"spanning")
        data = yield from ctx.lt_read(lh, (299 << 20) + 12345, 8)
        return data

    assert cluster.run_process(proc()) == b"spanning"


def test_cq_overflow_is_counted_not_fatal():
    from repro.verbs import WorkCompletion, WcStatus, Opcode

    cluster = Cluster(1)
    cq = cluster[0].device.create_cq(depth=2)
    for index in range(5):
        cq.push(WorkCompletion(index, WcStatus.SUCCESS, Opcode.WRITE))
    assert len(cq) == 2
    assert cq.overflows == 3


def test_rnr_stall_recovers_when_recv_posted_late(pair):
    """A SEND arriving before any recv buffer waits (RNR) and completes
    once the application posts one."""
    from repro.verbs import Opcode, RecvWR, SendWR, Sge

    cluster, mr_a, mr_b = pair["cluster"], pair["mr_a"], pair["mr_b"]
    qa, qb = pair["qa"], pair["qb"]
    sim = cluster.sim

    def proc():
        mr_a.write(0, b"patience")
        send_proc = qa.post_send(SendWR(Opcode.SEND, sgl=[Sge(mr_a, 0, 8)]))
        yield sim.timeout(100)
        assert send_proc.is_alive          # stalled on the empty RQ
        assert qb.rnr_stalls == 1
        qb.post_recv(RecvWR(mr=mr_b, offset=0, length=64))
        yield send_proc
        return mr_b.read(0, 8)

    assert cluster.run_process(proc()) == b"patience"


def test_lock_owner_can_be_remote_and_survive_contention_burst():
    cluster = Cluster(3)
    kernels = lite_boot(cluster)
    sim = cluster.sim
    acquisitions = []

    def worker(kernel, index):
        ctx = LiteContext(kernel, f"w{index}")
        lock = yield from ctx.lt_open_lock("burst")
        for _ in range(4):
            yield from ctx.lt_lock(lock)
            acquisitions.append(index)
            yield from ctx.lt_unlock(lock)

    def proc():
        creator = LiteContext(kernels[0], "creator")
        yield from creator.lt_create_lock("burst", owner_id=3)
        procs = [
            sim.process(worker(kernels[i % 3], i)) for i in range(9)
        ]
        yield sim.all_of(procs)

    cluster.run_process(proc())
    assert len(acquisitions) == 36


def test_barrier_with_n_one_is_immediate():
    cluster = Cluster(1)
    kernels = lite_boot(cluster)
    ctx = LiteContext(kernels[0], "solo")
    sim = cluster.sim

    def proc():
        start = sim.now
        yield from ctx.lt_barrier("solo-sync", 1)
        return sim.now - start

    assert cluster.run_process(proc()) < 5.0
