"""Integration tests for the Verbs substrate (RC/UC/UD datapath)."""

import struct

import pytest

from repro.cluster import Cluster
from repro.verbs import (
    Access,
    Opcode,
    RecvWR,
    SendWR,
    Sge,
    WcStatus,
)


@pytest.fixture
def pair():
    """Two connected RC QPs across two nodes, with 4 KB MRs."""
    cluster = Cluster(2)
    state = {}

    def setup():
        a, b = cluster[0], cluster[1]
        pd_a, pd_b = a.device.alloc_pd(), b.device.alloc_pd()
        state["mr_a"] = yield from a.device.reg_mr(pd_a, 4096)
        state["mr_b"] = yield from b.device.reg_mr(pd_b, 4096)
        state["qa"] = a.device.create_qp(pd_a, "RC")
        state["qb"] = b.device.create_qp(pd_b, "RC")
        a.device.connect(state["qa"], state["qb"])

    cluster.run_process(setup())
    state["cluster"] = cluster
    return state


def run(cluster, gen):
    return cluster.sim.run_process(gen)


def test_rc_write_moves_real_bytes(pair):
    cluster, mr_a, mr_b, qa = pair["cluster"], pair["mr_a"], pair["mr_b"], pair["qa"]
    mr_a.write(0, b"payload-123")

    def proc():
        wr = SendWR(
            Opcode.WRITE,
            sgl=[Sge(mr_a, 0, 11)],
            remote_addr=mr_b.base_addr + 64,
            rkey=mr_b.rkey,
        )
        status = yield qa.post_send(wr)
        assert status is WcStatus.SUCCESS

    run(cluster, proc())
    assert mr_b.read(64, 11) == b"payload-123"
    completions = qa.send_cq.poll()
    assert len(completions) == 1 and completions[0].ok


def test_rc_read_fetches_remote_bytes(pair):
    cluster, mr_a, mr_b, qa = pair["cluster"], pair["mr_a"], pair["mr_b"], pair["qa"]
    mr_b.write(200, b"remote-data")

    def proc():
        wr = SendWR(
            Opcode.READ,
            sgl=[Sge(mr_a, 0, 11)],
            remote_addr=mr_b.base_addr + 200,
            rkey=mr_b.rkey,
        )
        yield qa.post_send(wr)

    run(cluster, proc())
    assert mr_a.read(0, 11) == b"remote-data"


def test_write_latency_reasonable_when_warm(pair):
    cluster, mr_a, mr_b, qa = pair["cluster"], pair["mr_a"], pair["mr_b"], pair["qa"]
    sim = cluster.sim
    latencies = []

    def proc():
        for _ in range(5):
            start = sim.now
            wr = SendWR(
                Opcode.WRITE,
                sgl=[Sge(mr_a, 0, 64)],
                remote_addr=mr_b.base_addr,
                rkey=mr_b.rkey,
            )
            yield qa.post_send(wr)
            latencies.append(sim.now - start)

    run(cluster, proc())
    # Cold first op (cache misses) must be slower than warm ops.
    assert latencies[0] > latencies[-1]
    # Warm one-sided 64 B write on ConnectX-3-class hardware: ~1-3 us.
    assert 0.5 < latencies[-1] < 4.0


def test_send_recv_delivers_to_posted_buffer(pair):
    cluster = pair["cluster"]
    mr_a, mr_b, qa, qb = pair["mr_a"], pair["mr_b"], pair["qa"], pair["qb"]
    mr_a.write(0, b"msg")

    def proc():
        qb.post_recv(RecvWR(mr=mr_b, offset=512, length=256, wr_id=77))
        wr = SendWR(Opcode.SEND, sgl=[Sge(mr_a, 0, 3)])
        yield qa.post_send(wr)
        wc = yield qb.recv_cq.wait_wc()
        assert wc.wr_id == 77
        assert wc.opcode is Opcode.RECV
        assert wc.byte_len == 3
        assert wc.src_node == 0

    run(cluster, proc())
    assert mr_b.read(512, 3) == b"msg"


def test_write_imm_consumes_recv_and_carries_imm(pair):
    cluster = pair["cluster"]
    mr_a, mr_b, qa, qb = pair["mr_a"], pair["mr_b"], pair["qa"], pair["qb"]
    mr_a.write(0, b"abcd")

    def proc():
        qb.post_recv(RecvWR(wr_id=5))
        wr = SendWR(
            Opcode.WRITE_IMM,
            sgl=[Sge(mr_a, 0, 4)],
            remote_addr=mr_b.base_addr,
            rkey=mr_b.rkey,
            imm=0xDEAD,
        )
        yield qa.post_send(wr)
        wc = yield qb.recv_cq.wait_wc()
        assert wc.imm == 0xDEAD
        assert wc.opcode is Opcode.RECV_IMM
        assert wc.byte_len == 4

    run(cluster, proc())
    assert mr_b.read(0, 4) == b"abcd"


def test_fetch_add_is_atomic_and_returns_old(pair):
    cluster = pair["cluster"]
    mr_a, mr_b, qa = pair["mr_a"], pair["mr_b"], pair["qa"]
    mr_b.write(0, struct.pack("<Q", 41))

    def proc():
        wr = SendWR(
            Opcode.FETCH_ADD,
            sgl=[Sge(mr_a, 0, 8)],
            remote_addr=mr_b.base_addr,
            rkey=mr_b.rkey,
            compare_add=1,
        )
        yield qa.post_send(wr)

    run(cluster, proc())
    assert struct.unpack("<Q", mr_a.read(0, 8))[0] == 41
    assert struct.unpack("<Q", mr_b.read(0, 8))[0] == 42


def test_concurrent_fetch_adds_never_lose_updates(pair):
    cluster = pair["cluster"]
    mr_a, mr_b, qa = pair["mr_a"], pair["mr_b"], pair["qa"]
    mr_b.write(0, struct.pack("<Q", 0))

    def adder():
        wr = SendWR(
            Opcode.FETCH_ADD,
            sgl=[Sge(mr_a, 0, 8)],
            remote_addr=mr_b.base_addr,
            rkey=mr_b.rkey,
            compare_add=1,
        )
        yield qa.post_send(wr)

    def driver():
        procs = [cluster.sim.process(adder()) for _ in range(32)]
        yield cluster.sim.all_of(procs)

    run(cluster, driver())
    assert struct.unpack("<Q", mr_b.read(0, 8))[0] == 32


def test_cmp_swap(pair):
    cluster = pair["cluster"]
    mr_a, mr_b, qa = pair["mr_a"], pair["mr_b"], pair["qa"]
    mr_b.write(0, struct.pack("<Q", 7))

    def proc():
        # Successful swap 7 -> 100.
        wr = SendWR(
            Opcode.CMP_SWAP,
            sgl=[Sge(mr_a, 0, 8)],
            remote_addr=mr_b.base_addr,
            rkey=mr_b.rkey,
            compare_add=7,
            swap=100,
        )
        yield qa.post_send(wr)
        assert struct.unpack("<Q", mr_b.read(0, 8))[0] == 100
        # Failed swap (compare mismatch) leaves the value alone.
        wr = SendWR(
            Opcode.CMP_SWAP,
            sgl=[Sge(mr_a, 8, 8)],
            remote_addr=mr_b.base_addr,
            rkey=mr_b.rkey,
            compare_add=7,
            swap=999,
        )
        yield qa.post_send(wr)
        assert struct.unpack("<Q", mr_b.read(0, 8))[0] == 100
        assert struct.unpack("<Q", mr_a.read(8, 8))[0] == 100  # old value

    run(cluster, proc())


def test_remote_write_out_of_bounds_fails(pair):
    cluster = pair["cluster"]
    mr_a, mr_b, qa = pair["mr_a"], pair["mr_b"], pair["qa"]

    def proc():
        wr = SendWR(
            Opcode.WRITE,
            sgl=[Sge(mr_a, 0, 64)],
            remote_addr=mr_b.base_addr + 4090,  # spills past 4096
            rkey=mr_b.rkey,
        )
        status = yield qa.post_send(wr)
        assert status is WcStatus.REM_ACCESS_ERR

    run(cluster, proc())
    completions = qa.send_cq.poll()
    assert completions[0].status is WcStatus.REM_ACCESS_ERR


def test_remote_write_bad_rkey_fails(pair):
    cluster = pair["cluster"]
    mr_a, qa = pair["mr_a"], pair["qa"]

    def proc():
        wr = SendWR(
            Opcode.WRITE,
            sgl=[Sge(mr_a, 0, 8)],
            remote_addr=0,
            rkey=999999,
        )
        status = yield qa.post_send(wr)
        assert status is WcStatus.REM_INV_REQ_ERR

    run(cluster, proc())


def test_write_to_read_only_mr_denied():
    cluster = Cluster(2)

    def proc():
        a, b = cluster[0], cluster[1]
        pd_a, pd_b = a.device.alloc_pd(), b.device.alloc_pd()
        mr_a = yield from a.device.reg_mr(pd_a, 4096)
        mr_b = yield from b.device.reg_mr(
            pd_b, 4096, access=Access.REMOTE_READ | Access.LOCAL_WRITE
        )
        qa = a.device.create_qp(pd_a, "RC")
        qb = b.device.create_qp(pd_b, "RC")
        a.device.connect(qa, qb)
        wr = SendWR(
            Opcode.WRITE,
            sgl=[Sge(mr_a, 0, 8)],
            remote_addr=mr_b.base_addr,
            rkey=mr_b.rkey,
        )
        status = yield qa.post_send(wr)
        assert status is WcStatus.REM_ACCESS_ERR

    cluster.run_process(proc())


def test_ud_send_and_mtu_limit():
    cluster = Cluster(2)

    def proc():
        a, b = cluster[0], cluster[1]
        pd_a, pd_b = a.device.alloc_pd(), b.device.alloc_pd()
        mr_a = yield from a.device.reg_mr(pd_a, 8192)
        mr_b = yield from b.device.reg_mr(pd_b, 8192)
        qa = a.device.create_qp(pd_a, "UD")
        qb = b.device.create_qp(pd_b, "UD")
        qb.post_recv(RecvWR(mr=mr_b, offset=0, length=4096))
        mr_a.write(0, b"ud-hello")
        wr = SendWR(Opcode.SEND, sgl=[Sge(mr_a, 0, 8)])
        yield qa.post_send(wr, dst=(1, qb.qpn))
        wc = yield qb.recv_cq.wait_wc()
        assert wc.byte_len == 8
        assert mr_b.read(0, 8) == b"ud-hello"
        # Over-MTU UD send is rejected at post time.
        big = SendWR(Opcode.SEND, sgl=[Sge(mr_a, 0, 8192)])
        try:
            qa.post_send(big, dst=(1, qb.qpn))
            assert False, "expected MTU rejection"
        except ValueError:
            pass

    cluster.run_process(proc())


def test_ud_requires_destination(pair):
    cluster = Cluster(1)

    def proc():
        node = cluster[0]
        pd = node.device.alloc_pd()
        mr = yield from node.device.reg_mr(pd, 64)
        qp = node.device.create_qp(pd, "UD")
        try:
            qp.post_send(SendWR(Opcode.SEND, sgl=[Sge(mr, 0, 8)]))
            assert False
        except ValueError:
            pass

    cluster.run_process(proc())


def test_uc_rejects_read():
    cluster = Cluster(2)

    def proc():
        a, b = cluster[0], cluster[1]
        pd_a, pd_b = a.device.alloc_pd(), b.device.alloc_pd()
        mr_a = yield from a.device.reg_mr(pd_a, 64)
        _mr_b = yield from b.device.reg_mr(pd_b, 64)
        qa = a.device.create_qp(pd_a, "UC")
        qb = b.device.create_qp(pd_b, "UC")
        a.device.connect(qa, qb)
        try:
            qa.post_send(SendWR(Opcode.READ, sgl=[Sge(mr_a, 0, 8)], rkey=1))
            assert False
        except ValueError:
            pass

    cluster.run_process(proc())


def test_cross_pd_sge_rejected(pair):
    cluster = Cluster(1)

    def proc():
        node = cluster[0]
        pd1, pd2 = node.device.alloc_pd(), node.device.alloc_pd()
        mr = yield from node.device.reg_mr(pd1, 64)
        qp = node.device.create_qp(pd2, "RC")
        qp.connect(0, qp.qpn)
        try:
            qp.post_send(SendWR(Opcode.WRITE, sgl=[Sge(mr, 0, 8)], rkey=mr.rkey))
            assert False
        except ValueError:
            pass

    cluster.run_process(proc())


def test_deregistered_mr_unusable(pair):
    cluster = pair["cluster"]
    mr_a, qa = pair["mr_a"], pair["qa"]

    def proc():
        yield from cluster[0].device.dereg_mr(mr_a)
        try:
            qa.post_send(SendWR(Opcode.WRITE, sgl=[Sge(mr_a, 0, 8)], rkey=1))
            assert False
        except ValueError:
            pass

    run(cluster, proc())


def test_registration_cost_scales_with_pages():
    cluster = Cluster(1)
    sim = cluster.sim
    durations = []

    def proc():
        node = cluster[0]
        pd = node.device.alloc_pd()
        for size in (4096, 64 * 4096):
            start = sim.now
            yield from node.device.reg_mr(pd, size)
            durations.append(sim.now - start)

    cluster.run_process(proc())
    # 64 pages vs 1 page: cost dominated by per-page pinning.
    assert durations[1] > durations[0] * 10


def test_phys_mr_registration_flat_and_pte_free():
    cluster = Cluster(1)
    sim = cluster.sim

    def proc():
        node = cluster[0]
        pd = node.device.alloc_pd()
        start = sim.now
        mr = yield from node.device.reg_phys_mr(pd)
        elapsed = sim.now - start
        assert elapsed < 5.0
        assert mr.physical
        assert mr.page_ids(0, 1 << 20) == []

    cluster.run_process(proc())


def test_phys_mr_reads_live_allocations():
    cluster = Cluster(1)

    def proc():
        node = cluster[0]
        pd = node.device.alloc_pd()
        mr = yield from node.device.reg_phys_mr(pd)
        region = node.memory.alloc(4096)
        region.write(5, b"via-phys")
        assert mr.read(region.addr + 5, 8) == b"via-phys"
        mr.write(region.addr + 100, b"back")
        assert region.read(100, 4) == b"back"

    cluster.run_process(proc())


def test_sgl_gather_multiple_segments(pair):
    cluster = pair["cluster"]
    mr_a, mr_b, qa = pair["mr_a"], pair["mr_b"], pair["qa"]
    mr_a.write(0, b"AAAA")
    mr_a.write(1000, b"BBBB")

    def proc():
        wr = SendWR(
            Opcode.WRITE,
            sgl=[Sge(mr_a, 0, 4), Sge(mr_a, 1000, 4)],
            remote_addr=mr_b.base_addr,
            rkey=mr_b.rkey,
        )
        yield qa.post_send(wr)

    run(cluster, proc())
    assert mr_b.read(0, 8) == b"AAAABBBB"


def test_unsignaled_write_generates_no_cqe(pair):
    cluster = pair["cluster"]
    mr_a, mr_b, qa = pair["mr_a"], pair["mr_b"], pair["qa"]

    def proc():
        wr = SendWR(
            Opcode.WRITE,
            sgl=[Sge(mr_a, 0, 8)],
            remote_addr=mr_b.base_addr,
            rkey=mr_b.rkey,
            signaled=False,
        )
        yield qa.post_send(wr)

    run(cluster, proc())
    assert qa.send_cq.poll() == []


def test_mr_count_tracking(pair):
    cluster = Cluster(1)

    def proc():
        node = cluster[0]
        pd = node.device.alloc_pd()
        mrs = []
        for _ in range(5):
            mr = yield from node.device.reg_mr(pd, 4096)
            mrs.append(mr)
        assert node.device.mr_count == 5
        yield from node.device.dereg_mr(mrs[0])
        assert node.device.mr_count == 4

    cluster.run_process(proc())



@pytest.mark.parametrize("fastpath", [True, False], ids=["fast", "generator"])
@pytest.mark.parametrize("nbytes", [64, 4096, 1 << 20])
@pytest.mark.parametrize("opcode", [Opcode.WRITE, Opcode.WRITE_IMM,
                                    Opcode.READ, Opcode.SEND,
                                    Opcode.FETCH_ADD, Opcode.CMP_SWAP],
                         ids=lambda op: op.name)
def test_explain_sums_to_the_completion_instant(opcode, nbytes, fastpath):
    """``repro.explain`` reads the price list both executors read: its
    running sum from the post instant is, bit for bit, the instant a
    warm uncontended op of that shape completes — committed by the fast
    path or walked by the generator path."""
    from repro import explain
    from repro.verbs.fastpath import fp_stats

    cluster = Cluster(2)
    cluster.sim.fastpath_enabled = fastpath
    a, b = cluster[0], cluster[1]
    world = {}

    def setup():
        pd_a, pd_b = a.device.alloc_pd(), b.device.alloc_pd()
        world["mr"] = yield from b.device.reg_mr(pd_b, 2 << 20)
        world["qa"] = a.device.create_qp(pd_a, "RC")
        world["qb"] = b.device.create_qp(pd_b, "RC")
        a.device.connect(world["qa"], world["qb"])

    cluster.run_process(setup())
    mr, qa, qb = world["mr"], world["qa"], world["qb"]

    def post():
        """Post one op at a quiescent instant; its completion instant."""
        if opcode in (Opcode.SEND, Opcode.WRITE_IMM):
            qb.post_recv(RecvWR(mr, 0, nbytes))
        if opcode is Opcode.READ:
            wr = SendWR(opcode, remote_addr=mr.base_addr, rkey=mr.rkey,
                        read_length=nbytes)
        elif opcode in (Opcode.FETCH_ADD, Opcode.CMP_SWAP):
            wr = SendWR(opcode, remote_addr=mr.base_addr, rkey=mr.rkey,
                        compare_add=1)
        else:
            wr = SendWR(opcode, inline_data=b"x" * nbytes, imm=7,
                        remote_addr=mr.base_addr, rkey=mr.rkey)
        proc = qa.post_send(wr)
        cluster.run(stop=proc)
        assert proc.value is WcStatus.SUCCESS
        done = cluster.sim.now
        cluster.run()
        return done

    post()  # warms the QP, key and PTE caches on both RNICs
    stages = explain(opcode, nbytes)
    expect = cluster.sim.now
    for _label, us in stages:
        expect += us
    commits = fp_stats.commits
    assert post() == expect, stages
    assert fp_stats.commits - commits == (1 if fastpath else 0)
