"""Additional Verbs-layer coverage: framing, atomics variants, CQs."""

import struct

import pytest

from repro.cluster import Cluster
from repro.verbs import (
    ACK_BYTES,
    Access,
    Opcode,
    RecvWR,
    SendWR,
    Sge,
    UD_MTU,
    WIRE_HEADER_BYTES,
    WcStatus,
    WorkCompletion,
    wire_bytes,
)


# ----------------------------------------------------------- framing --


def test_wire_bytes_zero_payload_is_one_header():
    assert wire_bytes(0) == WIRE_HEADER_BYTES


def test_wire_bytes_one_packet():
    assert wire_bytes(4096) == 4096 + WIRE_HEADER_BYTES


def test_wire_bytes_multi_packet():
    assert wire_bytes(4097) == 4097 + 2 * WIRE_HEADER_BYTES
    assert wire_bytes(3 * 4096) == 3 * 4096 + 3 * WIRE_HEADER_BYTES


def test_ud_send_pays_grh_per_datagram():
    """UD messages carry the 40 B GRH on the wire; RC does not."""
    def bytes_for(qp_type):
        cluster = Cluster(2)

        def proc():
            a, b = cluster[0], cluster[1]
            pd_a, pd_b = a.device.alloc_pd(), b.device.alloc_pd()
            mr_a = yield from a.device.reg_mr(pd_a, 4096, Access.ALL)
            mr_b = yield from b.device.reg_mr(pd_b, 4096, Access.ALL)
            qa = a.device.create_qp(pd_a, qp_type)
            qb = b.device.create_qp(pd_b, qp_type)
            dst = None
            if qp_type == "UD":
                dst = (1, qb.qpn)
            else:
                a.device.connect(qa, qb)
            qb.post_recv(RecvWR(mr=mr_b, offset=0, length=256))
            baseline = cluster.fabric.total_bytes
            yield qa.post_send(
                SendWR(Opcode.SEND, sgl=[Sge(mr_a, 0, 64)]), dst=dst
            )
            return cluster.fabric.total_bytes - baseline

        return cluster.run_process(proc())

    ud = bytes_for("UD")
    rc = bytes_for("RC")
    # RC adds an ACK; UD adds the GRH.  Compare payload-path bytes.
    assert ud == 64 + WIRE_HEADER_BYTES + 40
    assert rc == 64 + WIRE_HEADER_BYTES + ACK_BYTES


# ----------------------------------------------------------- atomics --


def test_sglless_atomic_returns_old_value_inline(pair):
    mr_b, qa = pair["mr_b"], pair["qa"]

    def proc():
        mr_b.write(16, struct.pack("<Q", 1000))
        wr = SendWR(Opcode.FETCH_ADD, remote_addr=mr_b.base_addr + 16,
                    rkey=mr_b.rkey, compare_add=24)
        yield qa.post_send(wr)
        return struct.unpack("<Q", wr.return_data)[0], mr_b.read(16, 8)

    old, raw = pair["cluster"].run_process(proc())
    assert old == 1000
    assert struct.unpack("<Q", raw)[0] == 1024


def test_atomic_with_wrong_sized_sgl_rejected():
    cluster = Cluster(1)

    def proc():
        node = cluster[0]
        pd = node.device.alloc_pd()
        mr = yield from node.device.reg_mr(pd, 64, Access.ALL)
        with pytest.raises(ValueError, match="8 bytes"):
            SendWR(Opcode.FETCH_ADD, sgl=[Sge(mr, 0, 4)], rkey=1)

    cluster.run_process(proc())


def test_fetch_add_wraps_at_64_bits(pair):
    mr_b, qa = pair["mr_b"], pair["qa"]

    def proc():
        mr_b.write(0, struct.pack("<Q", (1 << 64) - 1))
        wr = SendWR(Opcode.FETCH_ADD, remote_addr=mr_b.base_addr,
                    rkey=mr_b.rkey, compare_add=2)
        yield qa.post_send(wr)
        return struct.unpack("<Q", mr_b.read(0, 8))[0]

    assert pair["cluster"].run_process(proc()) == 1


# ------------------------------------------------------------ sgl-less read --


def test_read_without_sgl_uses_read_length(pair):
    mr_b, qa = pair["mr_b"], pair["qa"]

    def proc():
        mr_b.write(32, b"inline-read-target")
        wr = SendWR(Opcode.READ, remote_addr=mr_b.base_addr + 32,
                    rkey=mr_b.rkey, read_length=18)
        yield qa.post_send(wr)
        return wr.return_data

    assert pair["cluster"].run_process(proc()) == b"inline-read-target"


# ------------------------------------------------------------------ CQ --


def test_cq_wait_wc_counts_polled():
    cluster = Cluster(1)
    cq = cluster[0].device.create_cq()
    sim = cluster.sim

    def proc():
        event = cq.wait_wc()
        cq.push(WorkCompletion(1, WcStatus.SUCCESS, Opcode.WRITE))
        wc = yield event
        return wc.wr_id

    assert cluster.run_process(proc()) == 1
    assert cq.polled == 1
    assert cq.pushed == 1


def test_cq_poll_respects_max_entries():
    cluster = Cluster(1)
    cq = cluster[0].device.create_cq()
    for index in range(10):
        cq.push(WorkCompletion(index, WcStatus.SUCCESS, Opcode.WRITE))
    first = cq.poll(max_entries=3)
    assert [wc.wr_id for wc in first] == [0, 1, 2]
    rest = cq.poll(max_entries=100)
    assert len(rest) == 7


def test_wc_completed_at_records_push_time():
    cluster = Cluster(1)
    sim = cluster.sim
    cq = cluster[0].device.create_cq()

    def proc():
        yield sim.timeout(42.5)
        cq.push(WorkCompletion(9, WcStatus.SUCCESS, Opcode.SEND))

    cluster.run_process(proc())
    wc = cq.poll()[0]
    assert wc.completed_at == 42.5


def test_write_imm_requires_imm_value():
    with pytest.raises(ValueError, match="immediate"):
        SendWR(Opcode.WRITE_IMM, inline_data=b"x", rkey=1)


def test_imm_must_fit_32_bits():
    with pytest.raises(ValueError, match="32 bits"):
        SendWR(Opcode.WRITE_IMM, inline_data=b"x", rkey=1, imm=1 << 32)


def test_sge_bounds_validated():
    cluster = Cluster(1)

    def proc():
        node = cluster[0]
        pd = node.device.alloc_pd()
        mr = yield from node.device.reg_mr(pd, 100, Access.ALL)
        with pytest.raises(ValueError):
            Sge(mr, 90, 20)
        with pytest.raises(ValueError):
            Sge(mr, -1, 4)

    cluster.run_process(proc())
