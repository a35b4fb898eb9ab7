"""The Verbs device: registration, QP/CQ creation, inbound execution.

This is the ``ib_device`` + driver of one node.  Registration costs are
paid in the caller's timeline (they are blocking syscalls on real
hardware — Figure 8 measures them); the inbound path implements the
responder half of every RDMA operation, including permission checks and
SRAM-cache accounting on the responder RNIC.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ..hw.memory import PhysRegion
from .cq import CompletionQueue
from .mr import MemoryRegion
from .qp import _ATOMICS, QueuePair, SharedReceiveQueue
from .wr import (_NEED_REMOTE_ATOMIC, _NEED_REMOTE_READ, _NEED_REMOTE_WRITE,
                 Access, Opcode, RecvWR, WcStatus, WorkCompletion, atomic_word)

__all__ = ["Device", "ProtectionDomain"]

# Virtual addresses start high so they can never collide with physical
# addresses used by kernel (physical) MRs.
_VA_BASE = 1 << 44

_WRITES = (Opcode.WRITE, Opcode.WRITE_IMM)


class ProtectionDomain:
    """Groups MRs and QPs that may be used together."""

    def __init__(self, device: "Device"):
        self.device = device

    def __repr__(self) -> str:
        return f"PD(node{self.device.node.node_id})"


class Device:
    """Per-node Verbs device."""

    def __init__(self, node):
        self.node = node
        self.sim = node.sim
        self.params = node.params
        self.rnic = node.rnic
        self.mrs_by_lkey: Dict[int, MemoryRegion] = {}
        self.mrs_by_rkey: Dict[int, MemoryRegion] = {}
        self.qps: Dict[int, QueuePair] = {}
        self._va_next = _VA_BASE + (node.node_id << 40)
        self.mr_count = 0

    # -- object creation --------------------------------------------------
    def alloc_pd(self) -> ProtectionDomain:
        """Allocate a protection domain."""
        return ProtectionDomain(self)

    def create_cq(self, depth: int = 4096, name: str = "cq") -> CompletionQueue:
        """Create a completion queue."""
        return CompletionQueue(self.sim, depth=depth, name=name)

    def create_srq(self) -> SharedReceiveQueue:
        """Create a shared receive queue."""
        return SharedReceiveQueue(self.sim)

    def create_qp(
        self,
        pd: ProtectionDomain,
        qp_type: str = "RC",
        send_cq="auto",
        recv_cq="auto",
        max_send_wr: int = 1024,
        srq: Optional[SharedReceiveQueue] = None,
    ) -> QueuePair:
        """Create a QP.  Pass ``send_cq=None`` to suppress send CQEs
        entirely (LITE relies on replies instead of polling send state,
        §5.1); the default ``"auto"`` creates a private CQ."""
        qpn = next(self.sim.ids.qpn)
        qp = QueuePair(
            self,
            qpn,
            qp_type,
            pd,
            self.create_cq() if send_cq == "auto" else send_cq,
            self.create_cq() if recv_cq == "auto" else recv_cq,
            max_send_wr=max_send_wr,
            srq=srq,
        )
        self.qps[qpn] = qp
        return qp

    @staticmethod
    def connect(qp_a: QueuePair, qp_b: QueuePair) -> None:
        """Transition a pair of RC/UC QPs to RTS toward each other."""
        qp_a.connect(qp_b.device.node.node_id, qp_b.qpn)
        qp_b.connect(qp_a.device.node.node_id, qp_a.qpn)

    def destroy_qp(self, qp: QueuePair) -> None:
        """Tear down a QP (ibv_destroy_qp): drop the device registration
        and the peer address.  Disconnecting the *peer* end is the
        caller's responsibility — the QP pool always destroys conns as
        pairs."""
        qp.remote = None
        self.qps.pop(qp.qpn, None)

    # -- memory registration -----------------------------------------------
    def reg_mr(
        self,
        pd: ProtectionDomain,
        size: int,
        access: Access = Access.ALL,
        region: Optional[PhysRegion] = None,
    ):
        """Register a virtual-address MR (generator; pays pinning cost).

        Allocates backing memory unless an existing ``region`` is given
        (registering already-allocated application memory).  Returns the
        MR.
        """
        params = self.params
        if region is None:
            region = self.node.memory.alloc(size)
        elif region.size < size:
            raise ValueError("backing region smaller than MR size")
        pages = (size + params.page_size - 1) // params.page_size
        # ibv_reg_mr: syscall + get_user_pages walk pinning every page.
        yield self.sim.timeout(
            params.mr_register_base_us + pages * params.mr_pin_page_us
        )
        keys = self.sim.ids.key
        lkey = next(keys)
        rkey = next(keys)
        mr = MemoryRegion(
            self,
            pd,
            lkey=lkey,
            rkey=rkey,
            base_addr=self._va_next,
            size=size,
            access=access,
            region=region,
            physical=False,
        )
        self._va_next += (size + params.page_size - 1) // params.page_size * params.page_size
        self._va_next += params.page_size  # guard page
        self.mrs_by_lkey[lkey] = mr
        self.mrs_by_rkey[rkey] = mr
        self.mr_count += 1
        return mr

    def reg_phys_mr(self, pd: ProtectionDomain, access: Access = Access.ALL):
        """Kernel-only: register one MR over all physical memory (§4.1).

        No page pinning (physical pages cannot be swapped under the
        kernel), no PTEs for the RNIC to cache, one key record total.
        """
        yield self.sim.timeout(self.params.mr_register_base_us)
        keys = self.sim.ids.key
        lkey = next(keys)
        rkey = next(keys)
        mr = MemoryRegion(
            self,
            pd,
            lkey=lkey,
            rkey=rkey,
            base_addr=0,
            size=self.node.memory.capacity,
            access=access,
            region=None,
            physical=True,
        )
        self.mrs_by_lkey[lkey] = mr
        self.mrs_by_rkey[rkey] = mr
        self.mr_count += 1
        return mr

    def dereg_mr(self, mr: MemoryRegion, free_backing: bool = True):
        """Deregister (generator; pays per-page unpin for virtual MRs)."""
        if mr.deregistered:
            raise ValueError("MR already deregistered")
        params = self.params
        if not mr.physical:
            yield self.sim.timeout(
                params.mr_deregister_base_us + mr.num_pages() * params.mr_unpin_page_us
            )
        else:
            yield self.sim.timeout(params.mr_deregister_base_us)
        mr.deregistered = True
        self.mrs_by_lkey.pop(mr.lkey, None)
        self.mrs_by_rkey.pop(mr.rkey, None)
        self.mr_count -= 1
        page_ids = []
        if mr.region is not None:
            page_ids = mr.region.page_ids(params.page_size)
        self.rnic.invalidate_mr(mr.lkey, page_ids)
        self.rnic.invalidate_mr(mr.rkey)
        if free_backing and mr.region is not None and not mr.region.freed:
            self.node.memory.free(mr.region)

    # -- responder path -------------------------------------------------------
    def _resolve_remote(
        self, rkey: int, addr: int, nbytes: int, need: int
    ) -> Tuple[Optional[MemoryRegion], WcStatus]:
        mr = self.mrs_by_rkey.get(rkey)
        if mr is None or mr.deregistered:
            return None, WcStatus.REM_INV_REQ_ERR
        if not (mr.base_addr <= addr
                and addr + nbytes <= mr.base_addr + mr.size):
            return None, WcStatus.REM_ACCESS_ERR
        if not (mr._access_bits & need):
            return None, WcStatus.REM_ACCESS_ERR
        return mr, WcStatus.SUCCESS

    def inbound(
        self,
        opcode: Opcode,
        src_node: int,
        src_qpn: int,
        dst_qpn: int,
        rkey: int,
        remote_addr: int,
        payload: bytes,
        imm: Optional[int],
        length: int,
        compare_add: int,
        swap: int,
        qp_type: str,
    ):
        """Responder-side execution of one inbound operation (generator).

        Returns ``(status, byte_len, return_payload)``.
        """
        rnic = self.rnic
        cost = rnic.qp_lookup_cost(dst_qpn)
        if opcode in _WRITES:
            nbytes, need = len(payload), _NEED_REMOTE_WRITE
        elif opcode is Opcode.READ:
            nbytes, need = length, _NEED_REMOTE_READ
        elif opcode in _ATOMICS:
            nbytes, need = 8, _NEED_REMOTE_ATOMIC
        elif opcode is Opcode.SEND:
            yield from rnic.process(cost)
            status = yield from self._deliver_recv(
                dst_qpn, src_node, src_qpn, payload, imm, Opcode.RECV,
                byte_len=len(payload),
            )
            return status, len(payload), b""
        else:
            raise ValueError(f"unhandled inbound opcode {opcode}")

        # One responder pass: QP, MR record and PTEs, then the DMA.
        mr, status = self._resolve_remote(rkey, remote_addr, nbytes, need)
        if status is not WcStatus.SUCCESS:
            yield from rnic.process(cost)
            return status, 0, b""
        offset = remote_addr - mr.base_addr
        cost += rnic.key_lookup_cost(rkey)
        cost += rnic.pte_lookup_cost(mr.page_ids(offset, nbytes))
        yield from rnic.process(cost, dma_bytes=nbytes)
        try:
            if opcode is Opcode.READ:
                return WcStatus.SUCCESS, nbytes, mr.read(offset, nbytes)
            if opcode in _ATOMICS:
                # Read-modify-write with no intervening yield: atomic in
                # the event loop, like the RNIC's atomic execution unit.
                old = mr.read(offset, 8)
                mr.write(offset, atomic_word(opcode, old, compare_add, swap))
                return WcStatus.SUCCESS, 8, old
            mr.write(offset, payload)
        except ValueError:
            # Physical-MR access to memory that is no longer a live
            # allocation (e.g. a reply landing after the client freed
            # its slot): NAK like real hardware, don't crash.
            return WcStatus.REM_ACCESS_ERR, 0, b""
        if opcode is Opcode.WRITE_IMM:
            status = yield from self._deliver_recv(
                dst_qpn, src_node, src_qpn, b"", imm, Opcode.RECV_IMM,
                byte_len=nbytes,
            )
            if status is WcStatus.RNR_RETRY_EXC_ERR:
                return status, 0, b""
        return WcStatus.SUCCESS, nbytes, b""

    def _deliver_recv(
        self,
        dst_qpn: int,
        src_node: int,
        src_qpn: int,
        payload: bytes,
        imm: Optional[int],
        opcode: Opcode,
        byte_len: int,
    ):
        """Consume a recv WR on the target QP and raise a recv CQE."""
        qp = self.qps.get(dst_qpn)
        if qp is None:
            return WcStatus.REM_INV_REQ_ERR
        if qp.rnr_retry < 7:
            # Bounded receiver-not-ready policy: NAK + rnr_timer wait per
            # attempt, giving up after rnr_retry retries.  The default
            # (7) is the IB "retry forever" sentinel, which keeps the
            # seed's block-until-posted behavior.
            tries = 0
            while len(qp.rq) == 0:
                tries += 1
                if tries > qp.rnr_retry:
                    qp.rnr_stalls += 1
                    return WcStatus.RNR_RETRY_EXC_ERR
                qp.rnr_stalls += 1
                yield self.sim.timeout(self.params.qp_rnr_timer_us)
        recv_wr: RecvWR = yield qp._rq_get()
        status = WcStatus.SUCCESS
        if payload:
            if recv_wr.mr is None or recv_wr.length < len(payload):
                status = WcStatus.LOC_LEN_ERR
            else:
                pages = recv_wr.mr.page_ids(recv_wr.offset, len(payload))
                cost = self.rnic.key_lookup_cost(recv_wr.mr.lkey)
                cost += self.rnic.pte_lookup_cost(pages)
                yield from self.rnic.process(cost, dma_bytes=len(payload))
                recv_wr.mr.write(recv_wr.offset, payload)
        tracer = self.sim.tracer
        cspan = (tracer.begin("cq.completion", node=self.node.node_id)
                 if tracer is not None else None)
        yield self.sim.timeout(self.params.prices.completion)
        if qp.recv_cq is not None:
            qp.recv_cq.push(WorkCompletion(
                wr_id=recv_wr.wr_id,
                status=status,
                opcode=opcode,
                byte_len=byte_len if status is WcStatus.SUCCESS else 0,
                imm=imm,
                qp_num=dst_qpn,
                src_node=src_node,
                src_qpn=src_qpn,
            ))
        if cspan is not None:
            tracer.end(cspan)
        return status
