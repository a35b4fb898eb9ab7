"""Queue pairs and the RDMA datapath.

Each posted work request becomes an independent simulation process that
walks the real pipeline: doorbell → local RNIC (QP/key/PTE lookups +
DMA) → wire → remote RNIC (lookups + DMA + actual memory access) →
ACK → CQE.  SRAM-cache misses are spent inside the RNIC pipeline, so
they consume NIC throughput exactly as on real hardware.

Supported: RC (all ops incl. one-sided and atomics), UC (write/send,
unacked), UD (send only, MTU-bound, per-WR destination).
"""

from __future__ import annotations

from typing import Optional, Tuple

from ..hw.fabric import TransferDropped
from ..sim import Process, Resource, Simulator, Store
from .fastpath import try_fast_post
from .wr import (
    _ATOMICS,
    ACK_BYTES,
    Access,
    Opcode,
    RecvWR,
    SendWR,
    UD_MTU,
    WcStatus,
    WorkCompletion,
    wire_bytes,
)

__all__ = ["QueuePair", "SharedReceiveQueue"]

_RESPONSE_OPS = (Opcode.READ,) + _ATOMICS      # return data, not an ACK
# Opcodes that carry an outbound payload (hoisted: the tuple would
# otherwise be rebuilt from three attribute loads per executed WR).
_PAYLOAD_OPS = (Opcode.WRITE, Opcode.WRITE_IMM, Opcode.SEND)


class SharedReceiveQueue:
    """An SRQ: one recv-buffer pool shared by many QPs (Verbs SRQ)."""

    def __init__(self, sim: Simulator):
        self._store = Store(sim)
        self.posted = 0

    def post_recv(self, wr: RecvWR) -> None:
        """Add one receive buffer to the shared pool."""
        self.posted += 1
        self._store.put(wr)

    def get(self):
        """Event yielding the next posted RecvWR (FIFO)."""
        return self._store.get()

    def __len__(self) -> int:
        return len(self._store)


class QueuePair:
    """One send/recv queue pair on a device."""

    def __init__(
        self,
        device,
        qpn: int,
        qp_type: str,
        pd,
        send_cq,
        recv_cq,
        max_send_wr: int = 1024,
        srq: Optional[SharedReceiveQueue] = None,
    ):
        if qp_type not in ("RC", "UC", "UD"):
            raise ValueError(f"unknown QP type {qp_type!r}")
        self.device = device
        self.sim: Simulator = device.sim
        self.qpn = qpn
        self.qp_type = qp_type
        self._is_rc = qp_type == "RC"
        self.pd = pd
        self.send_cq = send_cq
        self.recv_cq = recv_cq
        self.srq = srq
        self._own_rq: Store = Store(self.sim)
        self._sq_slots = Resource(self.sim, capacity=max_send_wr)
        # RC/UC responder ordering: operations of one QP execute at the
        # remote node in *posting order* (the transport guarantee LITE's
        # ring protocol and FaRM-style memory polling both rely on).
        # Implemented as a completion chain assigned at post time; UD is
        # unordered by spec.
        self._last_remote_done = None
        self.remote: Optional[Tuple[int, int]] = None  # (node_id, qpn)
        # Lazily built per-(QP, op, size-class) cost table for the
        # run-to-completion fast path (see verbs/fastpath.py).
        self._fp_table = None
        self.posted_sends = 0
        self.posted_recvs = 0
        self.rnr_stalls = 0
        self.retries = 0
        # Collapsed IB state machine: the RESET->INIT->RTR->RTS ladder is
        # folded into "RTS" (connection setup cost is paid elsewhere);
        # what matters for failure semantics is RTS vs ERROR.
        self.state = "RTS"
        params = device.params
        self.timeout_us = params.qp_timeout_us
        self.retry_cnt = params.qp_retry_cnt
        self.rnr_retry = params.qp_rnr_retry

    # -- connection -----------------------------------------------------
    def bringup(self):
        """Pay this endpoint's connection-setup cost (generator).

        The collapsed state machine folds RESET->INIT->RTR->RTS into
        "RTS" for failure semantics, which historically made every
        connection free and instant.  The control plane still has to
        pay for the ladder: one ibv_create_qp kernel call plus three
        ibv_modify_qp hops, charged in the caller's timeline — exactly
        the cost QP pooling (cluster/qp_pool.py) exists to amortize.
        """
        params = self.device.params
        cost = params.qp_create_us + 3 * params.qp_transition_us
        yield self.sim.timeout(cost)
        self.device.node.cpu.charge("qp-bringup", cost)

    def connect(self, remote_node_id: int, remote_qpn: int) -> None:
        """Point this RC/UC QP at its remote peer (RTS)."""
        if self.qp_type == "UD":
            raise ValueError("UD QPs are connectionless")
        self.remote = (remote_node_id, remote_qpn)

    def modify_qp(self, timeout_us: Optional[float] = None,
                  retry_cnt: Optional[int] = None,
                  rnr_retry: Optional[int] = None) -> None:
        """Adjust the transport retry attributes (ibv_modify_qp subset)."""
        if timeout_us is not None:
            self.timeout_us = timeout_us
        if retry_cnt is not None:
            self.retry_cnt = retry_cnt
        if rnr_retry is not None:
            self.rnr_retry = rnr_retry

    def reset(self) -> None:
        """Recover an errored QP (RESET -> ... -> RTS cycle, collapsed).

        WRs posted while the QP sat in ERROR have already flushed; the
        connection itself (peer addressing) is retained, as LITE re-uses
        its shared QPs after recovery rather than re-handshaking.
        """
        self.state = "RTS"

    def _enter_error(self) -> None:
        self.state = "ERROR"

    # -- receive side ----------------------------------------------------
    def post_recv(self, wr: RecvWR) -> None:
        """Post a receive buffer (to the SRQ when attached)."""
        self.posted_recvs += 1
        if self.srq is not None:
            self.srq.post_recv(wr)
        else:
            self._own_rq.put(wr)

    def _rq_get(self):
        source = self.srq if self.srq is not None else self._own_rq
        if len(source) == 0:
            self.rnr_stalls += 1
        return source.get()

    def _rq_len(self) -> int:
        return len(self.srq if self.srq is not None else self._own_rq)

    # -- send side ---------------------------------------------------------
    def _prepare(self, wr: SendWR, dst: Optional[Tuple[int, int]]):
        """Validate a WR and claim its ordering-chain slot; returns dst."""
        if self.qp_type == "UD":
            if dst is None:
                raise ValueError("UD post_send needs a destination address handle")
            if wr.opcode is not Opcode.SEND:
                raise ValueError("UD supports only SEND")
            if wr.length > UD_MTU:
                raise ValueError(f"UD payload {wr.length} exceeds MTU {UD_MTU}")
        else:
            if self.remote is None:
                raise ValueError("QP is not connected")
            dst = self.remote
        if self.qp_type == "UC" and wr.opcode in _RESPONSE_OPS:
            raise ValueError(f"UC does not support {wr.opcode.value}")
        for sge in wr.sgl:
            if sge.mr.pd is not self.pd:
                raise ValueError("sge MR belongs to a different PD")
            if sge.mr.deregistered:
                raise ValueError("sge MR is deregistered")
        self.posted_sends += 1
        predecessor = None
        if self.qp_type != "UD":
            predecessor = self._last_remote_done
            self._last_remote_done = self.sim.event()
            wr._order_done = self._last_remote_done
        return dst, predecessor

    def post_send(self, wr: SendWR, dst: Optional[Tuple[int, int]] = None) -> Process:
        """Post a work request; returns the in-flight op as a Process.

        ``dst`` is the (node_id, qpn) address handle, required for UD and
        ignored for connected QPs.
        """
        dst, predecessor = self._prepare(wr, dst)
        return self.sim.process(
            self._execute(wr, dst, predecessor, attempt=self._is_rc),
            name=f"qp{self.qpn}-send",
        )

    def post_send_generator(self, wr: SendWR) -> Process:
        """:meth:`post_send` straight onto the generator path, for a
        caller whose own post-time commit attempt was just declined
        (LITE's ``_post``): the WR must not pay a second reject."""
        dst, predecessor = self._prepare(wr, None)
        return self.sim.process(
            self._execute(wr, dst, predecessor), name=f"qp{self.qpn}-send"
        )

    def post_send_batch(
        self, wrs, dst: Optional[Tuple[int, int]] = None
    ) -> list:
        """Post a chain of work requests behind shared doorbells.

        Models ibv_post_send with a linked WR list (§5.2 amortization):
        WRs are chunked by ``params.doorbell_batch``, the first WR of
        each chunk pays the single MMIO doorbell and the followers ride
        it.  Posting order — and therefore the RC/UC remote-execution
        order — is preserved across the whole chain.  Returns one
        Process per WR.  With ``doorbell_batch=1`` this is timing-
        identical to a loop of :meth:`post_send`.
        """
        batch = max(1, self.device.params.doorbell_batch)
        processes = []
        doorbell = None
        for index, wr in enumerate(wrs):
            wr_dst, predecessor = self._prepare(wr, dst)
            doorbell_wait = doorbell_fire = None
            if batch > 1:
                if index % batch == 0:
                    doorbell = self.sim.event()
                    doorbell_fire = doorbell
                else:
                    doorbell_wait = doorbell
            processes.append(
                self.sim.process(
                    self._execute(
                        wr, wr_dst, predecessor, doorbell_wait, doorbell_fire
                    ),
                    name=f"qp{self.qpn}-send",
                )
            )
        return processes

    # -- datapath ------------------------------------------------------------
    def _gather(self, wr: SendWR):
        data = wr.inline_data
        if data is not None:
            # Zero-copy: inline payloads pass through as-is (bytes or
            # memoryview); the sink copies once at scatter time.
            if isinstance(data, (bytes, memoryview)):
                return data
            return bytes(data)
        sgl = wr.sgl
        if len(sgl) == 1:
            sge = sgl[0]
            return sge.mr.read(sge.offset, sge.length)
        return b"".join(sge.mr.read(sge.offset, sge.length) for sge in sgl)

    def _scatter(self, wr: SendWR, payload) -> None:
        if not wr.sgl:
            wr.return_data = payload
            return
        if len(wr.sgl) == 1 and len(payload) == wr.sgl[0].length:
            sge = wr.sgl[0]
            sge.mr.write(sge.offset, payload)
            return
        view = memoryview(payload)
        cursor = 0
        for sge in wr.sgl:
            sge.mr.write(sge.offset, view[cursor : cursor + sge.length])
            cursor += sge.length

    def _local_lookup_cost(self, wr: SendWR, rnic) -> float:
        """SRAM cost of resolving the local QP + every local SGE."""
        cost = rnic.qp_lookup_cost(self.qpn)
        for sge in wr.sgl:
            cost += rnic.key_lookup_cost(sge.mr.lkey)
            cost += rnic.pte_lookup_cost(sge.mr.page_ids(sge.offset, sge.length))
        return cost

    def _transfer_retry(self, fabric, src: int, dst: int, nbytes: int):
        """One wire leg with RC retransmission (generator).

        Returns ``"ok"`` on delivery, ``"lost"`` for unacked transports
        (UC/UD: the sender never learns), or ``"error"`` when an RC QP
        exhausts ``retry_cnt`` — the QP enters the ERROR state, as per
        the IB spec.  Each failed RC attempt waits the local ACK timeout
        before retransmitting.
        """
        attempts = 0
        while True:
            try:
                yield from fabric.transfer(src, dst, nbytes, self.qpn)
                return "ok"
            except TransferDropped:
                if not self._is_rc:
                    return "lost"
                attempts += 1
                if attempts > self.retry_cnt:
                    self._enter_error()
                    return "error"
                self.retries += 1
                yield self.sim.timeout(self.timeout_us)

    def _execute(self, wr: SendWR, dst: Tuple[int, int], predecessor=None,
                 doorbell_wait=None, doorbell_fire=None, attempt=False):
        if attempt:
            # The start hop of a WR that ``post_send`` posted on an RC QP:
            # the instant and queue position the run-to-completion commit
            # is tried from (verbs/fastpath.py).  A committed WR is
            # arithmetic plus a few dispatches; this process only waits
            # for its completion handle.
            handle = try_fast_post(self, wr, None, predecessor, True)
            if handle is not None:
                return (yield handle)
        sim, prices = self.sim, self.device.params.prices
        fabric = self.device.node.fabric
        src_node = self.device.node.node_id
        dst_node, dst_qpn = dst

        tracer = sim.tracer
        span = None
        if tracer is not None:
            # Whole WR lifetime, including the SQ-slot wait.
            span = tracer.begin("qp.wqe", node=src_node, nbytes=wr.length,
                                qpn=self.qpn, opcode=wr.opcode.value,
                                dst=dst_node)
        yield self._sq_slots.request()
        status = WcStatus.WR_FLUSH_ERR
        byte_len = 0
        try:
            if self.state == "ERROR":
                # QP sits in the error state: flush without touching the
                # wire (requires a reset() to recover).
                status = WcStatus.WR_FLUSH_ERR
            else:
                status, byte_len = yield from self._execute_rts(
                    wr, fabric, src_node, dst_node, dst_qpn, predecessor,
                    doorbell_wait, doorbell_fire
                )

            # Requester CQE.
            if wr.signaled or status is not WcStatus.SUCCESS:
                cspan = (tracer.begin("cq.completion", node=src_node)
                         if tracer is not None else None)
                yield sim.timeout(prices.completion)
                wc = WorkCompletion(
                    wr_id=wr.wr_id,
                    status=status,
                    opcode=wr.opcode,
                    byte_len=byte_len,
                    imm=wr.imm,
                    qp_num=self.qpn,
                )
                if self.send_cq is not None:
                    self.send_cq.push(wc)
                if cspan is not None:
                    tracer.end(cspan)
            return status
        finally:
            # Failure paths must still unblock the responder-ordering
            # chain and any delivery waiter, or successors deadlock.
            done = wr._order_done
            if done is not None and not done.triggered:
                done.succeed()
            if wr.delivered is not None and not wr.delivered.triggered:
                wr.delivered.succeed(status)
            # A batch leader that flushed before ringing must still wake
            # its followers, or they wait on the doorbell forever.
            if doorbell_fire is not None and not doorbell_fire.triggered:
                doorbell_fire.succeed()
            self._sq_slots.release()
            if span is not None:
                tracer.end(span, outcome=status.value)

    def _execute_rts(self, wr: SendWR, fabric, src_node: int, dst_node: int,
                     dst_qpn: int, predecessor, doorbell_wait=None,
                     doorbell_fire=None):
        sim, prices = self.sim, self.device.params.prices
        tracer = sim.tracer

        # 1. Doorbell: MMIO post over PCIe.  In a batched post the chunk
        # leader pays the one MMIO and rings the shared event; followers
        # ride it for free.
        if doorbell_wait is None:
            dspan = (tracer.begin("qp.doorbell", node=src_node, qpn=self.qpn)
                     if tracer is not None else None)
            yield sim.timeout(prices.doorbell)
            if doorbell_fire is not None:
                doorbell_fire.succeed()
            if dspan is not None:
                tracer.end(dspan)
        elif not doorbell_wait.processed:
            dspan = (tracer.begin("qp.doorbell", node=src_node, qpn=self.qpn,
                                  chained=True)
                     if tracer is not None else None)
            yield doorbell_wait
            if dspan is not None:
                tracer.end(dspan)
        elif tracer is not None:
            tracer.instant("qp.doorbell", node=src_node, qpn=self.qpn,
                           chained=True)

        # 2. Local RNIC: lookups + payload DMA from host memory.
        rnic = self.device.rnic
        opcode = wr.opcode
        payload = b""
        outbound_dma = 0
        if opcode in _PAYLOAD_OPS:
            payload = self._gather(wr)
            outbound_dma = len(payload)
        cost = self._local_lookup_cost(wr, rnic)
        yield from rnic.process(cost, dma_bytes=outbound_dma)

        # 3. Wire out: headers per MTU; READ/atomics send a request only.
        if opcode is Opcode.READ:
            out_bytes = wire_bytes(0)
        elif opcode in _ATOMICS:
            out_bytes = wire_bytes(16)  # operands ride in the header
        else:
            out_bytes = wire_bytes(len(payload))
        if self.qp_type == "UD":
            out_bytes += prices.ud_header
        sent = yield from self._transfer_retry(
            fabric, src_node, dst_node, out_bytes
        )
        if sent == "error":
            return WcStatus.RETRY_EXC_ERR, 0
        if sent == "lost":
            # UC/UD silent loss: the request dies on the wire but the
            # sender's completion still means "sent".
            return WcStatus.SUCCESS, 0

        # 4. Remote execution: for RC/UC, strictly after the
        # previous WR on this QP finished executing remotely.
        remote_device = fabric.nodes[dst_node].device
        if predecessor is not None and not predecessor.processed:
            yield predecessor
        try:
            status, byte_len, return_payload = yield from remote_device.inbound(
                opcode, src_node, self.qpn, dst_qpn, wr.rkey, wr.remote_addr,
                payload, wr.imm, wr.length, wr.compare_add, wr.swap,
                self.qp_type,
            )
        finally:
            done = wr._order_done
            if done is not None and not done.triggered:
                done.succeed()

        if wr.delivered is not None and not wr.delivered.triggered:
            wr.delivered.succeed(status)

        if status is WcStatus.RNR_RETRY_EXC_ERR and self._is_rc:
            # Receiver stayed not-ready past the RNR budget: fatal for
            # the connection, exactly like a transport retry blowout.
            self._enter_error()
            return status, 0

        # 5. Response path: RC acks everything; READ/atomics return data.
        if opcode in _RESPONSE_OPS and status is WcStatus.SUCCESS:
            back = yield from self._transfer_retry(
                fabric, dst_node, src_node, wire_bytes(len(return_payload))
            )
            if back == "error":
                return WcStatus.RETRY_EXC_ERR, 0
            # Local RNIC scatters the response into the SGL (a READ's
            # pass re-reads the QP context; an atomic's 8 bytes do not).
            cost = rnic.qp_lookup_cost(self.qpn) if opcode is Opcode.READ else 0.0
            yield from rnic.process(cost, dma_bytes=len(return_payload))
            self._scatter(wr, return_payload)
        elif self._is_rc:
            back = yield from self._transfer_retry(
                fabric, dst_node, src_node, ACK_BYTES
            )
            if back == "error":
                return WcStatus.RETRY_EXC_ERR, 0
            yield sim.timeout(prices.ack)
        # UC/UD: fire and forget; completion means "sent".

        return status, byte_len

    def __repr__(self) -> str:
        return (
            f"QP(qpn={self.qpn}, {self.qp_type}, node={self.device.node.node_id}, "
            f"remote={self.remote})"
        )
