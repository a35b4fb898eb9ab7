"""FaSST-style RPC (Kalia et al., OSDI '16): two UD sends per call.

Each endpoint owns one UD QP and a master polling loop ("coroutine
scheduler") that drains the receive CQ.  On the server, the master
executes the RPC handler *inline in the polling loop* — great for the
tiny handlers FaSST benchmarks, but a serialization point the LITE
paper criticizes (§5.3): a slow handler stalls all request dispatch.

UD is unreliable and MTU-bound: requests and replies must fit in 4 KB,
and there is no one-sided RDMA at all (§6.1's FaSST row).
"""

from __future__ import annotations

import itertools
import struct
from typing import Callable, Dict, Optional

from ..verbs import Access, Opcode, RecvWR, SendWR, UD_MTU, WcStatus

__all__ = ["FasstEndpoint"]

_HDR = 16  # kind(4) token(4) total_len(4) frag_off(4)
_FRAG_BYTES = UD_MTU - _HDR
_KIND_REQ = 1
_KIND_REP = 2

# UD is unreliable: FaSST implements loss detection, sequencing and
# credit management in software — a per-datagram cost at each end.
_SW_RELIABILITY_US = 0.20


class FasstEndpoint:
    """One FaSST process: UD QP + master poller, client and server roles."""

    def __init__(self, node, handler: Optional[Callable[[bytes], bytes]] = None):
        self.node = node
        self.sim = node.sim
        self.params = node.params
        self.handler = handler
        self.pd = node.device.alloc_pd()
        self.mr = None
        self.ud_qp = None
        self._pending: Dict[int, object] = {}
        self._tokens = itertools.count(start=1)
        self._master = None
        # wr_id -> landing offset for every posted recv buffer.
        self._posted_slots: Dict[int, int] = {}
        self._next_slot = 0
        self.requests_served = 0
        self.calls_sent = 0

    def build(self):
        """Register buffers, stock the RQ, start the master (generator)."""
        device = self.node.device
        self.mr = yield from device.reg_mr(self.pd, 1024 * 1024, Access.ALL)
        self.ud_qp = device.create_qp(self.pd, "UD")
        self._restock(64)
        self._master = self.sim.process(self._master_loop(), name="fasst-master")

    def _restock(self, count: int) -> None:
        slots_total = (1024 * 1024) // UD_MTU
        for _ in range(count):
            offset = (self._next_slot % slots_total) * UD_MTU
            wr = RecvWR(mr=self.mr, offset=offset, length=UD_MTU,
                        wr_id=self._next_slot)
            self._next_slot += 1
            self._posted_slots[wr.wr_id] = offset
            self.ud_qp.post_recv(wr)

    def address(self):
        """This endpoint's UD address handle (node, qpn)."""
        return (self.node.node_id, self.ud_qp.qpn)

    def _send_message(self, dst_addr, kind: int, token: int,
                      payload: bytes):
        """Ship a message as one or more UD datagrams (generator).

        Pays the software-reliability bookkeeping per datagram sent.
        """
        total = len(payload)
        offset = 0
        while True:
            piece = payload[offset : offset + _FRAG_BYTES]
            yield self.sim.timeout(_SW_RELIABILITY_US)
            self.node.cpu.charge("fasst-sw", _SW_RELIABILITY_US)
            datagram = struct.pack("<IIII", kind, token, total, offset) + piece
            wr = SendWR(Opcode.SEND, inline_data=datagram, signaled=False)
            self.ud_qp.post_send(wr, dst=dst_addr)
            offset += len(piece)
            if offset >= total:
                break

    def call(self, dst: "FasstEndpoint", payload: bytes):
        """One RPC to ``dst`` (generator; returns the reply bytes)."""
        if len(payload) > 2 * _FRAG_BYTES:
            raise ValueError("FaSST requests must fit one UD MTU")
        token = next(self._tokens)
        event = self.sim.event()
        self._pending[token] = event
        yield from self._send_message(dst.address(), _KIND_REQ, token, payload)
        self.calls_sent += 1
        reply = yield event
        return reply

    def _master_loop(self):
        """The coroutine master: poll CQ, dispatch, run handlers inline."""
        cpu = self.node.cpu
        while True:
            wc = yield from cpu.busy_wait(self.ud_qp.recv_cq.wait_wc(), tag="fasst-master")
            # Each received datagram landed in some recv slot; find it by
            # wr_id bookkeeping (modelled as a fixed small cost).
            yield self.sim.timeout(0.05 + _SW_RELIABILITY_US)
            cpu.charge("fasst-master", 0.05 + _SW_RELIABILITY_US)
            slot_offset = self._slot_offset_of(wc)
            header = self.mr.read(slot_offset, _HDR)
            kind, token, total, frag_off = struct.unpack("<IIII", header)
            piece = self.mr.read(slot_offset + _HDR, wc.byte_len - _HDR)
            replacement = RecvWR(mr=self.mr, offset=slot_offset, length=UD_MTU,
                                 wr_id=wc.wr_id)
            self._posted_slots[replacement.wr_id] = slot_offset
            self.ud_qp.post_recv(replacement)
            body = self._reassemble(kind, token, total, frag_off, piece)
            if body is None:
                continue  # waiting for more fragments
            if kind == _KIND_REQ:
                if self.handler is None:
                    continue
                result = self.handler(body)
                if hasattr(result, "send"):
                    # Handler with simulated compute: runs INLINE in the
                    # master loop — the FaSST serialization bottleneck.
                    result = yield from result
                if len(result) > 2 * _FRAG_BYTES:
                    raise ValueError("FaSST replies exceed two UD MTUs")
                yield from self._send_message(
                    (wc.src_node, self._peer_qpn(wc)), _KIND_REP, token, result
                )
                self.requests_served += 1
            else:
                pending = self._pending.pop(token, None)
                if pending is not None and not pending.triggered:
                    pending.succeed(body)

    def _reassemble(self, kind, token, total, frag_off, piece):
        """Collect fragments of one logical message; None until whole."""
        if total <= _FRAG_BYTES:
            return piece
        if not hasattr(self, "_frags"):
            self._frags = {}
        parts = self._frags.setdefault((kind, token), {})
        parts[frag_off] = piece
        if sum(len(p) for p in parts.values()) < total:
            return None
        del self._frags[(kind, token)]
        return b"".join(parts[off] for off in sorted(parts))

    # -- slot bookkeeping ---------------------------------------------------
    def _slot_offset_of(self, wc) -> int:
        offset = self._posted_slots.pop(wc.wr_id, None)
        if offset is None:
            raise RuntimeError("FaSST: completion for unknown recv WR")
        return offset

    def _peer_qpn(self, wc) -> int:
        return wc.src_qpn
