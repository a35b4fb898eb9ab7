"""FaRM-style message passing: RPC built from two RDMA writes.

FaRM (NSDI '14) passes messages by RDMA-writing into a ring buffer at
the receiver, whose CPU busy-polls the ring tail.  An RPC is therefore
one write (request) + one write (reply) — the paper uses the sum of two
native writes as the *lower bound* an RPC mechanism can aspire to
(Figure 10's "2 Verbs writes" line).

The receiver's ring-poll is modelled with the standard busy-wait
discipline: full CPU charge while waiting plus half a poll-loop of
discovery latency.  A simulation-side signal marks "bytes have landed";
the data itself truly travels through the MR.
"""

from __future__ import annotations

import struct
from typing import Dict

from ..sim import Store
from ..verbs import Access, Opcode, SendWR, WcStatus

__all__ = ["FarmEndpoint", "connect_farm_pair"]

_HDR = 8  # length(4) + sender slot id(4)


class FarmEndpoint:
    """One side of a FaRM-style write-ring channel."""

    def __init__(self, node, ring_bytes: int = 4 * 1024 * 1024):
        self.node = node
        self.sim = node.sim
        self.params = node.params
        self.ring_bytes = ring_bytes
        self.pd = node.device.alloc_pd()
        self.mr = None
        self.qp = None
        self.peer: "FarmEndpoint" = None
        self._write_offset = 0
        self._incoming: Store = Store(self.sim)
        self.messages_sent = 0
        self.messages_received = 0

    def build(self):
        """Register the ring MR (generator)."""
        self.mr = yield from self.node.device.reg_mr(
            self.pd, self.ring_bytes, Access.ALL
        )

    def send(self, payload: bytes):
        """One RDMA write carrying a length-prefixed message (generator)."""
        peer = self.peer
        offset = self._write_offset
        message = struct.pack("<II", len(payload), 0) + payload
        if offset + len(message) > peer.ring_bytes:
            offset = 0
        self._write_offset = offset + len(message)
        wr = SendWR(
            Opcode.WRITE,
            inline_data=message,
            remote_addr=peer.mr.base_addr + offset,
            rkey=peer.mr.rkey,
            signaled=False,
        )
        # The receiver memory-polls: it sees the bytes when they *land*,
        # half an RTT before the sender's ACK-driven completion.
        wr.delivered = self.sim.event()
        self.qp.post_send(wr)
        status = yield wr.delivered
        if status is not WcStatus.SUCCESS:
            raise RuntimeError(f"FaRM write failed: {status.value}")
        self.messages_sent += 1
        peer._incoming.put(offset)

    def recv(self):
        """Busy-poll the ring for the next message (generator; returns bytes)."""
        cpu = self.node.cpu
        offset = yield from cpu.busy_wait(self._incoming.get(), tag="farm-poll")
        length, _slot = struct.unpack("<II", self.mr.read(offset, _HDR))
        payload = self.mr.read(offset + _HDR, length)
        self.messages_received += 1
        return payload

    def rpc(self, payload: bytes):
        """Request + reply, both as single writes (generator)."""
        yield from self.send(payload)
        reply = yield from self.recv()
        return reply


def connect_farm_pair(node_a, node_b, ring_bytes: int = 4 * 1024 * 1024):
    """Build a connected FaRM channel between two nodes (generator)."""
    a = FarmEndpoint(node_a, ring_bytes)
    b = FarmEndpoint(node_b, ring_bytes)
    yield from a.build()
    yield from b.build()
    qa = node_a.device.create_qp(a.pd, "RC")
    qb = node_b.device.create_qp(b.pd, "RC")
    node_a.device.connect(qa, qb)
    a.qp, b.qp = qa, qb
    a.peer, b.peer = b, a
    return a, b
