"""The §5.3 stage list of one uncontended op, read off the price list."""

from __future__ import annotations

from ..hw.params import DEFAULT_PARAMS
from .qp import _ATOMICS, _RESPONSE_OPS
from .wr import ACK_BYTES, Opcode, wire_bytes

__all__ = ["explain"]


def explain(opcode: Opcode, nbytes: int, params=DEFAULT_PARAMS) -> list:
    """``[(label, us), ...]``: the stages of one signaled RC ``opcode``
    of ``nbytes`` on an idle 2-node fabric with warm SRAM, in timeline
    order, without running the simulator.

    Each entry is one duration either executor waits, so the running
    sum from the post instant is the op's completion instant, bit for
    bit.  An atomic moves its 8-byte word whatever ``nbytes`` says.
    """
    p = params.prices
    if opcode in _ATOMICS:
        nbytes = 8
    elif opcode not in (Opcode.WRITE, Opcode.WRITE_IMM, Opcode.READ,
                        Opcode.SEND):
        raise ValueError(f"explain() prices send-queue opcodes, not {opcode}")
    hop = ("propagation + switch", p.prop)
    data = ("wire serialization", p.ser(wire_bytes(nbytes)))
    responder = ("RNIC processing + DMA: responder", p.occupancy(0.0, nbytes))
    if opcode in _RESPONSE_OPS:
        # A bare request out (an atomic's operands ride in its header),
        # the data back, scattered by a second local pass.
        request = wire_bytes(16 if opcode in _ATOMICS else 0)
        return [("doorbell", p.doorbell),
                ("RNIC processing: request", p.occupancy(0.0, 0)),
                ("wire serialization: request", p.ser(request)), hop,
                responder, data, hop,
                ("RNIC processing + DMA: scatter", p.occupancy(0.0, nbytes)),
                ("completion", p.completion)]
    stages = [("doorbell", p.doorbell),
              ("RNIC processing + DMA: gather", p.occupancy(0.0, nbytes)),
              data, hop]
    if opcode is Opcode.SEND:
        stages.append(("RNIC processing: responder QP", p.occupancy(0.0, 0)))
    stages.append(responder)
    if opcode is not Opcode.WRITE:
        stages.append(("completion: responder", p.completion))
    return stages + [("wire serialization: ACK", p.ser(ACK_BYTES)), hop,
                     ("transport: ACK turnaround", p.ack),
                     ("completion", p.completion)]
