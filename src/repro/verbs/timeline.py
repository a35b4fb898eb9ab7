"""One timeline per opcode: the §5.3 stage list of one RC send-queue op.

:func:`timeline` is the one description of what an uncontended op costs
and what it occupies, stage by stage, in order.  :func:`explain` prints
it, the fast path's commit folds it into its instants and derives its
hold / release dispatches from the holders, and tier-1 tests pin the
generator path's traced stage spans to it.  A stage's ``holder`` is
what it occupies: the requester's RNIC pipeline (:data:`LOCAL`), the
responder's (:data:`REMOTE`), the forward wire (:data:`FORWARD`,
source tx + destination rx), the return wire (:data:`RETURN`,
destination tx + source rx), or nothing (``None``).  The running sum
of the durations from the post instant is the op's completion
instant, bit for bit, because every executor waits the same durations
in the same add order.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from ..hw.params import DEFAULT_PARAMS
from .wr import _ATOMICS, ACK_BYTES, Opcode, wire_bytes

__all__ = ["Stage", "timeline", "explain", "wire_legs", "floor", "post_cpu",
           "LOCAL", "REMOTE", "FORWARD", "RETURN"]

LOCAL = "local pipeline"
REMOTE = "remote pipeline"
FORWARD = "forward wire"
RETURN = "return wire"

_RESPONSE_OPS = (Opcode.READ,) + _ATOMICS   # return data, not an ACK
_SEND_QUEUE_OPS = (Opcode.WRITE, Opcode.WRITE_IMM, Opcode.SEND) + _RESPONSE_OPS


class Stage(NamedTuple):
    """One step of an op: what it is, what it holds, how long."""

    label: str
    holder: Optional[str]
    duration: float


def wire_legs(opcode: Opcode, nbytes: int) -> tuple:
    """``(forward, return)`` wire bytes of one RC op of ``nbytes``.

    READ and the atomics send a bare request (an atomic's operands ride
    in its header) and get the data back; the others carry the payload
    out and get an ACK back.
    """
    if opcode is Opcode.READ:
        return wire_bytes(0), wire_bytes(nbytes)
    if opcode in _ATOMICS:
        return wire_bytes(16), wire_bytes(8)
    return wire_bytes(nbytes), ACK_BYTES


def timeline(opcode: Opcode, nbytes: int, prices, cost_l: float = 0.0,
             cost_r: float = 0.0, cost_q: float = 0.0,
             signaled: bool = True) -> tuple:
    """The stages of one RC ``opcode`` of ``nbytes`` on an idle fabric.

    ``cost_l`` / ``cost_r`` are the SRAM miss penalties of the
    requester's and the responder's lookups (``0.0`` when every lookup
    hits); ``cost_q`` is the QP-context penalty of a SEND's first
    responder pass.  An unsignaled op ends without the requester's CQE
    write-back.  An atomic moves its 8-byte word whatever ``nbytes``
    says.

    What differs by opcode: a SEND's responder takes two passes (the
    QP context, then the receive buffer); WRITE_IMM and SEND complete a
    receive at the responder before the ACK leaves; READ and the
    atomics scatter the returned data in a second requester pass.
    """
    if opcode not in _SEND_QUEUE_OPS:
        raise ValueError(f"timeline() prices send-queue opcodes, not {opcode}")
    if opcode in _ATOMICS:
        nbytes = 8
    out, back = wire_legs(opcode, nbytes)
    hop = Stage("propagation + switch", None, prices.prop)
    doorbell = Stage("doorbell", None, prices.doorbell)
    responder = Stage("RNIC processing + DMA: responder", REMOTE,
                      prices.occupancy(cost_r, nbytes))
    if opcode in _RESPONSE_OPS:
        stages = (doorbell,
                  Stage("RNIC processing: request", LOCAL,
                        prices.occupancy(cost_l, 0)),
                  Stage("wire serialization: request", FORWARD,
                        prices.ser(out)),
                  hop, responder,
                  Stage("wire serialization", RETURN, prices.ser(back)),
                  hop,
                  Stage("RNIC processing + DMA: scatter", LOCAL,
                        prices.occupancy(0.0, nbytes)))
    else:
        stages = (doorbell,
                  Stage("RNIC processing + DMA: gather", LOCAL,
                        prices.occupancy(cost_l, nbytes)),
                  Stage("wire serialization", FORWARD, prices.ser(out)),
                  hop)
        if opcode is Opcode.SEND:
            stages += (Stage("RNIC processing: responder QP", REMOTE,
                             prices.occupancy(cost_q, 0)),)
        stages += (responder,)
        if opcode is not Opcode.WRITE:
            stages += (Stage("completion: responder", None,
                             prices.completion),)
        stages += (Stage("wire serialization: ACK", RETURN, prices.ser(back)),
                   hop,
                   Stage("transport: ACK turnaround", None, prices.ack))
    if signaled:
        stages += (Stage("completion", None, prices.completion),)
    return stages


def explain(opcode: Opcode, nbytes: int, params=DEFAULT_PARAMS) -> list:
    """``[(label, us), ...]``: :func:`timeline` of one signaled RC
    ``opcode`` of ``nbytes`` on an idle 2-node fabric with warm SRAM,
    without running the simulator."""
    return [(stage.label, stage.duration)
            for stage in timeline(opcode, nbytes, params.prices)]


def floor(prices) -> float:
    """A lower bound on every op's completion delay: the doorbell, a
    bare pipeline pass at each end, an empty frame out and both
    propagations — a strict subset of every timeline's terms, summed in
    timeline order, so rounding never lifts it past one."""
    bare = prices.occupancy(0.0, 0)
    return (prices.doorbell + bare + prices.ser(wire_bytes(0)) + prices.prop
            + bare + prices.prop)


def post_cpu(prices) -> float:
    """Host CPU time one post costs its poster: ringing the doorbell,
    the first stage of every timeline."""
    return prices.doorbell
