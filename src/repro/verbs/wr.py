"""Work requests, completions, and access flags — the Verbs vocabulary."""

from __future__ import annotations

import enum
from typing import List, Optional

__all__ = [
    "Opcode",
    "WcStatus",
    "Access",
    "Sge",
    "SendWR",
    "RecvWR",
    "WorkCompletion",
    "WIRE_HEADER_BYTES",
    "ACK_BYTES",
    "RC_MTU",
    "UD_MTU",
]

# IB transport header budget per packet (LRH+BTH+RETH-ish) and RC ACK size.
WIRE_HEADER_BYTES = 30
ACK_BYTES = 30
RC_MTU = 4096
UD_MTU = 4096


class Opcode(enum.Enum):
    """RDMA operation codes (the Verbs vocabulary)."""

    WRITE = "write"
    WRITE_IMM = "write_imm"
    READ = "read"
    SEND = "send"
    RECV = "recv"
    RECV_IMM = "recv_imm"
    FETCH_ADD = "fetch_add"
    CMP_SWAP = "cmp_swap"


# Hoisted: ``Opcode.X`` is an enum class-attribute lookup, paid per WR.
_WRITE_IMM = Opcode.WRITE_IMM
_ATOMICS = (Opcode.FETCH_ADD, Opcode.CMP_SWAP)


class WcStatus(enum.Enum):
    """Work-completion status codes."""

    SUCCESS = "success"
    LOC_LEN_ERR = "local_length_error"
    REM_ACCESS_ERR = "remote_access_error"
    REM_INV_REQ_ERR = "remote_invalid_request"
    RETRY_EXC_ERR = "transport_retry_exceeded"
    RNR_RETRY_EXC_ERR = "rnr_retry_exceeded"
    WR_FLUSH_ERR = "flushed"


class Access(enum.Flag):
    """MR access-permission flags (ibv_access_flags)."""

    NONE = 0
    LOCAL_WRITE = enum.auto()
    REMOTE_READ = enum.auto()
    REMOTE_WRITE = enum.auto()
    REMOTE_ATOMIC = enum.auto()
    ALL = LOCAL_WRITE | REMOTE_READ | REMOTE_WRITE | REMOTE_ATOMIC


class Sge:
    """One scatter/gather element: a slice of a local MR."""

    __slots__ = ("mr", "offset", "length")

    def __init__(self, mr, offset: int, length: int):
        if offset < 0 or length < 0:
            raise ValueError("sge offset/length must be non-negative")
        if offset + length > mr.size:
            raise ValueError(
                f"sge [{offset}, {offset + length}) exceeds MR size {mr.size}"
            )
        self.mr = mr
        self.offset = offset
        self.length = length


class SendWR:
    """A send-queue work request (one-sided ops, sends, atomics)."""

    __slots__ = (
        "opcode",
        "sgl",
        "remote_addr",
        "rkey",
        "imm",
        "wr_id",
        "signaled",
        "compare_add",
        "swap",
        "inline_data",
        "read_length",
        "return_data",
        "delivered",
        "_order_done",  # QP send-ordering chain link (set by QP.post_send)
    )

    _next_id = 0

    def __init__(
        self,
        opcode: Opcode,
        sgl: Optional[List[Sge]] = None,
        remote_addr: int = 0,
        rkey: int = 0,
        imm: Optional[int] = None,
        wr_id: Optional[int] = None,
        signaled: bool = True,
        compare_add: int = 0,
        swap: int = 0,
        inline_data: Optional[bytes] = None,
        read_length: int = 0,
    ):
        if imm is None:
            if opcode is _WRITE_IMM:
                raise ValueError("WRITE_IMM requires an immediate value")
        elif not 0 <= imm < 2**32:
            raise ValueError(f"immediate must fit in 32 bits, got {imm}")
        if sgl and opcode in _ATOMICS:
            total = sum(sge.length for sge in sgl)
            if total != 8:
                raise ValueError("atomics operate on exactly 8 bytes")
        if wr_id is None:
            SendWR._next_id += 1
            wr_id = SendWR._next_id
        self.opcode = opcode
        self.sgl = list(sgl) if sgl else []
        self.remote_addr = remote_addr
        self.rkey = rkey
        self.imm = imm
        self.wr_id = wr_id
        self.signaled = signaled
        self.compare_add = compare_add
        self.swap = swap
        self.inline_data = inline_data
        self.read_length = read_length
        # Filled for sgl-less READ/atomic responses (kernel zero-copy
        # consumers like LITE scatter straight into user memory).
        self.return_data: Optional[bytes] = None
        # Optional event fired the moment the payload lands at the
        # responder (before the ACK returns) — memory-polling receivers
        # like FaRM/HERD observe data at this point, not at the CQE.
        self.delivered = None
        self._order_done = None

    @property
    def length(self) -> int:
        """Total payload bytes this WR moves."""
        if self.inline_data is not None:
            return len(self.inline_data)
        if not self.sgl and self.opcode is Opcode.READ:
            return self.read_length
        return sum(sge.length for sge in self.sgl)


class RecvWR:
    """A receive-queue work request: one landing buffer."""

    __slots__ = ("mr", "offset", "length", "wr_id")

    _next_id = 0

    def __init__(self, mr=None, offset: int = 0, length: int = 0, wr_id=None):
        if wr_id is None:
            RecvWR._next_id += 1
            wr_id = RecvWR._next_id
        if mr is not None and offset + length > mr.size:
            raise ValueError("recv buffer exceeds MR bounds")
        self.mr = mr
        self.offset = offset
        self.length = length
        self.wr_id = wr_id


class WorkCompletion:
    """One CQE."""

    __slots__ = (
        "wr_id",
        "status",
        "opcode",
        "byte_len",
        "imm",
        "qp_num",
        "src_node",
        "src_qpn",
        "completed_at",
    )

    def __init__(
        self,
        wr_id,
        status: WcStatus,
        opcode: Opcode,
        byte_len: int = 0,
        imm: Optional[int] = None,
        qp_num: int = 0,
        src_node: Optional[int] = None,
        src_qpn: Optional[int] = None,
        completed_at: float = 0.0,
    ):
        self.wr_id = wr_id
        self.status = status
        self.opcode = opcode
        self.byte_len = byte_len
        self.imm = imm
        self.qp_num = qp_num
        self.src_node = src_node
        self.src_qpn = src_qpn
        self.completed_at = completed_at

    @property
    def ok(self) -> bool:
        """True when the operation completed successfully."""
        return self.status is WcStatus.SUCCESS

    def __repr__(self) -> str:
        return (
            f"WC(wr_id={self.wr_id}, {self.status.value}, {self.opcode.value}, "
            f"len={self.byte_len}, imm={self.imm})"
        )


def wire_bytes(payload_len: int, mtu: int = RC_MTU) -> int:
    """Bytes on the wire for a message: payload plus per-MTU headers."""
    if payload_len <= 0:
        return WIRE_HEADER_BYTES
    packets = (payload_len + mtu - 1) // mtu
    return payload_len + packets * WIRE_HEADER_BYTES
