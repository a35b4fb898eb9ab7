"""LITE internal wire protocol: control messages and IMM encoding.

Control-plane messages (LMR management, locks, barriers, ring binding)
travel as two-sided SENDs carrying JSON payloads.  The RPC data plane
uses write-imm; the 32-bit immediate is packed as::

    [kind:2][field:6][offset/token:24or30]

    kind=REQUEST : field = RPC function id (6 bits),
                   low 24 bits = ring offset (rings are <= 16 MB)
    kind=REPLY   : low 30 bits = reply token
"""

from __future__ import annotations

import json
from json.encoder import c_make_encoder, encode_basestring_ascii
from json.scanner import make_scanner
from typing import Tuple

__all__ = [
    "MsgType",
    "encode_ctrl",
    "decode_ctrl",
    "pack_request_imm",
    "unpack_imm",
    "IMM_KIND_REQUEST",
    "IMM_KIND_REPLY",
    "MAX_FUNC_ID",
    "MAX_RING_OFFSET",
    "REQ_HEADER_BYTES",
    "REPLY_HEADER_BYTES",
]


class MsgType:
    """Control-plane message type tags (strings for JSON friendliness)."""

    ALLOC = "alloc"
    ALLOC_REPLY = "alloc_reply"
    FREE_CHUNKS = "free_chunks"
    MAP = "map"
    MAP_REPLY = "map_reply"
    UNMAP_NOTIFY = "unmap_notify"
    FREE_NOTIFY = "free_notify"
    GRANT = "grant"
    MEMSET = "memset"
    MEMCPY = "memcpy"
    RING_BIND = "ring_bind"
    LOCK_WAIT = "lock_wait"
    LOCK_RELEASE = "lock_release"
    BARRIER = "barrier"
    CHUNKS_UPDATE = "chunks_update"
    USER_MSG = "user_msg"
    PING = "ping"
    REPLY = "reply"


# Built once, not per message: ``json.dumps(msg, separators=(",", ":"))``
# builds a JSONEncoder and this C encoder per call (here without the
# circular-reference markers: a control message is a tree), and
# ``json.loads`` wraps the same C scanner in two whitespace matches that
# compact JSON does not need.
_ENCODE = c_make_encoder(None, json.JSONEncoder().default,
                         encode_basestring_ascii, None, ":", ",",
                         False, False, True)
_SCAN = make_scanner(json.JSONDecoder())


def encode_ctrl(msg: dict) -> bytes:
    """Serialize a control message for the wire (compact JSON)."""
    return "".join(_ENCODE(msg, 0)).encode()


def decode_ctrl(payload: bytes) -> dict:
    """Inverse of :func:`encode_ctrl`."""
    return _SCAN(payload.decode(), 0)[0]


IMM_KIND_REQUEST = 0
IMM_KIND_REPLY = 1

MAX_FUNC_ID = (1 << 6) - 1
MAX_RING_OFFSET = (1 << 24) - 1
MAX_TOKEN = (1 << 30) - 1

# Per-request ring header:
#   reply_addr(8) reply_token(4) input_len(4) max_reply(4).
REQ_HEADER_BYTES = 20
# Reply slot header: status(4) length(4).
REPLY_HEADER_BYTES = 8


def pack_request_imm(func_id: int, ring_offset: int) -> int:
    """IMM for an RPC request: kind | func_id | ring offset."""
    if not 0 <= func_id <= MAX_FUNC_ID:
        raise ValueError(f"RPC function id must fit in 6 bits, got {func_id}")
    if not 0 <= ring_offset <= MAX_RING_OFFSET:
        raise ValueError(f"ring offset {ring_offset} exceeds 16 MB IMM budget")
    return (IMM_KIND_REQUEST << 30) | (func_id << 24) | ring_offset


def pack_reply_imm(token: int) -> int:
    """IMM for an RPC reply carrying its matching token."""
    if not 0 <= token <= MAX_TOKEN:
        raise ValueError(f"reply token must fit in 30 bits, got {token}")
    return (IMM_KIND_REPLY << 30) | token


def unpack_imm(imm: int) -> Tuple[int, int, int]:
    """Returns (kind, func_id, offset_or_token)."""
    kind = (imm >> 30) & 0x3
    if kind == IMM_KIND_REQUEST:
        return kind, (imm >> 24) & 0x3F, imm & MAX_RING_OFFSET
    return kind, 0, imm & MAX_TOKEN
