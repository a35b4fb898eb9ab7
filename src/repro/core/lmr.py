"""LMR metadata: permissions, chunk descriptors, handles, master records.

An LMR (LITE Memory Region, §4.1) is a virtualized region of arbitrary
size that LITE maps to one or more physically-contiguous chunks, which
may live on one node or be spread across machines.  Users only ever see
an *lh* — a capability handle, valid for exactly one process on one
node, encapsulating the address mapping and this user's permission.
"""

from __future__ import annotations

import enum
import itertools
from typing import AbstractSet, Dict, List, Optional, Tuple

__all__ = ["Permission", "ChunkInfo", "MasterRecord", "MappedLmr", "LmrHandle"]

_lmr_counter = itertools.count(start=1)
_lh_counter = itertools.count(start=1)
# ``MasterRecord.mapped_by`` of every LMR nobody has mapped yet.
_NO_MAPPERS = frozenset()


class Permission(enum.Flag):
    """Per-principal LMR rights: READ, WRITE, and the MASTER role."""

    NONE = 0
    READ = enum.auto()
    WRITE = enum.auto()
    MASTER = enum.auto()

    @classmethod
    def full(cls) -> "Permission":
        """READ | WRITE | MASTER."""
        return _FULL


# Built once: ``Flag.__or__`` runs Python-level enum code per call, and
# ``Permission.NONE`` is an enum class-attribute lookup.
_FULL = Permission.READ | Permission.WRITE | Permission.MASTER
_NONE = Permission.NONE


class ChunkInfo:
    """One physically-contiguous piece of an LMR (wire-serializable).

    In LITE's normal mode chunks are addressed by raw physical address
    under the owner's *global* rkey.  In the per-MR ablation mode
    (``LiteKernel(use_global_mr=False)``) each chunk is registered as a
    classic virtual-address MR and carries its own ``rkey``/``va`` —
    reintroducing exactly the RNIC SRAM pressure of §2.4.
    """

    __slots__ = ("node_id", "addr", "size", "rkey", "va")

    def __init__(self, node_id: int, addr: int, size: int,
                 rkey: Optional[int] = None, va: Optional[int] = None):
        self.node_id = node_id
        self.addr = addr
        self.size = size
        self.rkey = rkey
        self.va = va

    def target(self, chunk_off: int, global_rkey: Optional[int] = None):
        """``(remote address, rkey)`` of the byte ``chunk_off`` into this chunk.

        The one place the addressing rule is written: physical address
        under the owner's ``global_rkey``, or the chunk's own VA + rkey
        in the per-MR mode.
        """
        if self.rkey is not None:
            return self.va + chunk_off, self.rkey
        return self.addr + chunk_off, global_rkey

    def to_wire(self) -> list:
        """JSON-serializable form for control messages."""
        return [self.node_id, self.addr, self.size, self.rkey, self.va]

    @classmethod
    def from_wire(cls, wire: list) -> "ChunkInfo":
        """Inverse of :meth:`to_wire`."""
        return cls(*wire)

    def __repr__(self) -> str:
        return f"Chunk(node={self.node_id}, addr={self.addr:#x}, size={self.size})"


class MasterRecord:
    """Master-side record of an LMR, kept by its creator's LITE (§4.1).

    Masters know where the LMR lives, hold the ACL, and track every node
    that has mapped it (so moves/frees can be broadcast).
    """

    __slots__ = ("lmr_id", "name", "size", "chunks", "acl", "default_perm",
                 "mapped_by", "freed", "replicas", "version")

    def __init__(self, name: str, size: int, chunks: List[ChunkInfo], creator: str,
                 default_perm: Permission = Permission.NONE):
        self.lmr_id = next(_lmr_counter)
        self.name = name
        self.size = size
        self.chunks = chunks
        self.acl: Dict[str, Permission] = {creator: Permission.full()}
        # Baseline permission any principal holds without an explicit
        # grant (used for world-accessible LMRs like lock words).
        self.default_perm = default_perm
        # Shared and empty until the first map (add_mapper).
        self.mapped_by: AbstractSet[int] = _NO_MAPPERS
        self.freed = False
        # Replica set for ``lt_malloc(..., replicas=k)``: backup LITE id
        # -> full-size chunk list mirroring ``chunks``.  Writes fan out
        # to every backup; on primary failure the recovery layer promotes
        # one of them and retargets ``chunks`` in place.
        self.replicas: Dict[int, List[ChunkInfo]] = {}
        # Monotonic write-ordering counter, bumped once per acked
        # replicated write (resync uses it to detect copies made stale
        # by writes that raced the copy-back).
        self.version = 0

    def check(self, principal: str, wanted: Permission) -> bool:
        """True when ``principal`` holds every bit of ``wanted``."""
        held = self.acl.get(principal, _NONE)._value_ | self.default_perm._value_
        bits = wanted._value_
        return held & bits == bits

    def grant(self, principal: str, perm: Permission) -> None:
        """Add ``perm`` to a principal's held rights."""
        self.acl[principal] = self.acl.get(principal, Permission.NONE) | perm

    def add_mapper(self, lite_id: int) -> None:
        """Record that LITE ``lite_id`` has the LMR mapped."""
        if self.mapped_by is _NO_MAPPERS:
            self.mapped_by = {lite_id}
        else:
            self.mapped_by.add(lite_id)

    def drop_mapper(self, lite_id: int) -> None:
        """Forget a mapper (no-op if it never mapped)."""
        if self.mapped_by is not _NO_MAPPERS:
            self.mapped_by.discard(lite_id)


class MappedLmr:
    """Requesting-node-side mapping of an LMR (all metadata local, §4.1)."""

    __slots__ = ("lmr_id", "name", "size", "chunks", "master_id", "valid",
                 "replica_chunks", "failed")

    def __init__(
        self,
        lmr_id: int,
        name: str,
        size: int,
        chunks: List[ChunkInfo],
        master_id: int,
        replica_chunks: Optional[Dict[int, List[ChunkInfo]]] = None,
    ):
        self.lmr_id = lmr_id
        self.name = name
        self.size = size
        self.chunks = chunks
        self.master_id = master_id
        # Cleared when the master frees or moves the LMR (FREE_NOTIFY).
        self.valid = True
        # Backup LITE id -> chunk list; writes through this mapping fan
        # out to every live backup (empty for unreplicated LMRs, in
        # which case the write path is byte-for-byte unchanged).
        self.replica_chunks: Dict[int, List[ChunkInfo]] = replica_chunks or {}
        # Set when the last replica died: reads/writes fail fast with
        # ENODEV instead of timing out against a dead primary.
        self.failed = False

    def retarget(self, chunks: List[ChunkInfo]) -> None:
        """Point the mapping at a new chunk layout (move / promotion).

        Nothing caches a target of the old layout: every op, fast path
        included, resolves its pieces from ``chunks``, so the next op
        lands on the new layout.
        """
        self.chunks = chunks

    def plan(self, offset: int, nbytes: int) -> List[Tuple[ChunkInfo, int, int, int]]:
        """Split [offset, offset+nbytes) into per-chunk pieces.

        Returns tuples (chunk, chunk_offset, piece_len, buffer_offset).
        """
        if offset < 0 or nbytes < 0 or offset + nbytes > self.size:
            raise ValueError(
                f"range [{offset}, {offset + nbytes}) outside LMR of size {self.size}"
            )
        pieces = []
        cursor = 0
        remaining_off = offset
        remaining = nbytes
        buffer_off = 0
        for chunk in self.chunks:
            if remaining <= 0:
                break
            chunk_lo = cursor
            chunk_hi = cursor + chunk.size
            cursor = chunk_hi
            if remaining_off >= chunk_hi:
                continue
            inner = max(remaining_off - chunk_lo, 0)
            take = min(chunk.size - inner, remaining)
            pieces.append((chunk, inner, take, buffer_off))
            remaining -= take
            remaining_off += take
            buffer_off += take
        if remaining > 0:
            raise ValueError("LMR chunks do not cover its declared size")
        return pieces


class LmrHandle:
    """An *lh*: per-process capability to one LMR.

    Meaningless outside the owning context — every LITE API validates
    that the handle was minted for the calling context, which is what
    makes lh-passing between processes useless (paper §4.1: "an lh of an
    LMR is local to a process on a node").
    """

    __slots__ = ("lh_id", "context", "mapping", "perm", "valid")

    def __init__(self, context, mapping: MappedLmr, perm: Permission):
        self.lh_id = next(_lh_counter)
        self.context = context
        self.mapping = mapping
        self.perm = perm
        self.valid = True

    @property
    def size(self) -> int:
        """The LMR's byte size."""
        return self.mapping.size

    @property
    def name(self) -> str:
        """The LMR's global name."""
        return self.mapping.name

    def require(self, context, wanted: Permission) -> MappedLmr:
        """Validate the capability; returns the mapping or raises."""
        if not self.valid:
            raise PermissionError(f"lh {self.lh_id} has been unmapped")
        if not self.mapping.valid:
            raise PermissionError(
                f"lh {self.lh_id}: the underlying LMR was freed by its master"
            )
        if context is not self.context:
            raise PermissionError(
                "lh used by a different process than it was minted for"
            )
        # On the raw bits: ``Flag.__and__`` and ``.value`` run Python-level
        # enum code, ``_value_`` is a plain attribute.
        bits = wanted._value_
        if self.perm._value_ & bits != bits:
            raise PermissionError(
                f"lh {self.lh_id} lacks {wanted} (has {self.perm})"
            )
        return self.mapping

    def __repr__(self) -> str:
        return (
            f"lh(id={self.lh_id}, lmr={self.mapping.lmr_id}, name={self.name!r}, "
            f"perm={self.perm}, size={self.size})"
        )
