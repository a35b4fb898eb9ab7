"""Host DRAM model: physical allocation, real backing bytes, page identity.

Data is *real* — every physical region is backed by a ``bytearray`` so
applications (DSM, MapReduce, graph engine) move and compute on actual
bytes — while allocation produces physically-contiguous extents from a
first-fit free list, so external fragmentation behaves like a real buddy
allocator under stress (§4.1's motivation for chunked LMRs).
"""

from __future__ import annotations

import bisect
from types import MappingProxyType
from typing import List, Optional, Tuple

from .params import PAGE_SIZE

__all__ = ["PhysRegion", "HostMemory", "OutOfMemoryError"]


class OutOfMemoryError(Exception):
    """No physically-contiguous extent of the requested size exists."""


# Shared zero source for sparse reads (one block; sliced, never copied
# until the final join).  Sized to the largest block granularity below.
_ZERO_BLOCK = memoryview(bytes(1048576))

# The block table of every region nothing has written yet: one shared,
# read-only empty mapping instead of a dict per registration.
_NO_BLOCKS = MappingProxyType({})


class PhysRegion:
    """A physically-contiguous extent of host DRAM with real contents.

    Backing storage is demand-paged, so benchmarks can register very
    many — or multi-GB — regions and only pay host RAM (and host memset
    time) for the bytes actually written: untouched ranges read back as
    zeros, like the kernel's zero page.  A region nothing has written
    shares one read-only empty block table; its first write gives it
    its own.

    The region is cut into blocks, never larger than the region itself:
    64 KiB for small regions, 1 MiB for bulk ones (LMR chunks, RPC
    rings) so a multi-hundred-KB transfer is a single slice assignment
    instead of a Python loop over sixteen 64 KiB pieces.  Each block is
    in one of four states:

    * *absent* — never written; reads as zeros and costs nothing.
    * *sparse* — a page table ``{page_index: bytearray}`` holding only
      the pages small writes have touched.  A page is allocated *short*,
      to the end of its first write (bytes past its end read as zeros),
      and grows to a full page on its second write, so it reallocates
      at most once.
    * *dense* — one ``bytearray`` of the block size.  A sparse block is
      promoted in place once a quarter of it would be resident, whether
      page by page or through one large write, so sequential traffic
      and ring appends run on plain slice assignment.  A block of one
      page or less stays sparse for a first write that ends short of
      the block end, and turns dense on its second write.
    * *aliased* — a write that covers the whole block with an immutable
      source (``bytes``, or a ``memoryview`` over one) keeps a reference
      instead of copying, which is safe precisely because the source
      can never change underneath it.  A later partial overwrite copies
      the block into a ``bytearray`` (copy-on-write).  Exact-extent
      reads of an aliased ``bytes`` block hand the same object back, so
      the write-then-read-back pattern of large-message benchmarks
      moves zero bytes per op.

    Host-side only: simulated timings never see blocks or pages.
    """

    _BLOCK = 65536
    _BLOCK_BULK = 1048576
    _BULK_THRESHOLD = 2097152
    # A block stays sparse while its resident pages (short ones count
    # as full) plus the incoming write (at least one page) amount to
    # less than 1/_DENSE_DIV of it.
    _DENSE_DIV = 4

    __slots__ = ("node_id", "addr", "size", "_blocks", "_block", "freed")

    def __init__(self, node_id: int, addr: int, size: int):
        self.node_id = node_id
        self.addr = addr
        self.size = size
        self._blocks = _NO_BLOCKS
        block = (self._BLOCK_BULK if size >= self._BULK_THRESHOLD
                 else self._BLOCK)
        # min() without the builtin call: one region per allocation.
        self._block = size if size < block else block
        self.freed = False

    def _check(self, offset: int, nbytes: int, what: str) -> None:
        if self.freed:
            raise ValueError(f"{what} on freed physical region")
        if offset < 0 or nbytes < 0 or offset + nbytes > self.size:
            raise ValueError(
                f"{what} [{offset}, {offset + nbytes}) outside region "
                f"of size {self.size}"
            )

    @property
    def resident_bytes(self) -> int:
        """Data bytes the backing store holds for this region: the
        length of every page, dense block and aliased source it keeps."""
        return sum(sum(map(len, block.values())) if type(block) is dict
                   else len(block) for block in self._blocks.values())

    def write(self, offset: int, payload) -> None:
        """Store real bytes (materializing touched pages or blocks).

        ``payload`` may be any bytes-like object (``bytes``,
        ``bytearray``, ``memoryview``); slicing it goes through a
        memoryview so multi-block writes never copy the payload twice.
        """
        length = len(payload)
        self._check(offset, length, "write")
        if not length:
            return
        block_size = self._block
        blocks = self._blocks
        if blocks is _NO_BLOCKS:
            blocks = self._blocks = {}
        block_index = offset // block_size
        inner = offset % block_size
        if inner + length <= block_size:
            # Fast path: the write lands in a single block.
            if inner == 0 and length == block_size:
                aliased = self._alias(payload)
                if aliased is not None:
                    blocks[block_index] = aliased
                    return
            block = blocks.get(block_index)
            if type(block) is not bytearray:
                block = self._open(block_index, block, inner, payload)
                if block is None:
                    return
            block[inner : inner + length] = payload
            return
        view = memoryview(payload)
        cursor = 0
        while cursor < length:
            block_index = (offset + cursor) // block_size
            inner = (offset + cursor) % block_size
            take = min(block_size - inner, length - cursor)
            piece = view[cursor : cursor + take]
            cursor += take
            if inner == 0 and take == block_size:
                aliased = self._alias(piece)
                if aliased is not None:
                    blocks[block_index] = aliased
                    continue
            block = blocks.get(block_index)
            if type(block) is not bytearray:
                block = self._open(block_index, block, inner, piece)
                if block is None:
                    continue
            block[inner : inner + take] = piece

    def _open(self, block_index: int, block, inner: int, piece):
        """Make a block that is not dense ready for ``piece`` at ``inner``.

        Returns the dense ``bytearray`` the caller writes into, or None
        when the piece went into the block's sparse page table.
        """
        block_size = self._block
        page_size = PAGE_SIZE
        if block is None or type(block) is dict:
            resident = len(block) * page_size if block else 0
            incoming = max(len(piece), page_size)
            # Sparse under the quarter rule, or for a first write that
            # ends short of a block of one page or less.
            if ((resident + incoming) * self._DENSE_DIV < block_size
                    or block is None and block_size <= page_size
                    and inner + len(piece) < block_size):
                if block is None:
                    block = self._blocks[block_index] = {}
                index, pin = divmod(inner, page_size)
                if pin + len(piece) > page_size:
                    piece = memoryview(piece)
                while True:
                    take = page_size - pin
                    if len(piece) < take:
                        take = len(piece)
                    page = block.get(index)
                    if page is None:
                        # First touch: hold only up to the write's end.
                        page = block[index] = bytearray(pin + take)
                    else:
                        full = block_size - index * page_size
                        if full > page_size:
                            full = page_size
                        if len(page) < full:
                            # Second touch: grow to the full page, once.
                            page += _ZERO_BLOCK[: full - len(page)]
                    if take == len(piece):
                        page[pin : pin + take] = piece
                        return None
                    page[pin:] = piece[:take]
                    piece = piece[take:]
                    index += 1
                    pin = 0
            dense = bytearray(block_size)
            for index, page in (block or {}).items():
                base = index * page_size
                dense[base : base + len(page)] = page
        else:
            # Copy-on-write: materialize an aliased block before
            # mutating it.
            dense = bytearray(block)
        self._blocks[block_index] = dense
        return dense

    @staticmethod
    def _alias(payload):
        """Return an immutable alias of ``payload``, or None if unsafe.

        Only sources that can never change are aliased: ``bytes``
        directly, and memoryviews whose exporting object is ``bytes``
        (a merely *read-only* view is not enough — ``toreadonly()`` on
        a bytearray forbids writes through the view while the buffer
        underneath keeps mutating).  A full-object view is unwrapped
        back to its ``bytes`` so exact-extent reads can return it
        without a copy.
        """
        if type(payload) is bytes:
            return payload
        if type(payload) is memoryview and type(payload.obj) is bytes:
            if payload.nbytes == len(payload.obj):
                return payload.obj
            return payload
        return None

    def read(self, offset: int, nbytes: int) -> bytes:
        """Load real bytes; untouched ranges read as zeros.

        Untouched (never-written) blocks and pages are never
        materialized: holes contribute slices of a shared zero buffer,
        and each touched block or page contributes exactly one copy
        (``b"".join`` consumes the memoryview slices directly).
        """
        self._check(offset, nbytes, "read")
        block_size = self._block
        inner = offset % block_size
        if inner + nbytes <= block_size:
            # Fast path: the read comes from a single block.
            block = self._blocks.get(offset // block_size)
            if block is None:
                return bytes(nbytes)
            if type(block) is not dict:
                if type(block) is bytes and inner == 0 and nbytes == len(block):
                    # Exact-extent read of an aliased immutable block:
                    # hand the same object back, no copy.
                    return block
                return bytes(memoryview(block)[inner : inner + nbytes])
            # A sparse block: fast too when one page holds every byte.
            page = block.get(inner // PAGE_SIZE)
            inner %= PAGE_SIZE
            if page is not None and inner + nbytes <= len(page):
                return bytes(memoryview(page)[inner : inner + nbytes])
        return b"".join(self._parts(offset, nbytes))

    def read_into(self, offset: int, buf) -> int:
        """Load bytes directly into a writable buffer; returns len(buf).

        Zero-copy counterpart of :meth:`read` for callers that own a
        destination ``bytearray``/``memoryview`` (RNIC DMA scatter).
        """
        dest = memoryview(buf)
        nbytes = len(dest)
        self._check(offset, nbytes, "read")
        cursor = 0
        for part in self._parts(offset, nbytes):
            dest[cursor : cursor + len(part)] = part
            cursor += len(part)
        return nbytes

    def _parts(self, offset: int, nbytes: int) -> list:
        """Memoryview pieces covering an extent, zero slices for holes."""
        block_size = self._block
        page_size = PAGE_SIZE
        blocks = self._blocks
        zeros = _ZERO_BLOCK
        parts = []
        end = offset + nbytes
        while offset < end:
            block_index, inner = divmod(offset, block_size)
            take = min(block_size - inner, end - offset)
            block = blocks.get(block_index)
            if type(block) is dict:
                pin = inner % page_size
                take = min(page_size - pin, take)
                block = block.get(inner // page_size)
                inner = pin
                if block is not None and pin + take > len(block):
                    # A short page: its held bytes, then zeros.
                    held = max(len(block) - pin, 0)
                    parts.append(memoryview(block)[pin : pin + held])
                    parts.append(zeros[: take - held])
                    offset += take
                    continue
            if block is None:
                parts.append(zeros[:take])
            else:
                parts.append(memoryview(block)[inner : inner + take])
            offset += take
        return parts

    def page_ids(self, page_size: int, offset: int = 0, nbytes: Optional[int] = None):
        """Global page identities touched by an access, for PTE caching."""
        if nbytes is None:
            nbytes = self.size - offset
        if nbytes <= 0:
            return []
        first = (self.addr + offset) // page_size
        last = (self.addr + offset + nbytes - 1) // page_size
        return [(self.node_id, page) for page in range(first, last + 1)]

    def __repr__(self) -> str:
        return f"PhysRegion(node={self.node_id}, addr={self.addr:#x}, size={self.size})"


class HostMemory:
    """First-fit physical allocator over a node's DRAM."""

    # Observability hook: install_tracer() points this at the cluster's
    # Tracer per instance (HostMemory has no simulator reference).
    tracer = None

    def __init__(self, node_id: int, capacity: int = 128 * 1024 * 1024 * 1024):
        self.node_id = node_id
        self.capacity = capacity
        # Free list of (addr, size), address-ordered, coalesced.
        self._free: List[Tuple[int, int]] = [(0, capacity)]
        self.allocated_bytes = 0
        # Live regions indexed by base address (for physical-address DMA).
        self._live: dict = {}
        self._live_addrs: List[int] = []
        # Free epoch: bumped on every free() so cached resolve() results
        # (the fast path's span memo) can be revalidated with one compare.
        # Allocation cannot invalidate an existing resolution, so alloc()
        # leaves it alone.
        self.version = 0

    def alloc(self, size: int) -> PhysRegion:
        """First-fit allocate a physically-contiguous extent."""
        if size <= 0:
            raise ValueError(f"allocation size must be positive, got {size}")
        free = self._free
        index = 0
        for addr, extent in free:
            if extent >= size:
                if extent == size:
                    del free[index]
                else:
                    free[index] = (addr + size, extent - size)
                self.allocated_bytes += size
                region = PhysRegion(self.node_id, addr, size)
                self._live[addr] = region
                bisect.insort(self._live_addrs, addr)
                if self.tracer is not None:
                    self.tracer.instant("mem.alloc", node=self.node_id,
                                        nbytes=size, addr=addr)
                return region
            index += 1
        raise OutOfMemoryError(
            f"node {self.node_id}: no contiguous {size} B extent "
            f"({self.free_bytes} B free, largest {self.largest_free} B)"
        )

    def free(self, region: PhysRegion) -> None:
        """Release an extent back to the (coalescing) free list."""
        if region.freed:
            raise ValueError("double free of physical region")
        if region.node_id != self.node_id:
            raise ValueError("region belongs to a different node")
        region.freed = True
        self.version += 1
        self.allocated_bytes -= region.size
        del self._live[region.addr]
        index = bisect.bisect_left(self._live_addrs, region.addr)
        del self._live_addrs[index]
        self._insert_free(region.addr, region.size)
        if self.tracer is not None:
            self.tracer.instant("mem.free", node=self.node_id,
                                nbytes=region.size, addr=region.addr)

    def resolve(self, addr: int, nbytes: int = 0) -> Tuple[PhysRegion, int]:
        """Map a physical address to (live region, offset within it).

        Used by the RNIC when serving DMA against a physical-address MR
        (LITE's global MR).  Raises if the address range is not backed by
        a single live allocation.
        """
        index = bisect.bisect_right(self._live_addrs, addr) - 1
        if index >= 0:
            region = self._live[self._live_addrs[index]]
            offset = addr - region.addr
            if offset + max(nbytes, 1) <= region.size:
                return region, offset
        raise ValueError(
            f"node {self.node_id}: physical range [{addr:#x}, "
            f"{addr + nbytes:#x}) is not a live allocation"
        )

    def _insert_free(self, addr: int, size: int) -> None:
        # Keep the list address-ordered and coalesce neighbours.
        lo, hi = 0, len(self._free)
        while lo < hi:
            mid = (lo + hi) // 2
            if self._free[mid][0] < addr:
                lo = mid + 1
            else:
                hi = mid
        self._free.insert(lo, (addr, size))
        # Coalesce with successor then predecessor.
        if lo + 1 < len(self._free):
            naddr, nsize = self._free[lo + 1]
            if addr + size == naddr:
                self._free[lo] = (addr, size + nsize)
                del self._free[lo + 1]
                size += nsize
        if lo > 0:
            paddr, psize = self._free[lo - 1]
            if paddr + psize == addr:
                self._free[lo - 1] = (paddr, psize + size)
                del self._free[lo]

    @property
    def free_bytes(self) -> int:
        """Total unallocated bytes."""
        return sum(size for _addr, size in self._free)

    @property
    def resident_bytes(self) -> int:
        """Host bytes backing every live region (cf. ``allocated_bytes``)."""
        return sum(region.resident_bytes for region in self._live.values())

    @property
    def largest_free(self) -> int:
        """Largest contiguous free extent."""
        return max((size for _addr, size in self._free), default=0)

    @property
    def fragment_count(self) -> int:
        """Number of disjoint free extents (fragmentation gauge)."""
        return len(self._free)
