"""Memory regions: virtual-address MRs and physical-address MRs.

A *virtual* MR is what user-space Verbs gives you: registration pins its
pages, the RNIC must resolve its PTEs on every access, and its record
competes for key-cache SRAM (paper §2.4).

A *physical* MR is the kernel-only registration path LITE exploits
(§4.1): it carries raw physical addresses, needs no PTEs, and one record
covers all of DRAM.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..hw.memory import PhysRegion
from .wr import Access

__all__ = ["MemoryRegion"]


class MemoryRegion:
    """A registered memory region; addressing is by ``base_addr + offset``."""

    # Fig 4 registers tens of thousands of these: no per-instance dict.
    __slots__ = ("device", "pd", "lkey", "rkey", "base_addr", "size",
                 "access", "_access_bits", "region", "physical",
                 "deregistered")

    def __init__(
        self,
        device,
        pd,
        lkey: int,
        rkey: int,
        base_addr: int,
        size: int,
        access: Access,
        region: Optional[PhysRegion] = None,
        physical: bool = False,
    ):
        self.device = device
        self.pd = pd
        self.lkey = lkey
        self.rkey = rkey
        self.base_addr = base_addr
        self.size = size
        self.access = access
        # Raw flag bits for the responder's permission check: plain int
        # ``&`` skips enum.Flag's __and__ machinery on every inbound op
        # (``_value_`` is a plain attribute, ``.value`` an enum property).
        self._access_bits = access._value_
        self.region = region
        self.physical = physical
        self.deregistered = False

    # -- addressing ------------------------------------------------------
    def _backing(self, offset: int, nbytes: int) -> Tuple[PhysRegion, int]:
        """The physical region and intra-region offset for an access."""
        if self.deregistered:
            raise ValueError("access through a deregistered MR")
        if self.region is not None:
            return self.region, offset
        # Physical global MR: resolve against the host's live allocations.
        return self.device.node.memory.resolve(self.base_addr + offset, nbytes)

    def read(self, offset: int, nbytes: int) -> bytes:
        """Read real bytes from the MR's backing memory."""
        region, reg_off = self._backing(offset, nbytes)
        tracer = self.device.sim.tracer
        if tracer is not None:
            tracer.metrics.count("mr.bytes_read", nbytes)
        return region.read(reg_off, nbytes)

    def write(self, offset: int, payload) -> None:
        """Write real bytes (any bytes-like) into the MR's backing memory."""
        region, reg_off = self._backing(offset, len(payload))
        tracer = self.device.sim.tracer
        if tracer is not None:
            tracer.metrics.count("mr.bytes_written", len(payload))
        region.write(reg_off, payload)

    # -- RNIC cost inputs --------------------------------------------------
    def page_ids(self, offset: int, nbytes: int) -> List:
        """Pages needing cached PTEs; empty for physical MRs (no PTEs)."""
        if self.physical or nbytes <= 0:
            return []
        assert self.region is not None
        return self.region.page_ids(self.device.params.page_size, offset, nbytes)

    def num_pages(self) -> int:
        """4 KB pages covered by this MR (pinning/PTE accounting)."""
        page = self.device.params.page_size
        return (self.size + page - 1) // page

    def __repr__(self) -> str:
        kind = "phys" if self.physical else "virt"
        return (
            f"MR({kind}, node={self.device.node.node_id}, lkey={self.lkey}, "
            f"rkey={self.rkey}, base={self.base_addr:#x}, size={self.size})"
        )
