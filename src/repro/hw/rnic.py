"""RNIC model: WQE processing pipeline in front of finite SRAM caches.

Every work request (local post or incoming one-sided packet) occupies
one of the RNIC's processing units for its base cost plus whatever the
SRAM lookups add:

- *key lookup*: the MR record (lkey/rkey, bounds, permissions) must be
  resident; a miss fetches it from host memory over PCIe.
- *PTE lookups*: for MRs registered by virtual address, every 4 KB page
  the access touches needs a cached PTE; misses fetch from the host page
  table.  MRs registered by **physical address** (LITE's global MR) skip
  this stage entirely — the core trick of §4.1.
- *QP-state lookup*: the connection context for the QP.

Cache-miss time is spent *inside* the pipeline unit, so misses burn
RNIC throughput exactly the way Figure 5's thrashing collapse shows.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from ..sim import Resource, Simulator
from .caches import LruCache
from .params import SimParams

__all__ = ["Rnic"]


class Rnic:
    """One 40 Gbps ConnectX-3-class NIC attached to a host."""

    def __init__(self, sim: Simulator, node_id: int, params: SimParams):
        self.sim = sim
        self.node_id = node_id
        self.params = params
        self.key_cache = LruCache(params.mr_key_cache_entries, name="mr-keys")
        self.pte_cache = LruCache(params.pte_cache_entries, name="ptes")
        self.qp_cache = LruCache(params.qp_cache_entries, name="qp-state")
        self._pipeline = Resource(sim, capacity=params.rnic_processing_units)
        self.wqe_count = 0
        self.bytes_dma = 0

    # -- SRAM lookup costs (computed eagerly, spent inside process()) ---
    def key_lookup_cost(self, key: int) -> float:
        """Cost of locating one MR record in SRAM."""
        hit = self.key_cache.access(key)
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.instant("rnic.cache.hit" if hit else "rnic.cache.miss",
                           node=self.node_id, cache="key")
        return 0.0 if hit else self.params.mr_key_miss_penalty_us

    def pte_lookup_cost(self, page_ids: Sequence) -> float:
        """Cost of resolving the PTEs for every page an access touches."""
        hits, misses = self.pte_cache.access_many(page_ids)
        # Accumulate the penalty per miss (not misses * penalty): repeated
        # float addition is what the golden traces were recorded with, and
        # the two shapes are not bit-identical for every count.
        cost = 0.0
        if misses:
            penalty = self.params.pte_miss_penalty_us
            for _ in range(misses):
                cost += penalty
        tracer = self.sim.tracer
        if tracer is not None and (hits or misses):
            # One summary marker per access, not one per page.
            tracer.instant("rnic.cache.miss" if misses else "rnic.cache.hit",
                           node=self.node_id, cache="pte",
                           hits=hits, misses=misses)
        return cost

    def qp_lookup_cost(self, qp_id: int) -> float:
        """Cost of resolving one QP's connection state in SRAM."""
        hit = self.qp_cache.access(qp_id)
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.instant("rnic.cache.hit" if hit else "rnic.cache.miss",
                           node=self.node_id, cache="qp")
        return 0.0 if hit else self.params.qp_miss_penalty_us

    def invalidate_mr(self, key: int, page_ids: Iterable = ()) -> None:
        """Deregistration drops the MR record and its cached PTEs.

        Batch invalidation: the MR knows exactly which page ids it
        covered, so this is O(pages) instead of a full PTE-cache scan
        per deregistration (MR-churn sweeps call this per unregister).
        """
        self.key_cache.invalidate(key)
        if page_ids:
            self.pte_cache.invalidate_many(page_ids)

    def resize_caches(self, key_entries: int = None, pte_entries: int = None,
                      qp_entries: int = None) -> None:
        """Replace one or more SRAM caches with fresh, resized ones.

        Contents and stats start empty (an SRAM reconfiguration flushes
        it).  Every reader, the fast path's probes included, reaches the
        caches through this RNIC, so the new objects are seen at once.
        """
        if key_entries is not None:
            self.key_cache = LruCache(key_entries, name="mr-keys")
        if pte_entries is not None:
            self.pte_cache = LruCache(pte_entries, name="ptes")
        if qp_entries is not None:
            self.qp_cache = LruCache(qp_entries, name="qp-state")

    # -- pipeline --------------------------------------------------------
    def process(self, extra_cost: float = 0.0, dma_bytes: int = 0):
        """Occupy one processing unit for one work request.

        ``extra_cost`` carries the SRAM miss penalties; ``dma_bytes``
        adds the PCIe DMA transfer for the payload.
        """
        duration = self.params.prices.occupancy(extra_cost, dma_bytes)
        self.bytes_dma += dma_bytes
        tracer = self.sim.tracer
        # rnic.proc covers pipeline-queue wait + occupancy; q_us records
        # the queue-wait share so consumers can isolate pure occupancy.
        span = (tracer.begin("rnic.proc", node=self.node_id, nbytes=dma_bytes,
                             lookup_us=extra_cost)
                if tracer is not None else None)
        try:
            yield self._pipeline.request()
            if span is not None:
                span.attrs["q_us"] = self.sim.now - span.start
            try:
                yield self.sim.timeout(duration)
            finally:
                self._pipeline.release()
        except BaseException as exc:
            if span is not None:
                tracer.end(span, outcome="err:" + type(exc).__name__)
            raise
        self.wqe_count += 1
        if span is None:
            return
        if dma_bytes:
            # The DMA burns the tail of the occupancy window.
            now = self.sim.now
            tracer.interval("rnic.dma", now - self.params.prices.dma(dma_bytes),
                            now, node=self.node_id, nbytes=dma_bytes,
                            parent=span)
        tracer.end(span)
