"""Cluster instrumentation: one-call metric snapshots and deltas.

Benchmarks and applications routinely need "what did the hardware do
between A and B": RNIC SRAM hit rates, per-tag CPU time, fabric bytes,
LITE op counts, the fast path's attempts, commits and rejects.
:func:`snapshot` captures it all; ``Snapshot.delta`` subtracts a
baseline.  Every counter belongs to one cluster's simulator, so any
number of clusters in one process read only their own.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import Dict, List, Optional

from .obs.metrics import HistogramSnapshot
from .sim.engine import FastPathStats

__all__ = ["NodeStats", "Snapshot", "snapshot"]

# NodeStats fields that NodeStats.delta does not subtract.
_NOT_COUNTERS = ("node_id", "cpu_busy", "lite_qps")


@dataclass
class NodeStats:
    """Counters of one node at a point in simulated time."""

    node_id: int
    cpu_busy: Dict[str, float] = field(default_factory=dict)
    key_cache_hits: int = 0
    key_cache_misses: int = 0
    pte_cache_hits: int = 0
    pte_cache_misses: int = 0
    qp_cache_hits: int = 0
    qp_cache_misses: int = 0
    wqe_count: int = 0
    dma_bytes: int = 0
    tx_bytes: int = 0
    rx_bytes: int = 0
    dram_allocated: int = 0
    lite_reads: int = 0
    lite_writes: int = 0
    lite_atomics: int = 0
    lite_rpcs_sent: int = 0
    lite_rpcs_served: int = 0
    lite_qps: int = 0
    # The QP lease pools of this node's LITE kernel, summed over peers
    # (cluster/qp_pool.py).
    pool_hits: int = 0
    pool_misses: int = 0
    pool_expiries: int = 0

    @property
    def key_hit_rate(self) -> float:
        """MR-key SRAM hit rate."""
        total = self.key_cache_hits + self.key_cache_misses
        return self.key_cache_hits / total if total else 1.0

    @property
    def pte_hit_rate(self) -> float:
        """PTE SRAM hit rate."""
        total = self.pte_cache_hits + self.pte_cache_misses
        return self.pte_cache_hits / total if total else 1.0

    @property
    def total_cpu(self) -> float:
        """CPU time across every tag."""
        return sum(self.cpu_busy.values())

    def delta(self, baseline: "NodeStats") -> "NodeStats":
        """Counters accumulated since ``baseline`` (same node).  Every
        int counter subtracts; ``lite_qps`` is a level, not a counter."""
        if baseline.node_id != self.node_id:
            raise ValueError("delta between different nodes")
        tags = set(self.cpu_busy) | set(baseline.cpu_busy)
        counters = {
            f.name: getattr(self, f.name) - getattr(baseline, f.name)
            for f in fields(self) if f.name not in _NOT_COUNTERS
        }
        return NodeStats(
            node_id=self.node_id,
            cpu_busy={
                tag: self.cpu_busy.get(tag, 0.0) - baseline.cpu_busy.get(tag, 0.0)
                for tag in tags
            },
            lite_qps=self.lite_qps,
            **counters,
        )


@dataclass
class Snapshot:
    """Whole-cluster counters at one simulated instant."""

    at: float
    nodes: Dict[int, NodeStats]
    fabric_bytes: int
    fabric_transfers: int
    # The simulator's fast-path counters (``verbs/fastpath.py``).
    fastpath: FastPathStats
    # Per-op-type latency histograms (e.g. "op.lt_write"), built from
    # the finished op spans when a tracer is installed; None otherwise.
    op_latency: Optional[Dict[str, HistogramSnapshot]] = None

    def delta(self, baseline: "Snapshot") -> "Snapshot":
        """Counters accumulated since ``baseline``."""
        return Snapshot(
            at=self.at - baseline.at,
            nodes={
                node_id: stats.delta(baseline.nodes[node_id])
                for node_id, stats in self.nodes.items()
                if node_id in baseline.nodes
            },
            fabric_bytes=self.fabric_bytes - baseline.fabric_bytes,
            fabric_transfers=self.fabric_transfers - baseline.fabric_transfers,
            fastpath=self.fastpath.delta(baseline.fastpath),
            op_latency=_hist_delta(self.op_latency, baseline.op_latency),
        )

    def total_cpu(self) -> float:
        """Cluster-wide CPU time."""
        return sum(stats.total_cpu for stats in self.nodes.values())

    def summary(self) -> str:
        """Human-readable digest, one line per node."""
        lines = [f"snapshot @ {self.at:.1f} us: "
                 f"{self.fabric_bytes} fabric bytes, "
                 f"{self.fabric_transfers} transfers"]
        for node_id in sorted(self.nodes):
            stats = self.nodes[node_id]
            lines.append(
                f"  node {node_id}: cpu {stats.total_cpu:.1f} us, "
                f"{stats.wqe_count} WQEs, "
                f"keys {stats.key_hit_rate:.0%} / ptes {stats.pte_hit_rate:.0%} hit, "
                f"lite r/w/a {stats.lite_reads}/{stats.lite_writes}/"
                f"{stats.lite_atomics}"
            )
        if self.op_latency:
            for name in sorted(self.op_latency):
                snap = self.op_latency[name]
                if snap.count == 0:
                    continue
                lines.append(
                    f"  {name}: n={snap.count} "
                    f"p50={snap.percentile(50):.2f} us "
                    f"p99={snap.percentile(99):.2f} us"
                )
        return "\n".join(lines)


def _hist_delta(
    current: Optional[Dict[str, HistogramSnapshot]],
    baseline: Optional[Dict[str, HistogramSnapshot]],
) -> Optional[Dict[str, HistogramSnapshot]]:
    """Delta of two op-latency maps (missing baseline entries = zero)."""
    if current is None:
        return None
    if baseline is None:
        return dict(current)
    return {
        name: (snap.delta(baseline[name]) if name in baseline else snap)
        for name, snap in current.items()
    }


def _node_stats(node) -> NodeStats:
    stats = NodeStats(node_id=node.node_id)
    stats.cpu_busy = dict(node.cpu.busy_time)
    rnic = node.rnic
    stats.key_cache_hits = rnic.key_cache.stats.hits
    stats.key_cache_misses = rnic.key_cache.stats.misses
    stats.pte_cache_hits = rnic.pte_cache.stats.hits
    stats.pte_cache_misses = rnic.pte_cache.stats.misses
    stats.qp_cache_hits = rnic.qp_cache.stats.hits
    stats.qp_cache_misses = rnic.qp_cache.stats.misses
    stats.wqe_count = rnic.wqe_count
    stats.dma_bytes = rnic.bytes_dma
    stats.tx_bytes = node.port.tx_bytes
    stats.rx_bytes = node.port.rx_bytes
    stats.dram_allocated = node.memory.allocated_bytes
    lite = node.lite
    if lite is not None and lite.booted:
        stats.lite_reads = lite.onesided.reads
        stats.lite_writes = lite.onesided.writes
        stats.lite_atomics = lite.onesided.atomics
        stats.lite_rpcs_sent = lite.rpc.calls_sent
        stats.lite_rpcs_served = lite.rpc.calls_served
        stats.lite_qps = lite.total_qps()
        for pool in lite.qp_pools.values():
            stats.pool_hits += pool.hits
            stats.pool_misses += pool.misses
            stats.pool_expiries += pool.expiries
    return stats


def snapshot(cluster) -> Snapshot:
    """Capture every node's counters plus fabric and fast-path totals."""
    tracer = cluster.sim.tracer
    op_latency = None
    if tracer is not None:
        durations: Dict[str, List[float]] = {}
        for span in tracer.op_roots():
            if span.end is not None:
                durations.setdefault(span.name, []).append(span.duration)
        op_latency = {
            name: HistogramSnapshot.from_samples(durations[name])
            for name in sorted(durations)
        }
    return Snapshot(
        at=cluster.sim.now,
        nodes={node.node_id: _node_stats(node) for node in cluster.nodes},
        fabric_bytes=cluster.fabric.total_bytes,
        fabric_transfers=cluster.fabric.transfer_count,
        fastpath=replace(cluster.sim.fastpath),
        op_latency=op_latency,
    )
