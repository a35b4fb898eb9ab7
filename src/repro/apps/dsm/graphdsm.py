"""LITE-Graph-DSM: the user-space graph engine over LITE-DSM (§8.4).

Same GAS structure as LITE-Graph, but vertex data lives in the shared
DSM space and moves via native-looking loads/stores: gathers read
neighbour ranks through the DSM page cache, scatters acquire/write/
release the partition's own rank region.  The extra DSM layer (page
granularity, fault handling, invalidations) is exactly why Figure 19
shows it trailing LITE-Graph while still beating PowerGraph.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..graph.common import (
    GraphCosts,
    PartitionedGraph,
    RANK_BYTES,
    decode_ranks,
    encode_ranks,
    pagerank_apply,
)
from .litedsm import LiteDsm

__all__ = ["LiteGraphDsm"]


class LiteGraphDsm:
    """PageRank with vertex data in distributed shared memory."""

    def __init__(self, kernels, graph: PartitionedGraph,
                 threads_per_node: int = 4, costs: Optional[GraphCosts] = None):
        if len(kernels) < graph.n_partitions:
            raise ValueError("need one LITE node per partition")
        self.graph = graph
        self.costs = costs if costs is not None else GraphCosts()
        self.threads_per_node = threads_per_node
        # Contiguous per-partition regions: partition p's vertex k lives
        # at (region_base[p] + k) * 8.
        self.region_base: List[int] = []
        base = 0
        for part in range(graph.n_partitions):
            self.region_base.append(base)
            base += len(graph.owned[part])
        self.dsm = LiteDsm(
            kernels[: graph.n_partitions],
            f"gdsm{next(kernels[0].sim.ids.dsm_job)}",
            base * RANK_BYTES,
        )
        self.elapsed_us = 0.0

    def _read_region(self, node, part: int):
        """``graph.owned[part]``'s ranks, loaded via ``node`` (generator)."""
        blob = yield from node.read(
            self.region_base[part] * RANK_BYTES,
            len(self.graph.owned[part]) * RANK_BYTES,
        )
        return decode_ranks(blob)

    def _write_own(self, part: int, values: List[float]):
        """Acquire + store + release this partition's region (generator)."""
        node = self.dsm.nodes[part]
        addr = self.region_base[part] * RANK_BYTES
        blob = encode_ranks(values)
        yield from node.acquire(addr, len(blob))
        yield from node.write(addr, blob)
        yield from node.release()

    def _superstep(self, part: int, damping: float, iteration: int):
        graph, costs = self.graph, self.costs
        node = self.dsm.nodes[part]
        cpu = node.ctx.kernel.node.cpu
        # Gather: DSM loads; remote values arrive page-by-page through
        # the cache, refreshed by the producers' release invalidations.
        remote: Dict[int, float] = {}
        for producer in graph.pull_sets[part]:
            values = yield from self._read_region(node, producer)
            remote.update(zip(graph.owned[producer], values))
        own = yield from self._read_region(node, part)
        new_values = pagerank_apply(graph, part, own, remote, damping)
        del own, remote  # every partition's superstep is suspended at once
        compute = costs.compute_us(graph, part)
        procs = [
            node.sim.process(
                cpu.execute(compute / self.threads_per_node, tag="gdsm-compute")
            )
            for _ in range(self.threads_per_node)
        ]
        yield node.sim.all_of(procs)
        yield from self._write_own(part, new_values)
        yield from node.barrier(f"step{iteration}")

    def run(self, iterations: int, damping: float = 0.85):
        """Run PageRank (generator; returns the global rank list)."""
        graph = self.graph
        sim = self.dsm.nodes[0].sim
        yield from self.dsm.build()
        # Initialize every partition's region.
        init = [
            sim.process(
                self._write_own(
                    part,
                    [1.0 / graph.n_vertices] * len(graph.owned[part]),
                )
            )
            for part in range(graph.n_partitions)
        ]
        yield sim.all_of(init)
        barriers = [
            sim.process(self.dsm.nodes[part].barrier("init"))
            for part in range(graph.n_partitions)
        ]
        yield sim.all_of(barriers)
        start = sim.now
        for iteration in range(iterations):
            steps = [
                sim.process(self._superstep(part, damping, iteration))
                for part in range(graph.n_partitions)
            ]
            yield sim.all_of(steps)
        self.elapsed_us = sim.now - start
        # Collect the final ranks through the DSM itself.
        collector = self.dsm.nodes[0]
        regions = []
        for part in range(graph.n_partitions):
            regions.append((yield from self._read_region(collector, part)))
        return graph.assemble(regions)
