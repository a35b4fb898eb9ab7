"""PowerGraph baseline: the same GAS computation over IPoIB TCP.

PowerGraph (OSDI '12) as deployed in the paper's evaluation runs its
RPC/serialization layer over kernel TCP on IPoIB.  Each superstep every
partition ships the packed values its consumers need through a TCP
connection, paying the GraphLab per-value software overhead on top of
the kernel network stack — the combination Figure 19 shows losing to
LITE-Graph by 3.5-5.6x.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional

from .common import (
    GraphCosts,
    PartitionedGraph,
    decode_ranks,
    encode_ranks,
    pagerank_apply,
)

__all__ = ["PowerGraphSim"]

_port_counter = itertools.count(start=30000)


class PowerGraphSim:
    """GAS PageRank with TCP value exchange."""

    def __init__(self, nodes, graph: PartitionedGraph,
                 threads_per_node: int = 4, costs: Optional[GraphCosts] = None):
        if len(nodes) < graph.n_partitions:
            raise ValueError("need one node per partition")
        self.nodes = nodes[: graph.n_partitions]
        self.sim = self.nodes[0].sim
        self.graph = graph
        self.threads_per_node = threads_per_node
        self.costs = costs if costs is not None else GraphCosts()
        self.ranks: List[List[float]] = [  # ranks[p] aligns with owned[p]
            [1.0 / graph.n_vertices] * len(owned) for owned in graph.owned
        ]
        self._conns: Dict[tuple, object] = {}
        self.elapsed_us = 0.0

    # -- connection mesh ----------------------------------------------------
    def _build_mesh(self):
        graph = self.graph
        listeners = {}
        ports = {}
        for part in range(graph.n_partitions):
            port = next(_port_counter)
            ports[part] = port
            listeners[part] = self.nodes[part].tcp.listen(port)

        accepted = {}

        def acceptor(part, expected):
            for _ in range(expected):
                conn = yield from listeners[part].accept()
                tag = yield from conn.recv_msg()
                accepted[(int(tag.decode()), part)] = conn

        expect = [0] * graph.n_partitions
        pairs = []
        for consumer in range(graph.n_partitions):
            for producer in graph.pull_sets[consumer]:
                # producer pushes to consumer each superstep.
                pairs.append((producer, consumer))
                expect[consumer] += 1
        procs = [
            self.sim.process(acceptor(part, expect[part]))
            for part in range(graph.n_partitions)
        ]

        def dialer(producer, consumer):
            conn = yield from self.nodes[producer].tcp.connect(
                self.nodes[consumer].node_id, ports[consumer]
            )
            yield from conn.send_msg(str(producer).encode())
            self._conns[(producer, consumer)] = conn

        dial_procs = [self.sim.process(dialer(p, c)) for p, c in pairs]
        yield self.sim.all_of(procs + dial_procs)
        for key, conn in accepted.items():
            self._conns[key + ("rx",)] = conn

    # -- one superstep of one partition ---------------------------------------
    def _superstep(self, part: int, damping: float, barrier_done: List[int]):
        graph, costs = self.graph, self.costs
        node = self.nodes[part]
        received: Dict[int, float] = {}

        def pusher(consumer: int):
            needed = graph.pull_sets[consumer][part]
            own = self.ranks[part]
            values = [own[v // graph.n_partitions] for v in needed]
            blob = encode_ranks(values)
            # GraphLab per-value software overhead + serialization.
            yield from node.cpu.execute(
                len(values) * costs.powergraph_us_per_value, tag="pg-comm"
            )
            conn = self._conns[(part, consumer)]
            yield from conn.send_msg(blob)

        def receiver(producer: int):
            needed = graph.pull_sets[part][producer]
            conn = self._conns[(producer, part, "rx")]
            blob = yield from conn.recv_msg()
            yield from node.cpu.execute(
                len(needed) * costs.powergraph_us_per_value, tag="pg-comm"
            )
            received.update(zip(needed, decode_ranks(blob)))

        consumers = [
            c for c in range(graph.n_partitions)
            if part in graph.pull_sets[c] and c != part
        ]
        producers = list(graph.pull_sets[part].keys())
        procs = [self.sim.process(pusher(c)) for c in consumers]
        procs += [self.sim.process(receiver(p)) for p in producers]
        if procs:
            yield self.sim.all_of(procs)

        # Apply (same kernel and compute model as LITE-Graph).
        self.ranks[part] = pagerank_apply(
            graph, part, self.ranks[part], received, damping
        )
        compute = costs.compute_us(graph, part)
        if self.threads_per_node > 1:
            procs = [
                self.sim.process(
                    node.cpu.execute(compute / self.threads_per_node, tag="pg-compute")
                )
                for _ in range(self.threads_per_node)
            ]
            yield self.sim.all_of(procs)
        else:
            yield from node.cpu.execute(compute, tag="pg-compute")
        barrier_done.append(part)

    def run(self, iterations: int, damping: float = 0.85):
        """Run PageRank (generator; returns the global rank list)."""
        yield from self._build_mesh()
        # Setup (registration, connection handshakes) is excluded from
        # the reported run time, as in the paper's measurements.
        start = self.sim.now
        for _iteration in range(iterations):
            done: List[int] = []
            steps = [
                self.sim.process(self._superstep(part, damping, done))
                for part in range(self.graph.n_partitions)
            ]
            yield self.sim.all_of(steps)
        self.elapsed_us = self.sim.now - start
        return self.graph.assemble(self.ranks)
