"""Grappa baseline: latency-tolerant DSM with message aggregation.

Grappa (ATC '15) runs on its own InfiniBand stack and masks small-
message cost by *aggregating* many tiny delegate operations into large
network buffers before flushing.  Per value it is cheaper than
PowerGraph's RPC layer, but every aggregation buffer pays a flush
latency, and the transport is two-sided messaging (here: Verbs RC
sends), not one-sided reads — which is why Figure 19 puts it between
PowerGraph and LITE-Graph.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ...sim import Store
from ...verbs import Access, Opcode, RecvWR, SendWR, WcStatus
from .common import (
    GraphCosts,
    PartitionedGraph,
    decode_ranks,
    encode_ranks,
    pagerank_apply,
)

__all__ = ["GrappaSim"]

_BOUNCE_BYTES = 16 * 1024
_BOUNCE_SLOTS = 512


def _bounce_offset(slot: int) -> int:
    return (slot % _BOUNCE_SLOTS) * _BOUNCE_BYTES


def _bounce_buffer(mr, slot: int) -> RecvWR:
    """A recv WR for bounce buffer ``slot``; its wr_id is the slot, so
    a CQE names where its bytes landed."""
    return RecvWR(mr=mr, offset=_bounce_offset(slot), length=_BOUNCE_BYTES,
                  wr_id=slot)


class GrappaSim:
    """GAS PageRank over an aggregating message substrate."""

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
        self._qps: Dict[tuple, object] = {}
        self._mrs: Dict[int, object] = {}
        self._inbox: List[Store] = [Store(self.sim) for _ in range(graph.n_partitions)]
        self.elapsed_us = 0.0

    def _build_mesh(self):
        """RC QP mesh with pre-posted bounce buffers (generator)."""
        graph = self.graph
        pds = {}
        for part in range(graph.n_partitions):
            node = self.nodes[part]
            pds[part] = node.device.alloc_pd()
            self._mrs[part] = yield from node.device.reg_mr(
                pds[part], 8 * 1024 * 1024, Access.ALL
            )
        for a in range(graph.n_partitions):
            for b in range(a + 1, graph.n_partitions):
                qa = self.nodes[a].device.create_qp(pds[a], "RC")
                qb = self.nodes[b].device.create_qp(pds[b], "RC")
                self.nodes[a].device.connect(qa, qb)
                self._qps[(a, b)] = qa
                self._qps[(b, a)] = qb
        for part in range(graph.n_partitions):
            self.sim.process(self._receiver_loop(part), name=f"grappa-rx{part}")

    def _receiver_loop(self, part: int):
        """Drain every recv CQ of this partition's QPs into the inbox."""
        graph = self.graph
        node = self.nodes[part]
        qps = [self._qps[(part, other)] for other in range(graph.n_partitions)
               if other != part]
        mr = self._mrs[part]
        slot = 0
        for qp in qps:
            for _ in range(32):
                qp.post_recv(_bounce_buffer(mr, slot))
                slot += 1
        events = Store(self.sim)

        def pump(qp):
            while True:
                wc = yield qp.recv_cq.wait_wc()
                events.put((qp, wc))

        for qp in qps:
            self.sim.process(pump(qp), name="grappa-pump")
        while True:
            qp, wc = yield from node.cpu.busy_wait(events.get(), tag="grappa-poll")
            # Locate the landing buffer; hand the bytes to the app.
            self._inbox[part].put(wc)
            qp.post_recv(_bounce_buffer(mr, slot))
            slot += 1

    def _send_aggregated(self, src: int, dst: int, blob: bytes, n_values: int):
        """Ship values in aggregation-buffer-sized flushes (generator)."""
        costs = self.costs
        node = self.nodes[src]
        buffer_bytes = costs.grappa_buffer_values * 8
        offset = 0
        while offset < len(blob) or (offset == 0 and not blob):
            piece = blob[offset : offset + buffer_bytes]
            values = len(piece) // 8
            yield from node.cpu.execute(
                values * costs.grappa_us_per_value, tag="grappa-comm"
            )
            # The aggregator waits to fill a buffer before flushing.
            yield self.sim.timeout(costs.grappa_flush_us)
            qp = self._qps[(src, dst)]
            header = src.to_bytes(4, "little") + len(piece).to_bytes(4, "little")
            wr = SendWR(Opcode.SEND, inline_data=header + piece, signaled=False)
            qp.post_send(wr)
            offset += buffer_bytes
            if not blob:
                break

    def _superstep(self, part: int, damping: float):
        graph, costs = self.graph, self.costs
        node = self.nodes[part]
        received: Dict[int, float] = {}
        producers = list(graph.pull_sets[part].keys())

        def pusher(consumer: int):
            needed = graph.pull_sets[consumer][part]
            own = self.ranks[part]
            blob = encode_ranks([own[v // graph.n_partitions] for v in needed])
            yield from self._send_aggregated(part, consumer, blob, len(needed))

        def receiver():
            pending = {p: graph.pull_sets[part][p] for p in producers}
            progress = {p: 0 for p in producers}
            chunks: Dict[int, List[bytes]] = {p: [] for p in producers}
            outstanding = sum(
                (len(v) * 8 + costs.grappa_buffer_values * 8 - 1)
                // (costs.grappa_buffer_values * 8)
                for v in pending.values()
            )
            mr = self._mrs[part]
            for _ in range(outstanding):
                wc = yield self._inbox[part].get()
                # Read header from the recv slot the payload landed in.
                yield from node.cpu.execute(
                    (wc.byte_len // 8) * costs.grappa_us_per_value,
                    tag="grappa-comm",
                )
                src, length, payload = self._parse(mr, wc)

                chunks[src].append(payload)
                progress[src] += length
            for producer in producers:
                blob = b"".join(chunks[producer])
                received.update(zip(pending[producer], decode_ranks(blob)))

        procs = []
        for consumer in range(graph.n_partitions):
            if consumer != part and part in graph.pull_sets[consumer]:
                procs.append(self.sim.process(pusher(consumer)))
        recv_proc = self.sim.process(receiver())
        yield self.sim.all_of(procs + [recv_proc])

        self.ranks[part] = pagerank_apply(
            graph, part, self.ranks[part], received, damping
        )
        compute = costs.compute_us(graph, part)
        workers = [
            self.sim.process(
                node.cpu.execute(compute / self.threads_per_node, tag="grappa-compute")
            )
            for _ in range(self.threads_per_node)
        ]
        yield self.sim.all_of(workers)

    def _parse(self, mr, wc):
        """Extract (src, length, payload) from a landed aggregate."""
        offset = _bounce_offset(wc.wr_id)
        header = mr.read(offset, 8)
        src = int.from_bytes(header[:4], "little")
        length = int.from_bytes(header[4:8], "little")
        payload = mr.read(offset + 8, length)
        return src, length, payload

    def run(self, iterations: int, damping: float = 0.85):
        """Run PageRank (generator; returns the global rank list)."""
        yield from self._build_mesh()
        # Setup (registration, connection handshakes) is excluded from
        # the reported run time, as in the paper's measurements.
        start = self.sim.now
        for _iteration in range(iterations):
            steps = [
                self.sim.process(self._superstep(part, damping))
                for part in range(self.graph.n_partitions)
            ]
            yield self.sim.all_of(steps)
        self.elapsed_us = self.sim.now - start
        return self.graph.assemble(self.ranks)
