"""Hadoop-over-IPoIB baseline for Figure 18.

Same WordCount computation, but with Hadoop's structure and costs:
per-task framework overhead (scheduling, JVM reuse), intermediate
results spilled to and re-read from disk, and the shuffle moving every
intermediate byte over kernel TCP on IPoIB — the configuration the
paper benchmarks against ("We run Hadoop on IPoIB, which performs much
worse than LITE's RDMA stack").
"""

from __future__ import annotations

import itertools
from collections import Counter
from typing import Dict, List, Sequence

from ...sim import Store
from .common import (
    MrCosts,
    decode_counts,
    encode_counts,
    map_task,
    merge_counts,
    partition_counts,
    split_tasks,
)

__all__ = ["HadoopMR"]

_port_counter = itertools.count(start=20000)


class HadoopMR:
    """WordCount with Hadoop-style phases over the TCP substrate."""

    def __init__(self, nodes, total_threads: int = 8, n_partitions: int = 8,
                 costs: MrCosts = None):
        if len(nodes) < 2:
            raise ValueError("need a master plus at least one worker node")
        self.master_node = nodes[0]
        self.worker_nodes = list(nodes[1:])
        self.sim = self.master_node.sim
        self.total_threads = total_threads
        self.n_partitions = n_partitions
        self.costs = costs if costs is not None else MrCosts()
        self.phase_times: Dict[str, float] = {}
        self.result: Counter = Counter()

    def _spill(self, node, nbytes: int, tag: str):
        """Write-then-read intermediate data through the disk model."""
        cost = 2 * nbytes * self.costs.hadoop_spill_us_per_byte
        yield from node.cpu.execute(cost, tag=tag)

    def run(self, documents: Sequence[bytes]):
        """Execute the job (generator; returns the final Counter)."""
        sim, costs = self.sim, self.costs
        n_workers = len(self.worker_nodes)
        threads_each = max(1, self.total_threads // n_workers)
        shards: List[List[bytes]] = [[] for _ in range(n_workers)]
        for index, document in enumerate(documents):
            shards[index % n_workers].append(document)

        # ---- map phase (+ combine + spill) ------------------------------
        start = sim.now
        map_outputs: List[List[bytes]] = [
            [b""] * self.n_partitions for _ in range(n_workers)
        ]

        def map_worker(worker_index: int):
            node = self.worker_nodes[worker_index]
            docs = shards[worker_index]
            tasks = Store(sim)
            for span in split_tasks(len(docs), threads_each * 4):
                tasks.put(span)
            finalized = [Counter() for _ in range(self.n_partitions)]

            def map_thread():
                while len(tasks) > 0:
                    lo, hi = yield tasks.get()
                    yield from node.cpu.execute(
                        costs.hadoop_task_overhead_us, tag="hadoop-framework"
                    )
                    local, nbytes = map_task(docs[lo:hi])
                    yield from node.cpu.execute(
                        nbytes * costs.map_us_per_byte, tag="hadoop-map"
                    )
                    yield from node.cpu.execute(
                        len(local) * costs.combine_us_per_pair, tag="hadoop-map"
                    )
                    for part_index, part in enumerate(
                        partition_counts(local, self.n_partitions)
                    ):
                        finalized[part_index].update(part)

            threads = [sim.process(map_thread()) for _ in range(threads_each)]
            yield sim.all_of(threads)
            for part_index, counts in enumerate(finalized):
                blob = encode_counts(counts)
                yield from node.cpu.execute(
                    len(blob) * costs.serialize_us_per_byte, tag="hadoop-ser"
                )
                yield from self._spill(node, len(blob), "hadoop-spill")
                map_outputs[worker_index][part_index] = blob

        procs = [sim.process(map_worker(index)) for index in range(n_workers)]
        yield sim.all_of(procs)
        self.phase_times["map"] = sim.now - start

        # ---- shuffle + reduce over TCP ---------------------------------
        start = sim.now
        reduced: List[bytes] = [b""] * self.n_partitions

        def reduce_worker(part_index: int):
            node = self.worker_nodes[part_index % n_workers]
            port = next(_port_counter)
            listener = node.tcp.listen(port)
            received: List[bytes] = []

            def fetch_server():
                for _ in range(n_workers):
                    conn = yield from listener.accept()
                    blob = yield from conn.recv_msg()
                    received.append(blob)

            server_proc = sim.process(fetch_server())

            def pusher(src_index: int):
                src_node = self.worker_nodes[src_index]
                blob = map_outputs[src_index][part_index]
                yield from self._spill(src_node, len(blob), "hadoop-spill")
                conn = yield from src_node.tcp.connect(node.node_id, port)
                yield from conn.send_msg(blob)

            pushers = [sim.process(pusher(index)) for index in range(n_workers)]
            yield sim.all_of(pushers)
            yield server_proc
            yield from node.cpu.execute(
                costs.hadoop_task_overhead_us, tag="hadoop-framework"
            )
            parts = [decode_counts(blob) for blob in received]
            merged = merge_counts(parts)
            yield from node.cpu.execute(
                len(merged) * costs.reduce_us_per_pair, tag="hadoop-reduce"
            )
            blob = encode_counts(merged)
            yield from self._spill(node, len(blob), "hadoop-spill")
            reduced[part_index] = blob

        procs = [
            sim.process(reduce_worker(index)) for index in range(self.n_partitions)
        ]
        yield sim.all_of(procs)
        self.phase_times["reduce"] = sim.now - start

        # ---- final merge at the master over TCP --------------------------
        start = sim.now
        collected: List[Counter] = []
        port = next(_port_counter)
        listener = self.master_node.tcp.listen(port)

        def collector():
            for _ in range(self.n_partitions):
                conn = yield from listener.accept()
                blob = yield from conn.recv_msg()
                collected.append(decode_counts(blob))

        collector_proc = sim.process(collector())

        def sender(part_index: int):
            node = self.worker_nodes[part_index % n_workers]
            conn = yield from node.tcp.connect(self.master_node.node_id, port)
            yield from conn.send_msg(reduced[part_index])

        senders = [sim.process(sender(index)) for index in range(self.n_partitions)]
        yield sim.all_of(senders)
        yield collector_proc
        total_pairs = sum(len(part) for part in collected)
        yield from self.master_node.cpu.execute(
            total_pairs * costs.merge_us_per_pair, tag="hadoop-merge"
        )
        self.result = merge_counts(collected)
        self.phase_times["merge"] = sim.now - start
        self.phase_times["total"] = sum(
            self.phase_times[phase] for phase in ("map", "reduce", "merge")
        )
        return self.result
