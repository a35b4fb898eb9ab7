"""Phoenix: single-node multi-threaded MapReduce (Ranger et al., HPCA '07).

The paper ports LITE-MR from this system.  All threads run on one node
and communicate through shared memory; the distinguishing cost is the
single *global tree-structured index* that map threads update under
contention (the LITE paper's §8.2 analysis of why distributed LITE-MR
can beat it in the map/reduce phases).
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Sequence

from ...sim import Store
from .common import (
    MrCosts,
    encode_counts,
    map_task,
    merge_counts,
    partition_counts,
    split_tasks,
)

__all__ = ["PhoenixMR"]


class PhoenixMR:
    """Single-node WordCount with map / reduce / merge phases."""

    def __init__(self, node, n_threads: int = 8, n_partitions: int = 8,
                 costs: MrCosts = None):
        self.node = node
        self.sim = node.sim
        self.n_threads = n_threads
        self.n_partitions = n_partitions
        self.costs = costs if costs is not None else MrCosts()
        self.phase_times: Dict[str, float] = {}
        self.result: Counter = Counter()

    def run(self, documents: Sequence[bytes]):
        """Execute the full job (generator; returns final Counter)."""
        sim, cpu, costs = self.sim, self.node.cpu, self.costs

        # ---- map phase -----------------------------------------------
        start = sim.now
        tasks = Store(sim)
        for span in split_tasks(len(documents), self.n_threads * 4):
            tasks.put(span)
        partitions: List[List[Counter]] = [[] for _ in range(self.n_partitions)]

        def map_thread():
            while len(tasks) > 0:
                lo, hi = yield tasks.get()
                local, nbytes = map_task(documents[lo:hi])
                # Tokenizing + global-tree-index inserts: the shared
                # index is on the path of every token (§8.2).
                yield from cpu.execute(
                    nbytes * costs.map_us_per_byte * costs.phoenix_index_factor,
                    tag="phoenix-map",
                )
                yield from cpu.execute(
                    len(local) * costs.combine_us_per_pair
                    * costs.phoenix_index_factor,
                    tag="phoenix-map",
                )
                for index, part in enumerate(
                    partition_counts(local, self.n_partitions)
                ):
                    partitions[index].append(part)

        mappers = [self.sim.process(map_thread()) for _ in range(self.n_threads)]
        yield sim.all_of(mappers)
        self.phase_times["map"] = sim.now - start

        # ---- reduce phase ---------------------------------------------
        start = sim.now
        reduced: List[Counter] = [None] * self.n_partitions
        part_queue = Store(sim)
        for index in range(self.n_partitions):
            part_queue.put(index)

        def reduce_thread():
            while len(part_queue) > 0:
                index = yield part_queue.get()
                merged = merge_counts(partitions[index])
                yield from cpu.execute(
                    len(merged) * costs.reduce_us_per_pair, tag="phoenix-reduce"
                )
                reduced[index] = merged

        reducers = [self.sim.process(reduce_thread()) for _ in range(self.n_threads)]
        yield sim.all_of(reducers)
        self.phase_times["reduce"] = sim.now - start

        # ---- merge phase (rounds of 2-way merges over sorted runs) ----
        start = sim.now
        runs = [counts for counts in reduced if counts]
        while len(runs) > 1:
            next_runs = []
            merge_jobs = Store(sim)
            for index in range(0, len(runs) - 1, 2):
                merge_jobs.put((runs[index], runs[index + 1]))
            if len(runs) % 2:
                next_runs.append(runs[-1])

            def merge_thread():
                while len(merge_jobs) > 0:
                    left, right = yield merge_jobs.get()
                    merged = merge_counts([left, right])
                    yield from cpu.execute(
                        (len(left) + len(right)) * costs.merge_us_per_pair,
                        tag="phoenix-merge",
                    )
                    next_runs.append(merged)

            workers = [
                self.sim.process(merge_thread())
                for _ in range(min(self.n_threads, max(1, len(runs) // 2)))
            ]
            yield sim.all_of(workers)
            runs = next_runs
        self.phase_times["merge"] = sim.now - start

        self.result = runs[0] if runs else Counter()
        self.phase_times["total"] = sum(
            self.phase_times[p] for p in ("map", "reduce", "merge")
        )
        return self.result
