"""LITE-Graph: PowerGraph's design on LITE (paper §8.3).

Vertex-centric gather-apply-scatter with delta-style packed exchange:

- every partition owns its vertices' ranks in local LMRs;
- during *scatter*, a partition packs, for each consumer partition, the
  rank values that consumer's gather will need into a named export LMR
  (updates protected by LT_lock, the paper's consistency mechanism —
  splitting global data into more LMRs raises parallelism);
- during *gather*, consumers pull those packed exports with one
  one-sided LT_read per producer — no producer CPU involved;
- an LT_barrier separates the steps (§8.3).

The arithmetic is real (one bulk ``program.apply`` per partition per
superstep); compute time is charged per edge and per vertex from the
shared :class:`GraphCosts` model.  Engines are single-use.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ...core import LiteContext, Permission, lite_boot
from .algorithms import PageRankProgram, VertexProgram
from .common import (
    GraphCosts,
    PartitionedGraph,
    decode_ranks,
    encode_ranks,
    RANK_BYTES,
)

__all__ = ["LiteGraph"]

_OPEN = Permission.READ | Permission.WRITE


class _Partition:
    """Engine state for one partition (one LITE node)."""

    def __init__(self, engine: "LiteGraph", part: int, kernel):
        self.engine = engine
        self.part = part
        self.ctx = LiteContext(kernel, f"litegraph-p{part}")
        self.ranks: List[float] = []  # aligned with graph.owned[part]
        self.export_handles: Dict[int, object] = {}   # consumer -> lh
        self.import_handles: Dict[int, object] = {}   # producer -> lh
        self.export_locks: Dict[int, object] = {}

    # -- setup ------------------------------------------------------------
    def build(self):
        graph, job = self.engine.graph, self.engine.job
        program = self.engine.program
        self.ranks = [
            program.initial(vertex, graph) for vertex in graph.owned[self.part]
        ]
        # Export LMRs: one per consumer that pulls from this partition.
        for consumer in range(graph.n_partitions):
            if consumer == self.part:
                continue
            needed = graph.pull_sets[consumer].get(self.part)
            if not needed:
                continue
            name = f"{job}:exp:{self.part}:{consumer}"
            handle = yield from self.ctx.lt_malloc(
                len(needed) * RANK_BYTES, name=name, default_perm=_OPEN
            )
            self.export_handles[consumer] = handle
            lock = yield from self.ctx.lt_create_lock(
                f"{name}:lock", owner_id=self.ctx.lite_id
            )
            self.export_locks[consumer] = lock
        yield from self.ctx.lt_barrier(f"{job}:built", graph.n_partitions)
        # Import handles: map every producer's export for this partition.
        for producer, needed in graph.pull_sets[self.part].items():
            if not needed:
                continue
            name = f"{job}:exp:{producer}:{self.part}"
            self.import_handles[producer] = yield from self.ctx.lt_map(name, _OPEN)
        # Publish the initial exports so iteration 0 gathers real values.
        yield from self._scatter()
        yield from self.ctx.lt_barrier(f"{job}:init", graph.n_partitions)

    # -- GAS steps ----------------------------------------------------------
    def _scatter(self):
        """Pack and publish this partition's values for each consumer."""
        graph, costs = self.engine.graph, self.engine.costs
        cpu = self.ctx.kernel.node.cpu
        stride = graph.n_partitions
        for consumer, handle in self.export_handles.items():
            needed = graph.pull_sets[consumer][self.part]
            blob = encode_ranks([self.ranks[v // stride] for v in needed])
            yield from cpu.execute(
                len(needed) * costs.scatter_us_per_edge, tag="litegraph-scatter"
            )
            lock = self.export_locks[consumer]
            yield from self.ctx.lt_lock(lock)
            yield from self.ctx.lt_write(handle, 0, blob)
            yield from self.ctx.lt_unlock(lock)

    def _gather(self) -> Dict[int, float]:
        """Pull remote values; returns vertex -> rank for the pull set."""
        graph = self.engine.graph
        remote: Dict[int, float] = {}
        for producer, handle in self.import_handles.items():
            needed = graph.pull_sets[self.part][producer]
            blob = yield from self.ctx.lt_read(handle, 0, len(needed) * RANK_BYTES)
            remote.update(zip(needed, decode_ranks(blob)))
        return remote

    def superstep(self):
        """One vertex-program iteration for this partition (generator)."""
        graph, costs = self.engine.graph, self.engine.costs
        cpu = self.ctx.kernel.node.cpu
        job = self.engine.job
        remote = yield from self._gather()
        # The real computation: one plain call, so the program's tables die
        # inside it, and ``remote`` goes before the next yield (every
        # partition's superstep is suspended at once).
        self.ranks = self.engine.program.apply(graph, self.part, self.ranks, remote)
        del remote
        compute = costs.compute_us(graph, self.part)
        n_threads = self.engine.threads_per_node
        if n_threads > 1:
            # Owned vertices are split over local worker threads.
            shares = [compute / n_threads] * n_threads
            procs = [
                self.ctx.sim.process(cpu.execute(share, tag="litegraph-compute"))
                for share in shares
            ]
            yield self.ctx.sim.all_of(procs)
        else:
            yield from cpu.execute(compute, tag="litegraph-compute")
        yield from self._scatter()
        self.engine.step_counter += 1
        yield from self.ctx.lt_barrier(
            f"{job}:step{self.engine.iteration}", graph.n_partitions
        )


class LiteGraph:
    """The distributed engine: one partition per LITE node."""

    def __init__(self, kernels, graph: PartitionedGraph,
                 threads_per_node: int = 4, costs: Optional[GraphCosts] = None,
                 program: Optional[VertexProgram] = None):
        if len(kernels) < graph.n_partitions:
            raise ValueError("need one LITE node per partition")
        self.job = f"lg{next(kernels[0].sim.ids.graph_job)}"
        self.graph = graph
        self.program = program if program is not None else PageRankProgram()
        self.iterations_run = 0
        self.costs = costs if costs is not None else GraphCosts()
        self.threads_per_node = threads_per_node
        self.partitions = [
            _Partition(self, part, kernels[part])
            for part in range(graph.n_partitions)
        ]
        self.iteration = 0
        self.step_counter = 0
        self.elapsed_us = 0.0
        self._started = False

    def _claim(self) -> None:
        """Engines are single-use: their LMR names stay registered."""
        if self._started:
            raise RuntimeError(
                f"LiteGraph job {self.job!r} has already run; build a new engine"
            )
        self._started = True

    def run(self, iterations: int, damping: Optional[float] = None):
        """Run the vertex program for ``iterations`` supersteps.

        Generator; returns the global value list.  ``damping`` (legacy
        convenience) re-parameterizes a default PageRank program.
        Single-use: a second call raises ``RuntimeError``.
        """
        self._claim()
        if damping is not None and isinstance(self.program, PageRankProgram):
            self.program.damping = damping
        sim = self.partitions[0].ctx.sim
        yield sim.all_of([sim.process(p.build()) for p in self.partitions])
        # Setup (LMR creation, locks, barriers) is excluded from the
        # reported run time, as in the paper's measurements.
        start = sim.now
        for self.iteration in range(iterations):
            steps = [sim.process(p.superstep()) for p in self.partitions]
            yield sim.all_of(steps)
            self.iterations_run += 1
        self.elapsed_us = sim.now - start
        return self.graph.assemble([p.ranks for p in self.partitions])

    def run_until_converged(self, epsilon: float = 0.0,
                            max_iterations: int = 1000):
        """Iterate until no vertex moves by more than ``epsilon``.

        Convergence is detected distributedly: each partition posts its
        superstep's max delta into a shared LMR slot; everyone reads
        the slots after the barrier and stops identically.  Generator;
        returns (values, iterations_run).  Single-use, like :meth:`run`.
        """
        self._claim()
        sim = self.partitions[0].ctx.sim
        n_parts = self.graph.n_partitions
        owner_handle = yield from self.partitions[0].ctx.lt_malloc(
            RANK_BYTES * n_parts, name=f"{self.job}:deltas", default_perm=_OPEN
        )
        handles = [owner_handle]
        for partition in self.partitions[1:]:
            handle = yield from partition.ctx.lt_map(f"{self.job}:deltas")
            handles.append(handle)
        yield sim.all_of([sim.process(p.build()) for p in self.partitions])
        start = sim.now
        converged = [False]

        def step(partition, handle, iteration):
            before = partition.ranks  # apply() returns a new list
            yield from partition.superstep()
            delta = max(
                [abs(new - old) for new, old in zip(partition.ranks, before)
                 if new != old],
                default=0.0,
            )
            if delta == float("inf"):
                delta = 1e308
            yield from partition.ctx.lt_write(
                handle, RANK_BYTES * partition.part, encode_ranks([delta])
            )
            yield from partition.ctx.lt_barrier(
                f"{self.job}:conv{iteration}", n_parts
            )
            blob = yield from partition.ctx.lt_read(
                handle, 0, RANK_BYTES * n_parts
            )
            if partition.part == 0 and max(decode_ranks(blob)) <= epsilon:
                converged[0] = True

        iteration = 0
        while iteration < max_iterations:
            steps = [
                sim.process(step(p, h, iteration))
                for p, h in zip(self.partitions, handles)
            ]
            yield sim.all_of(steps)
            iteration += 1
            self.iterations_run = iteration
            if converged[0]:
                break
        self.elapsed_us = sim.now - start
        return self.graph.assemble([p.ranks for p in self.partitions]), iteration
