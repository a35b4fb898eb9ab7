"""Shared graph-engine machinery: partitioning, GAS costs, PageRank math.

All engines (LITE-Graph, LITE-Graph-DSM, PowerGraph-sim, Grappa-sim)
run the same vertex-centric gather-apply-scatter computation on the
same partitioned graph with the same per-edge/per-vertex compute costs;
they differ only in how vertex data crosses the network.  Host-side
arithmetic is one bulk kernel call per partition (:func:`pagerank_apply`);
simulated compute is charged from edge and vertex *counts*.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

__all__ = ["GraphCosts", "PartitionedGraph", "pagerank_apply",
           "pagerank_reference", "encode_ranks", "decode_ranks", "RANK_BYTES"]

RANK_BYTES = 8  # one float64 per vertex


@dataclass
class GraphCosts:
    """Per-element compute costs (µs), identical across engines."""

    gather_us_per_edge: float = 0.030
    apply_us_per_vertex: float = 0.050
    scatter_us_per_edge: float = 0.010
    # PowerGraph's higher software overhead per exchanged vertex value
    # (GraphLab serialization + RPC dispatch + scheduler), paid on top
    # of TCP.  Calibrated so PowerGraph lands 3.5-5.6x behind
    # LITE-Graph, the paper's measured envelope.
    powergraph_us_per_value: float = 0.25
    # Grappa aggregates messages; cheap per element but adds a flush
    # latency per aggregation buffer.
    grappa_us_per_value: float = 0.035
    grappa_flush_us: float = 25.0
    grappa_buffer_values: int = 1024

    def compute_us(self, graph: "PartitionedGraph", part: int) -> float:
        """Simulated gather + apply time of one superstep of ``part``."""
        return (graph.edges_in_partition(part) * self.gather_us_per_edge
                + len(graph.owned[part]) * self.apply_us_per_vertex)


class PartitionedGraph:
    """A directed graph hash-partitioned over P machines.

    Vertex ``v`` is owned by partition ``v % P``.  For PageRank each
    partition needs, per superstep, the ranks of every *remote* vertex
    with an edge into one of its owned vertices — precomputed here as
    the partition's *pull set*, along with everything else a superstep
    would re-derive per edge: ``in_lists[p]`` (the ``in_neighbors`` list
    of each vertex of ``owned[p]``, by reference), the in-edge count per
    partition and ``out_norm[v] = max(1, out_degree[v])``.
    """

    def __init__(self, n_vertices: int, edges: Sequence[Tuple[int, int]],
                 n_partitions: int):
        if n_partitions < 1:
            raise ValueError("need at least one partition")
        self.n_vertices = n_vertices
        self.n_partitions = n_partitions
        self.edges = list(edges)
        # in_neighbors[v] = vertices with an edge into v.
        self.in_neighbors: Dict[int, List[int]] = {}
        self.out_degree = [0] * n_vertices
        for src, dst in self.edges:
            self.in_neighbors.setdefault(dst, []).append(src)
            self.out_degree[src] += 1
        self.out_norm = [max(1, degree) for degree in self.out_degree]
        self.owned: List[List[int]] = [[] for _ in range(n_partitions)]
        for vertex in range(n_vertices):
            self.owned[vertex % n_partitions].append(vertex)
        self.in_lists: List[List[Sequence[int]]] = [
            [self.in_neighbors.get(vertex, ()) for vertex in owned]
            for owned in self.owned
        ]
        self._in_edges = [sum(map(len, lists)) for lists in self.in_lists]
        # pull_sets[p][q] = sorted vertices owned by q that p must read.
        self.pull_sets: List[Dict[int, List[int]]] = []
        for part in range(n_partitions):
            needed: Dict[int, set] = {}
            for sources in self.in_lists[part]:
                for src in sources:
                    owner = src % n_partitions
                    if owner != part:
                        needed.setdefault(owner, set()).add(src)
            self.pull_sets.append(
                {owner: sorted(vertices) for owner, vertices in needed.items()}
            )

    def owner_of(self, vertex: int) -> int:
        """Partition owning ``vertex``."""
        return vertex % self.n_partitions

    def edges_in_partition(self, part: int) -> int:
        """In-edges terminating at vertices owned by ``part``."""
        return self._in_edges[part]

    def assemble(self, per_partition) -> List[float]:
        """Global value list from each partition's ``owned[p]``-aligned one."""
        values = [0.0] * self.n_vertices
        for part, part_values in enumerate(per_partition):
            values[part::self.n_partitions] = part_values
        return values


def pagerank_apply(graph: PartitionedGraph, part: int,
                   own: Sequence[float], remote: Dict[int, float],
                   damping: float) -> List[float]:
    """New ranks of ``graph.owned[part]``: the kernel every engine shares.

    ``own``: their current ranks, same order; ``remote``: pull-set vertex
    -> rank.  Bit-identical everywhere: one division per source, then
    in-neighbours added left to right with ``+=`` — never ``sum()``
    (compensated since 3.12) or a reciprocal multiply.
    """
    norm = graph.out_norm
    contrib = [0.0] * graph.n_vertices  # by vertex id: a list subscript per edge
    for src, rank in remote.items():
        contrib[src] = rank / norm[src]
    for src, rank in zip(graph.owned[part], own):
        contrib[src] = rank / norm[src]
    base = (1.0 - damping) / graph.n_vertices
    new_ranks = []
    for sources in graph.in_lists[part]:
        acc = 0.0
        for src in sources:
            acc += contrib[src]
        new_ranks.append(base + damping * acc)
    return new_ranks


def pagerank_reference(graph: PartitionedGraph, iterations: int,
                       damping: float = 0.85) -> List[float]:
    """Ground-truth PageRank for correctness checks."""
    stride = graph.n_partitions
    ranks = [1.0 / graph.n_vertices] * graph.n_vertices
    for _ in range(iterations):
        everything = dict(enumerate(ranks))
        ranks = graph.assemble([
            pagerank_apply(graph, part, ranks[part::stride], everything, damping)
            for part in range(stride)
        ])
    return ranks


def encode_ranks(values: Sequence[float]) -> bytes:
    """Pack vertex values as little-endian float64s."""
    return struct.pack(f"<{len(values)}d", *values)


def decode_ranks(blob: bytes) -> List[float]:
    """Inverse of :func:`encode_ranks`."""
    count = len(blob) // RANK_BYTES
    return list(struct.unpack(f"<{count}d", blob))
