"""Vertex programs for the LITE-Graph engine (§8.3 extensions).

The paper's engine is PowerGraph-style GAS: any computation expressible
as "combine my in-neighbors' values into my next value" runs on the
same gather/apply/scatter machinery.  Three programs:

- :class:`PageRankProgram` — the paper's benchmark.
- :class:`SsspProgram` — single-source shortest paths (unit weights):
  dist'(v) = min(dist(v), 1 + min over in-neighbors u of dist(u)).
- :class:`ComponentsProgram` — connected components by min-label
  propagation (symmetrize the edge list for weak connectivity).

Each also comes with a single-machine reference for correctness checks.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from .common import PartitionedGraph, pagerank_apply

__all__ = [
    "VertexProgram",
    "PageRankProgram",
    "SsspProgram",
    "ComponentsProgram",
    "sssp_reference",
    "components_reference",
]

INFINITY = float("inf")


class VertexProgram:
    """One vertex-centric computation: initial values + a bulk update,
    called once per partition per superstep (never per vertex or edge)."""

    def initial(self, vertex: int, graph: PartitionedGraph) -> float:
        """The vertex's value before the first superstep."""
        raise NotImplementedError

    def apply(self, graph: PartitionedGraph, part: int,
              own: Sequence[float], remote: Dict[int, float]) -> List[float]:
        """Next values of ``graph.owned[part]``, in that order, from their
        current values ``own`` (same order) and ``remote`` (pull-set vertex
        -> current value); loop over ``graph.in_lists[part]``.  A plain
        function, not a generator; returns a new list (``own`` is read-only)
        and must not keep ``remote``."""
        raise NotImplementedError


class PageRankProgram(VertexProgram):
    """The paper's PageRank benchmark as a vertex program."""

    def __init__(self, damping: float = 0.85):
        self.damping = damping

    def initial(self, vertex: int, graph: PartitionedGraph) -> float:
        return 1.0 / graph.n_vertices

    def apply(self, graph, part, own, remote):
        return pagerank_apply(graph, part, own, remote, self.damping)


class _MinPlusProgram(VertexProgram):
    """value'(v) = min(initial(v), min over in-neighbours u of value(u) + hop)."""

    hop = 0.0

    def apply(self, graph, part, own, remote):
        values = dict(zip(graph.owned[part], own))
        values.update(remote)
        hop = self.hop
        new_values = []
        for vertex, sources in zip(graph.owned[part], graph.in_lists[part]):
            best = self.initial(vertex, graph)
            for src in sources:
                if values[src] + hop < best:
                    best = values[src] + hop
            new_values.append(best)
        return new_values


class SsspProgram(_MinPlusProgram):
    """Unit-weight shortest paths from ``source`` (Bellman-Ford style)."""

    hop = 1.0

    def __init__(self, source: int):
        self.source = source

    def initial(self, vertex: int, graph: PartitionedGraph) -> float:
        return 0.0 if vertex == self.source else INFINITY


class ComponentsProgram(_MinPlusProgram):
    """Min-label propagation; converges to per-component minima."""

    def initial(self, vertex: int, graph: PartitionedGraph) -> float:
        return float(vertex)


# ------------------------------------------------------- references --


def sssp_reference(graph: PartitionedGraph, source: int) -> List[float]:
    """BFS distances (unit weights) over the directed edges."""
    from collections import deque

    out_edges: List[List[int]] = [[] for _ in range(graph.n_vertices)]
    for src, dst in graph.edges:
        out_edges[src].append(dst)
    dist = [INFINITY] * graph.n_vertices
    dist[source] = 0.0
    queue = deque([source])
    while queue:
        vertex = queue.popleft()
        for neighbor in out_edges[vertex]:
            if dist[neighbor] == INFINITY:
                dist[neighbor] = dist[vertex] + 1.0
                queue.append(neighbor)
    return dist


def components_reference(graph: PartitionedGraph) -> List[float]:
    """Min label per (directed-reachability) component via fixpoint."""
    labels = [float(v) for v in range(graph.n_vertices)]
    changed = True
    while changed:
        changed = False
        for vertex in range(graph.n_vertices):
            best = labels[vertex]
            for src in graph.in_neighbors.get(vertex, ()):
                if labels[src] < best:
                    best = labels[src]
            if best < labels[vertex]:
                labels[vertex] = best
                changed = True
    return labels
