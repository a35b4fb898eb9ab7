"""Tests for the generalized vertex-program engine (SSSP, CC, PageRank
convergence) on LITE-Graph."""

import os
import sys
from collections import Counter

import pytest

import repro.apps.graph
from repro.apps.graph import LiteGraph, PartitionedGraph, pagerank_reference
from repro.apps.graph.algorithms import (
    INFINITY,
    ComponentsProgram,
    PageRankProgram,
    SsspProgram,
    components_reference,
    sssp_reference,
)
from repro.cluster import Cluster
from repro.core import lite_boot
from repro.workloads import powerlaw_graph


@pytest.fixture(scope="module")
def graphs():
    edges = powerlaw_graph(240, 4, seed=21)
    directed = PartitionedGraph(240, edges, 4)
    symmetric = PartitionedGraph(
        240, sorted(set(edges) | {(b, a) for a, b in edges}), 4
    )
    return directed, symmetric


def _run(graph, program, until_converged=True, iterations=10):
    cluster = Cluster(graph.n_partitions)
    kernels = lite_boot(cluster)
    engine = LiteGraph(kernels, graph, program=program)
    if until_converged:
        values, iters = cluster.run_process(engine.run_until_converged())
        return values, iters, engine
    values = cluster.run_process(engine.run(iterations))
    return values, iterations, engine


def test_sssp_matches_bfs_reference(graphs):
    directed, _sym = graphs
    source = 239  # a late vertex: its out-edges reach the old core
    values, iters, _engine = _run(directed, SsspProgram(source))
    reference = sssp_reference(directed, source)
    assert values == reference
    reachable = sum(1 for d in reference if d < INFINITY)
    assert reachable > 3  # non-trivial reachability
    # Needs at least eccentricity(source) rounds.
    longest = max(d for d in reference if d < INFINITY)
    assert iters >= longest


def test_sssp_source_distance_zero(graphs):
    directed, _sym = graphs
    values, _iters, _engine = _run(directed, SsspProgram(100))
    assert values[100] == 0.0


def test_sssp_unreachable_stay_infinite(graphs):
    directed, _sym = graphs
    # Vertex 0 has no out-edges in preferential attachment: from it,
    # almost everything is unreachable.
    values, _iters, _engine = _run(directed, SsspProgram(0))
    reference = sssp_reference(directed, 0)
    assert values == reference
    assert values.count(INFINITY) == reference.count(INFINITY) > 0


def test_components_single_component_on_symmetrized_graph(graphs):
    _directed, symmetric = graphs
    values, _iters, _engine = _run(symmetric, ComponentsProgram())
    assert values == components_reference(symmetric)
    # Preferential attachment is connected once symmetrized.
    assert set(values) == {0.0}


def test_components_finds_separate_islands():
    # Two disjoint cliques: {0..4} and {5..9}.
    edges = []
    for base in (0, 5):
        for a in range(base, base + 5):
            for b in range(base, base + 5):
                if a != b:
                    edges.append((a, b))
    graph = PartitionedGraph(10, edges, 2)
    values, iters, _engine = _run(graph, ComponentsProgram())
    assert values[:5] == [0.0] * 5
    assert values[5:] == [5.0] * 5


def test_pagerank_program_equals_legacy_run(graphs):
    directed, _sym = graphs
    values, _iters, _engine = _run(
        directed, PageRankProgram(), until_converged=False, iterations=5
    )
    assert values == pagerank_reference(directed, 5)


def test_pagerank_converges_with_epsilon():
    edges = powerlaw_graph(120, 4, seed=22)
    graph = PartitionedGraph(120, edges, 3)
    cluster = Cluster(3)
    kernels = lite_boot(cluster)
    engine = LiteGraph(kernels, graph, program=PageRankProgram())
    values, iters = cluster.run_process(
        engine.run_until_converged(epsilon=1e-10, max_iterations=200)
    )
    assert iters < 200  # actually converged
    # One more reference iteration changes nothing beyond epsilon.
    reference = pagerank_reference(graph, iters)
    assert max(abs(a - b) for a, b in zip(values, reference)) < 1e-9


def test_convergence_respects_max_iterations():
    edges = powerlaw_graph(100, 4, seed=23)
    graph = PartitionedGraph(100, edges, 2)
    cluster = Cluster(2)
    kernels = lite_boot(cluster)
    engine = LiteGraph(kernels, graph, program=PageRankProgram())
    _values, iters = cluster.run_process(
        engine.run_until_converged(epsilon=0.0, max_iterations=3)
    )
    assert iters == 3


# ------------------------------------------- bulk kernels: contract guards --


# Recorded on the commit before SSSP/Components moved from the per-vertex
# compute() callback to the bulk apply(): (simulated us, supersteps).
@pytest.mark.parametrize("make_program, symmetrize, reference, expected", [
    (lambda: SsspProgram(399), False,
     lambda g: sssp_reference(g, 399), (227.3377000000017, 7)),
    (ComponentsProgram, True, components_reference, (126.96230000000071, 3)),
])
def test_bulk_programs_leave_sim_time_unchanged(make_program, symmetrize,
                                                reference, expected):
    edges = powerlaw_graph(400, 6, seed=3)
    if symmetrize:
        edges = sorted(set(edges) | {(b, a) for a, b in edges})
    graph = PartitionedGraph(400, edges, 4)
    cluster = Cluster(4)
    engine = LiteGraph(lite_boot(cluster), graph, threads_per_node=2,
                       program=make_program())
    values, iters = cluster.run_process(engine.run_until_converged())
    assert values == reference(graph)
    assert (engine.elapsed_us, iters) == expected


def _graph_calls_in_one_superstep(edges_per_vertex):
    """Python-level calls into repro/apps/graph/ during one superstep of
    every partition, by function name."""
    graph_dir = os.path.dirname(repro.apps.graph.__file__) + os.sep
    graph = PartitionedGraph(
        400, powerlaw_graph(400, edges_per_vertex, seed=5), 4
    )
    cluster = Cluster(4)
    engine = LiteGraph(lite_boot(cluster), graph, threads_per_node=2)
    sim = cluster.sim
    calls = Counter()

    def hook(frame, event, _arg):
        if event == "call" and frame.f_code.co_filename.startswith(graph_dir):
            calls[frame.f_code.co_name] += 1

    def drive():
        yield sim.all_of([sim.process(p.build()) for p in engine.partitions])
        previous = sys.getprofile()
        sys.setprofile(hook)
        try:
            yield sim.all_of(
                [sim.process(p.superstep()) for p in engine.partitions]
            )
        finally:
            sys.setprofile(previous)

    cluster.run_process(drive())
    return calls


def test_superstep_host_calls_do_not_scale_with_edges():
    """Algorithmic-shape guard (counts, no timing): the apps layer is
    entered per partition, never per edge, so 4x the edges on the same
    vertices costs exactly the same number of Python-level calls."""
    sparse = _graph_calls_in_one_superstep(4)
    dense = _graph_calls_in_one_superstep(16)
    assert sparse["pagerank_apply"] == 4  # one kernel call per partition
    assert sparse == dense


@pytest.mark.parametrize("second", ["run", "run_until_converged"])
def test_second_run_on_one_engine_is_a_clear_error(second):
    graph = PartitionedGraph(60, powerlaw_graph(60, 3, seed=24), 2)
    cluster = Cluster(2)
    engine = LiteGraph(lite_boot(cluster), graph)
    first = cluster.run_process(engine.run(2))
    assert first == pagerank_reference(graph, 2)
    again = engine.run(2) if second == "run" else engine.run_until_converged()
    with pytest.raises(RuntimeError, match="already run"):
        cluster.run_process(again)
