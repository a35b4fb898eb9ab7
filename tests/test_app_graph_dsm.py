"""Tests for the graph engines (§8.3) and LITE-DSM (§8.4)."""

import pytest

from repro.apps.dsm import LiteDsm, LiteGraphDsm, PAGE_SIZE
from repro.apps.graph import (
    GrappaSim,
    LiteGraph,
    PartitionedGraph,
    PowerGraphSim,
    pagerank_reference,
)
from repro.cluster import Cluster
from repro.core import lite_boot
from repro.determinism import reset_global_counters
from repro.workloads import degree_histogram, powerlaw_graph


@pytest.fixture(scope="module")
def graph():
    edges = powerlaw_graph(300, 5, seed=3)
    return PartitionedGraph(300, edges, 4)


@pytest.fixture(scope="module")
def reference(graph):
    return pagerank_reference(graph, 4)


def _close(ranks, reference):
    return max(abs(a - b) for a, b in zip(ranks, reference)) < 1e-12


# --------------------------------------------------------- structure --


def test_powerlaw_graph_has_heavy_tail():
    edges = powerlaw_graph(2000, 8)
    histogram = degree_histogram(edges, "in")
    max_degree = max(histogram)
    # A hub with far more than the average in-degree must exist.
    assert max_degree > 8 * 10


def test_partition_covers_all_vertices(graph):
    owned = [v for part in graph.owned for v in part]
    assert sorted(owned) == list(range(graph.n_vertices))


def test_pull_sets_are_exactly_the_remote_in_neighbors(graph):
    for part in range(graph.n_partitions):
        needed = set()
        for vertex in graph.owned[part]:
            for src in graph.in_neighbors.get(vertex, ()):
                if graph.owner_of(src) != part:
                    needed.add(src)
        advertised = {
            v for vertices in graph.pull_sets[part].values() for v in vertices
        }
        assert advertised == needed


def test_reference_pagerank_is_a_positive_subdistribution(graph, reference):
    # Without dangling-mass redistribution rank sums to <= 1 and every
    # vertex keeps at least the teleport floor.
    floor = (1.0 - 0.85) / graph.n_vertices
    assert all(rank >= floor - 1e-15 for rank in reference)
    assert 0.0 < sum(reference) <= 1.0 + 1e-9


# ----------------------------------------------------------- engines --


def test_lite_graph_matches_reference(graph, reference):
    cluster = Cluster(4)
    kernels = lite_boot(cluster)
    engine = LiteGraph(kernels, graph)
    ranks = cluster.run_process(engine.run(4))
    assert _close(ranks, reference)
    assert engine.elapsed_us > 0


def test_powergraph_matches_reference(graph, reference):
    cluster = Cluster(4)
    engine = PowerGraphSim(cluster.nodes, graph)
    ranks = cluster.run_process(engine.run(4))
    assert _close(ranks, reference)


def test_grappa_matches_reference(graph, reference):
    cluster = Cluster(4)
    engine = GrappaSim(cluster.nodes, graph)
    ranks = cluster.run_process(engine.run(4))
    assert _close(ranks, reference)


def test_graph_dsm_matches_reference(graph, reference):
    cluster = Cluster(4)
    kernels = lite_boot(cluster)
    engine = LiteGraphDsm(kernels, graph)
    ranks = cluster.run_process(engine.run(4))
    assert _close(ranks, reference)


def test_lite_graph_fastest(graph):
    """Figure 19 ordering: LITE-Graph beats both baselines."""
    lite_cluster = Cluster(4)
    kernels = lite_boot(lite_cluster)
    lite_engine = LiteGraph(kernels, graph)
    lite_cluster.run_process(lite_engine.run(4))

    pg_cluster = Cluster(4)
    pg_engine = PowerGraphSim(pg_cluster.nodes, graph)
    pg_cluster.run_process(pg_engine.run(4))

    assert lite_engine.elapsed_us < pg_engine.elapsed_us


# ---------------------------------- bit-identity and sim-time invisibility --


def _per_edge_pagerank(graph, iterations, damping=0.85):
    """The loop every engine used to carry: the independent oracle for the
    shared kernel (same division, same left-to-right addition order)."""
    n = graph.n_vertices
    ranks = [1.0 / n] * n
    for _ in range(iterations):
        new_ranks = []
        for vertex in range(n):
            acc = 0.0
            for src in graph.in_neighbors.get(vertex, ()):
                acc += ranks[src] / max(1, graph.out_degree[src])
            new_ranks.append((1.0 - damping) / n + damping * acc)
        ranks = new_ranks
    return ranks


def _lite(graph):
    cluster = Cluster(4)
    return cluster, LiteGraph(lite_boot(cluster), graph, threads_per_node=2)


def _powergraph(graph):
    cluster = Cluster(4)
    return cluster, PowerGraphSim(cluster.nodes, graph, threads_per_node=2)


def _grappa(graph):
    cluster = Cluster(4)
    return cluster, GrappaSim(cluster.nodes, graph, threads_per_node=2)


def _dsm(graph):
    cluster = Cluster(4)
    return cluster, LiteGraphDsm(lite_boot(cluster), graph, threads_per_node=2)


def test_reference_is_bit_identical_to_the_per_edge_loop(graph):
    assert pagerank_reference(graph, 4) == _per_edge_pagerank(graph, 4)
    assert pagerank_reference(graph, 2, damping=0.5) == _per_edge_pagerank(
        graph, 2, damping=0.5
    )


# Simulated run times recorded on the commit *before* the engines moved to
# the shared bulk kernel (400 vertices, 6 edges/vertex, seed 3, 4 partitions,
# 2 threads, 3 iterations): the kernel is host-side only and must not move
# a single simulated instant.
@pytest.mark.parametrize("build, elapsed_us", [
    (_lite, 79.31530000000028),
    (_powergraph, 263.7749384615385),
    (_grappa, 157.42499999999973),
    (_dsm, 293.1624000000001),
])
def test_engines_bit_identical_and_sim_time_unchanged(build, elapsed_us):
    graph = PartitionedGraph(400, powerlaw_graph(400, 6, seed=3), 4)
    reset_global_counters()
    cluster, engine = build(graph)
    ranks = cluster.run_process(engine.run(3))
    assert ranks == pagerank_reference(graph, 3) == _per_edge_pagerank(graph, 3)
    assert engine.elapsed_us == elapsed_us


def test_partition_precompute_matches_the_edge_list(graph):
    for part in range(graph.n_partitions):
        lists = graph.in_lists[part]
        assert len(lists) == len(graph.owned[part])
        for vertex, sources in zip(graph.owned[part], lists):
            assert list(sources) == graph.in_neighbors.get(vertex, [])
            if sources:  # by reference, not a copy
                assert sources is graph.in_neighbors[vertex]
        assert graph.edges_in_partition(part) == sum(
            1 for _src, dst in graph.edges if graph.owner_of(dst) == part
        )
    assert graph.out_norm == [max(1, d) for d in graph.out_degree]
    values = [float(v) for v in range(graph.n_vertices)]
    stride = graph.n_partitions
    assert graph.assemble(values[p::stride] for p in range(stride)) == values


# --------------------------------------------------------------- DSM --


@pytest.fixture
def dsm_env():
    cluster = Cluster(4)
    kernels = lite_boot(cluster)
    dsm = LiteDsm(kernels, "testdsm", 64 * PAGE_SIZE)
    cluster.run_process(dsm.build())
    return cluster, dsm


def test_dsm_write_visible_after_release(dsm_env):
    cluster, dsm = dsm_env
    a, b = dsm.nodes[0], dsm.nodes[1]

    def proc():
        yield from a.acquire(0, 100)
        yield from a.write(10, b"shared-data")
        yield from a.release()
        data = yield from b.read(10, 11)
        return data

    assert cluster.run_process(proc()) == b"shared-data"


def test_dsm_write_without_acquire_rejected(dsm_env):
    cluster, dsm = dsm_env
    a = dsm.nodes[0]

    def proc():
        with pytest.raises(PermissionError):
            yield from a.write(0, b"illegal")

    cluster.run_process(proc())


def test_dsm_invalidation_on_release(dsm_env):
    cluster, dsm = dsm_env
    a, b = dsm.nodes[0], dsm.nodes[1]

    def proc():
        yield from a.acquire(0, 8)
        yield from a.write(0, b"version1")
        yield from a.release()
        first = yield from b.read(0, 8)   # b now caches the page
        yield from a.acquire(0, 8)
        yield from a.write(0, b"version2")
        yield from a.release()            # must invalidate b's copy
        second = yield from b.read(0, 8)
        return first, second, b.invalidations

    first, second, invalidations = cluster.run_process(proc())
    assert first == b"version1"
    assert second == b"version2"
    assert invalidations >= 1


def test_dsm_single_writer_serialized(dsm_env):
    cluster, dsm = dsm_env
    sim = cluster.sim
    a, b = dsm.nodes[0], dsm.nodes[1]
    order = []

    def writer(node, label, hold):
        yield from node.acquire(0, 8)
        order.append(("acq", label, sim.now))
        yield sim.timeout(hold)
        yield from node.write(0, label.encode() * 4)
        yield from node.release()
        order.append(("rel", label, sim.now))

    def proc():
        pa = sim.process(writer(a, "AA", 50))
        yield sim.timeout(5)
        pb = sim.process(writer(b, "BB", 5))
        yield sim.all_of([pa, pb])

    cluster.run_process(proc())
    # B's acquire must come after A's release.
    a_release = next(t for kind, label, t in order if kind == "rel" and label == "AA")
    b_acquire = next(t for kind, label, t in order if kind == "acq" and label == "BB")
    assert b_acquire >= a_release


def test_dsm_cached_read_is_free(dsm_env):
    cluster, dsm = dsm_env
    sim = cluster.sim
    b = dsm.nodes[1]

    def proc():
        yield from b.read(0, 64)      # cold: fault + fetch
        start = sim.now
        yield from b.read(0, 64)      # warm: cache hit
        return sim.now - start

    assert cluster.run_process(proc()) == 0.0


def test_dsm_reads_cross_page_boundaries(dsm_env):
    cluster, dsm = dsm_env
    a, b = dsm.nodes[0], dsm.nodes[1]
    payload = bytes(range(256)) * 40  # 10240 B: spans 3+ pages

    def proc():
        yield from a.acquire(PAGE_SIZE - 100, len(payload))
        yield from a.write(PAGE_SIZE - 100, payload)
        yield from a.release()
        data = yield from b.read(PAGE_SIZE - 100, len(payload))
        return data

    assert cluster.run_process(proc()) == payload


def test_dsm_remote_read_latency_matches_paper(dsm_env):
    """§8.4: 4 KB random remote read = ~12-19 us (fault + LT_read)."""
    cluster, dsm = dsm_env
    sim = cluster.sim
    b = dsm.nodes[1]

    def proc():
        start = sim.now
        yield from b.read(8 * PAGE_SIZE, PAGE_SIZE)
        return sim.now - start

    latency = cluster.run_process(proc())
    assert 8.0 < latency < 25.0


def test_graph_dsm_slower_than_lite_graph(graph):
    lite_cluster = Cluster(4)
    lite_engine = LiteGraph(lite_boot(lite_cluster), graph)
    lite_cluster.run_process(lite_engine.run(3))

    dsm_cluster = Cluster(4)
    dsm_engine = LiteGraphDsm(lite_boot(dsm_cluster), graph)
    dsm_cluster.run_process(dsm_engine.run(3))

    assert dsm_engine.elapsed_us > lite_engine.elapsed_us
