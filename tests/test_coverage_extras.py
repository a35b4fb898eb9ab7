"""Additional edge-condition coverage across the stack."""

import pytest

from repro.apps.dsm import LiteDsm, PAGE_SIZE
from repro.apps.graph import LiteGraph, PartitionedGraph, pagerank_reference
from repro.apps.mapreduce import LiteMR
from repro.cluster import Cluster
from repro.core import LiteContext, Permission, lite_boot
from repro.verbs import Access, Opcode, RecvWR, SendWR, Sge, WcStatus
from repro.workloads import generate_corpus, powerlaw_graph


# -------------------------------------------------------------- verbs --


def test_uc_write_completes_without_ack():
    """UC writes complete locally (no ACK wait): faster completion but
    the same data placement."""
    def measure(qp_type):
        local = Cluster(2)

        def proc():
            a, b = local[0], local[1]
            pd_a, pd_b = a.device.alloc_pd(), b.device.alloc_pd()
            mr_a = yield from a.device.reg_mr(pd_a, 4096, Access.ALL)
            mr_b = yield from b.device.reg_mr(pd_b, 4096, Access.ALL)
            qa = a.device.create_qp(pd_a, qp_type)
            qb = b.device.create_qp(pd_b, qp_type)
            a.device.connect(qa, qb)
            mr_a.write(0, b"uc-data!")
            # Warm up.
            yield qa.post_send(SendWR(
                Opcode.WRITE, sgl=[Sge(mr_a, 0, 8)],
                remote_addr=mr_b.base_addr, rkey=mr_b.rkey))
            start = local.sim.now
            yield qa.post_send(SendWR(
                Opcode.WRITE, sgl=[Sge(mr_a, 0, 8)],
                remote_addr=mr_b.base_addr + 64, rkey=mr_b.rkey))
            elapsed = local.sim.now - start
            return elapsed, mr_b.read(64, 8)

        return local.run_process(proc())

    rc_time, rc_data = measure("RC")
    uc_time, uc_data = measure("UC")
    assert rc_data == uc_data == b"uc-data!"
    assert uc_time < rc_time  # no ACK round


def test_same_qp_writes_land_in_posting_order(pair):
    """RC ordering guarantee: two writes to the same address from one
    QP always leave the second value, even with cache-miss jitter."""
    cluster, mr_a, mr_b, qa = (pair["cluster"], pair["mr_a"], pair["mr_b"],
                               pair["qa"])

    def proc():
        mr_a.write(0, b"first!")
        mr_a.write(100, b"second")
        p1 = qa.post_send(SendWR(
            Opcode.WRITE, sgl=[Sge(mr_a, 0, 6)],
            remote_addr=mr_b.base_addr, rkey=mr_b.rkey, signaled=False))
        p2 = qa.post_send(SendWR(
            Opcode.WRITE, sgl=[Sge(mr_a, 100, 6)],
            remote_addr=mr_b.base_addr, rkey=mr_b.rkey, signaled=False))
        yield cluster.sim.all_of([p1, p2])
        return mr_b.read(0, 6)

    assert cluster.run_process(proc()) == b"second"


def test_dereg_invalidates_rnic_cached_state(pair):
    cluster, mr_a, mr_b, qa = (pair["cluster"], pair["mr_a"], pair["mr_b"],
                               pair["qa"])
    b = cluster[1]

    def proc():
        # Warm the remote caches.
        yield qa.post_send(SendWR(
            Opcode.WRITE, sgl=[Sge(mr_a, 0, 8)],
            remote_addr=mr_b.base_addr, rkey=mr_b.rkey))
        rkey = mr_b.rkey
        assert b.rnic.key_cache.contains(rkey)
        yield from b.device.dereg_mr(mr_b)
        assert not b.rnic.key_cache.contains(rkey)
        # Accessing the dead rkey now fails remotely.
        status = yield qa.post_send(SendWR(
            Opcode.WRITE, sgl=[Sge(mr_a, 0, 8)],
            remote_addr=0, rkey=rkey))
        return status

    assert cluster.run_process(proc()) is WcStatus.REM_INV_REQ_ERR


# ---------------------------------------------------------------- DSM --


def test_dsm_concurrent_writers_on_disjoint_pages():
    cluster = Cluster(3)
    kernels = lite_boot(cluster)
    dsm = LiteDsm(kernels, "disjoint", 32 * PAGE_SIZE)
    cluster.run_process(dsm.build())
    sim = cluster.sim

    def writer(node, page, stamp):
        yield from node.acquire(page * PAGE_SIZE, PAGE_SIZE)
        yield from node.write(page * PAGE_SIZE, stamp * 64)
        yield from node.release()

    def proc():
        procs = [
            sim.process(writer(dsm.nodes[0], 3, b"A")),
            sim.process(writer(dsm.nodes[1], 7, b"B")),
            sim.process(writer(dsm.nodes[2], 11, b"C")),
        ]
        yield sim.all_of(procs)
        reader = dsm.nodes[0]
        a = yield from reader.read(3 * PAGE_SIZE, 4)
        b = yield from reader.read(7 * PAGE_SIZE, 4)
        c = yield from reader.read(11 * PAGE_SIZE, 4)
        return a, b, c

    assert cluster.run_process(proc()) == (b"AAAA", b"BBBB", b"CCCC")


def test_dsm_release_without_acquire_is_noop():
    cluster = Cluster(2)
    kernels = lite_boot(cluster)
    dsm = LiteDsm(kernels, "noop", 8 * PAGE_SIZE)
    cluster.run_process(dsm.build())
    sim = cluster.sim

    def proc():
        start = sim.now
        yield from dsm.nodes[0].release()
        return sim.now - start

    assert cluster.run_process(proc()) == 0.0


def test_dsm_read_out_of_bounds_rejected():
    cluster = Cluster(2)
    kernels = lite_boot(cluster)
    dsm = LiteDsm(kernels, "oob", 4 * PAGE_SIZE)
    cluster.run_process(dsm.build())

    def proc():
        with pytest.raises(ValueError):
            yield from dsm.nodes[0].read(4 * PAGE_SIZE - 2, 8)

    cluster.run_process(proc())


# -------------------------------------------------------------- graph --


def test_litegraph_single_partition_degenerates_gracefully():
    edges = powerlaw_graph(80, 4, seed=31)
    graph = PartitionedGraph(80, edges, 1)
    cluster = Cluster(1)
    kernels = lite_boot(cluster)
    engine = LiteGraph(kernels, graph)
    ranks = cluster.run_process(engine.run(3))
    assert ranks == pagerank_reference(graph, 3)


def test_partitioned_graph_rejects_zero_partitions():
    with pytest.raises(ValueError):
        PartitionedGraph(10, [(0, 1)], 0)


# ---------------------------------------------------------- MapReduce --


def test_lite_mr_handles_empty_documents():
    corpus = [b"", b"a b a", b"", b"c"]
    cluster = Cluster(3)
    kernels = lite_boot(cluster)
    engine = LiteMR(kernels, total_threads=4, n_partitions=4)
    result = cluster.run_process(engine.run(corpus))
    assert result == {b"a": 2, b"b": 1, b"c": 1}


def test_lite_mr_more_workers_than_documents():
    corpus = generate_corpus(3, 20, vocab_size=30, seed=41)
    cluster = Cluster(6)
    kernels = lite_boot(cluster)
    engine = LiteMR(kernels, total_threads=8)
    result = cluster.run_process(engine.run(corpus))
    from collections import Counter
    from repro.apps.mapreduce.common import wordcount_map

    truth = Counter()
    for doc in corpus:
        truth.update(wordcount_map(doc))
    assert result == truth


# ---------------------------------------------------------------- TCP --


def test_tcp_many_concurrent_connections():
    cluster = Cluster(3)
    sim = cluster.sim
    listener = cluster[2].tcp.listen(9100)
    results = []

    def echo():
        while True:
            conn = yield from listener.accept()

            def serve(c):
                msg = yield from c.recv_msg()
                yield from c.send_msg(b"ok:" + msg)

            sim.process(serve(conn))

    def client(node_index, label):
        conn = yield from cluster[node_index].tcp.connect(2, 9100)
        yield from conn.send_msg(label)
        reply = yield from conn.recv_msg()
        results.append(reply)

    def proc():
        sim.process(echo())
        yield sim.timeout(1)
        procs = [
            sim.process(client(index % 2, f"c{index}".encode()))
            for index in range(6)
        ]
        yield sim.all_of(procs)

    cluster.run_process(proc())
    assert sorted(results) == sorted(f"ok:c{i}".encode() for i in range(6))


# ----------------------------------------------------------- memops --


def test_memset_out_of_bounds_rejected():
    cluster = Cluster(2)
    kernels = lite_boot(cluster)
    ctx = LiteContext(kernels[0], "m")

    def proc():
        lh = yield from ctx.lt_malloc(100, nodes=2)
        with pytest.raises(ValueError):
            yield from ctx.lt_memset(lh, 90, 1, 20)

    cluster.run_process(proc())


def test_memcpy_from_spread_source():
    """Source spread over two nodes: the gather-then-push path."""
    cluster = Cluster(4)
    kernels = lite_boot(cluster)
    ctx = LiteContext(kernels[0], "m")

    def proc():
        src = yield from ctx.lt_malloc(4000, nodes=[2, 3])
        dst = yield from ctx.lt_malloc(4000, nodes=4)
        payload = bytes(range(250)) * 16
        yield from ctx.lt_write(src, 0, payload)
        yield from ctx.lt_memcpy(src, 0, dst, 0, 4000)
        data = yield from ctx.lt_read(dst, 0, 4000)
        return data == payload

    assert cluster.run_process(proc()) is True


def test_grant_can_add_master_role():
    """§4.1: a master can grant the master permission to another user."""
    cluster = Cluster(2)
    kernels = lite_boot(cluster)
    alice = LiteContext(kernels[0], "alice")
    bob = LiteContext(kernels[0], "bob")  # same node: record is local

    def proc():
        yield from alice.lt_malloc(256, name="comaster")
        yield from alice.lt_grant("comaster", "bob", Permission.full())
        bob_lh = yield from bob.lt_map("comaster", Permission.full())
        # Bob, now a master on the record-holding node, can free it.
        yield from bob.lt_free(bob_lh)
        return "comaster" in kernels[0].registry

    assert cluster.run_process(proc()) is False
