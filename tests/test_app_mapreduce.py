"""Tests for the three MapReduce systems (§8.2)."""

from collections import Counter

import pytest

from repro.apps.mapreduce import HadoopMR, LiteMR, PhoenixMR
from repro.apps.mapreduce.common import (
    decode_counts,
    encode_counts,
    map_task,
    partition_counts,
    split_tasks,
    wordcount_map,
)
from repro.cluster import Cluster
from repro.core import lite_boot
from repro.workloads import generate_corpus


@pytest.fixture(scope="module")
def corpus():
    return generate_corpus(48, 300, vocab_size=500, seed=9)


@pytest.fixture(scope="module")
def truth(corpus):
    total = Counter()
    for document in corpus:
        total.update(wordcount_map(document))
    return total


def test_wordcount_map_counts_words():
    counts = wordcount_map(b"a b a c a b")
    assert counts == Counter({b"a": 3, b"b": 2, b"c": 1})


def test_encode_decode_roundtrip():
    counts = Counter({b"alpha": 3, b"beta": 17, b"gamma": 1})
    assert decode_counts(encode_counts(counts)) == counts


def test_encode_decode_empty():
    assert decode_counts(encode_counts(Counter())) == Counter()


def test_partition_counts_cover_everything():
    counts = wordcount_map(b" ".join(b"w%d" % i for i in range(100)))
    parts = partition_counts(counts, 7)
    merged = Counter()
    for part in parts:
        merged.update(part)
    assert merged == counts


def test_split_tasks_covers_range():
    spans = split_tasks(10, 3)
    assert spans == [(0, 4), (4, 7), (7, 10)]
    assert split_tasks(2, 5) == [(0, 1), (1, 2)]


def test_phoenix_correct(corpus, truth):
    cluster = Cluster(1)
    engine = PhoenixMR(cluster[0], n_threads=8)
    result = cluster.run_process(engine.run(corpus))
    assert result == truth
    assert set(engine.phase_times) == {"map", "reduce", "merge", "total"}
    assert engine.phase_times["total"] > 0


def test_lite_mr_correct(corpus, truth):
    cluster = Cluster(5)
    kernels = lite_boot(cluster)
    engine = LiteMR(kernels, total_threads=8)
    result = cluster.run_process(engine.run(corpus))
    assert result == truth


def test_lite_mr_two_workers(corpus, truth):
    cluster = Cluster(3)
    kernels = lite_boot(cluster)
    engine = LiteMR(kernels, total_threads=8)
    result = cluster.run_process(engine.run(corpus))
    assert result == truth


def test_hadoop_correct(corpus, truth):
    cluster = Cluster(5)
    engine = HadoopMR(cluster.nodes, total_threads=8)
    result = cluster.run_process(engine.run(corpus))
    assert result == truth


def test_hadoop_slower_than_lite_mr(corpus):
    lite_cluster = Cluster(5)
    kernels = lite_boot(lite_cluster)
    lite_engine = LiteMR(kernels, total_threads=8)
    lite_cluster.run_process(lite_engine.run(corpus))

    hadoop_cluster = Cluster(5)
    hadoop_engine = HadoopMR(hadoop_cluster.nodes, total_threads=8)
    hadoop_cluster.run_process(hadoop_engine.run(corpus))

    assert hadoop_engine.phase_times["total"] > 2 * lite_engine.phase_times["total"]


def test_lite_mr_scales_with_workers(truth):
    """More worker nodes should not slow the job down (Fig 18 trend)."""
    documents = generate_corpus(64, 400, vocab_size=500, seed=10)
    times = {}
    for n_nodes in (2, 4):
        cluster = Cluster(n_nodes + 1)
        kernels = lite_boot(cluster)
        engine = LiteMR(kernels, total_threads=8)
        result = cluster.run_process(engine.run(documents))
        times[n_nodes] = engine.phase_times["total"]
    assert times[4] <= times[2] * 1.3


def test_lite_mr_rejects_tiny_cluster():
    cluster = Cluster(1)
    kernels = lite_boot(cluster)
    with pytest.raises(ValueError):
        LiteMR(kernels)


# ------------------------------------------------ the shared map kernel --


def test_map_task_equals_the_per_document_path(corpus, truth):
    for lo, hi in [(0, len(corpus)), (5, 17), (3, 3)]:
        local = Counter()
        nbytes = 0
        for document in corpus[lo:hi]:
            local.update(wordcount_map(document))
            nbytes += len(document)
        counts, counted = map_task(corpus[lo:hi])
        assert (counts, counted) == (local, nbytes)
        # Same insertion order too: it decides the partition blobs' order.
        assert list(counts) == list(local)
    assert map_task(corpus)[0] == truth


def _lite_mr():
    cluster = Cluster(5)
    return cluster, LiteMR(lite_boot(cluster), total_threads=8, n_partitions=1)


def _phoenix():
    cluster = Cluster(1)
    return cluster, PhoenixMR(cluster[0], n_threads=8, n_partitions=1)


def _hadoop():
    cluster = Cluster(5)
    return cluster, HadoopMR(cluster.nodes, total_threads=8, n_partitions=1)


# Simulated phase times recorded on the commit before the three systems
# moved to map_task().  One reduce partition, because partitioning uses
# hash(bytes) and would otherwise change from process to process.
@pytest.mark.parametrize("build, phase_times", [
    (_lite_mr, {"map": 234.24063311767577, "reduce": 127.91892158813488,
                "merge": 0.0, "total": 362.15955470581065}),
    (_phoenix, {"map": 299.8513, "reduce": 39.920000000000016,
                "merge": 0.0, "total": 339.7713}),
    (_hadoop, {"map": 7515.46, "reduce": 2092.752426923079,
               "merge": 47.328669230768355, "total": 9655.541096153847}),
])
def test_map_kernel_leaves_sim_time_unchanged(build, phase_times, corpus, truth):
    cluster, engine = build()
    assert cluster.run_process(engine.run(corpus)) == truth
    assert engine.phase_times == phase_times


def test_lite_mr_second_run_counts_only_its_own_documents(corpus, truth):
    cluster = Cluster(3)
    engine = LiteMR(lite_boot(cluster), total_threads=8)
    assert cluster.run_process(engine.run(corpus)) == truth
    servers = [worker._server for worker in engine.workers]
    # Used to return truth + truth and start a second server loop each.
    assert cluster.run_process(engine.run(corpus)) == truth
    assert cluster.run_process(engine.run(corpus[:7])) == map_task(corpus[:7])[0]
    assert [worker._server for worker in engine.workers] == servers
