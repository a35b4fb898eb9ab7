"""Tests for the instrumentation module and LiteLog.verify."""

import dataclasses
import json

import pytest

from repro.apps.litelog import LiteLog, LogCleaner, LogWriter
from repro.cluster import Cluster
from repro.core import LiteContext, lite_boot
from repro.stats import snapshot
from tests import ab


@pytest.fixture
def env():
    cluster = Cluster(2)
    kernels = lite_boot(cluster)
    return cluster, kernels


def test_snapshot_counts_lite_ops(env):
    cluster, kernels = env
    ctx = LiteContext(kernels[0], "u")
    base = snapshot(cluster)

    def proc():
        lh = yield from ctx.lt_malloc(4096, nodes=2)
        yield from ctx.lt_write(lh, 0, b"abc")
        yield from ctx.lt_write(lh, 10, b"def")
        yield from ctx.lt_read(lh, 0, 3)
        yield from ctx.lt_fetch_add(lh, 100, 5)

    cluster.run_process(proc())
    delta = snapshot(cluster).delta(base)
    node0 = delta.nodes[0]
    assert node0.lite_writes == 2
    assert node0.lite_reads == 1
    assert node0.lite_atomics == 1
    assert delta.fabric_bytes > 0
    assert delta.at > 0


def test_snapshot_tracks_dram(env):
    cluster, kernels = env
    ctx = LiteContext(kernels[0], "u")
    base = snapshot(cluster)

    def proc():
        yield from ctx.lt_malloc(1 << 20, nodes=2)

    cluster.run_process(proc())
    delta = snapshot(cluster).delta(base)
    assert delta.nodes[1].dram_allocated >= 1 << 20


def test_snapshot_cache_hit_rates_bounded(env):
    cluster, kernels = env
    ctx = LiteContext(kernels[0], "u")

    def proc():
        lh = yield from ctx.lt_malloc(4096, nodes=2)
        for _ in range(20):
            yield from ctx.lt_write(lh, 0, b"x")

    cluster.run_process(proc())
    stats = snapshot(cluster)
    for node_stats in stats.nodes.values():
        assert 0.0 <= node_stats.key_hit_rate <= 1.0
        assert 0.0 <= node_stats.pte_hit_rate <= 1.0
    # LITE's physical addressing: warm key hit-rate is high.
    assert stats.nodes[1].key_hit_rate > 0.8


def test_snapshot_delta_splits_fastpath_setup_from_the_timed_region():
    """The fast-path counters are the snapshot's ``fastpath`` section: a
    copy, not the live counters, subtracted field by field by
    ``Snapshot.delta``, and part of the JSON tree ``asdict`` gives."""
    cluster = ab.Run("fast").cluster(2)
    ctx = LiteContext(lite_boot(cluster)[0], "u")
    lh = cluster.run_process(ctx.lt_malloc(4096, nodes=2))
    cluster.run_process(ctx.lt_write(lh, 0, b"w"))  # warms both RNICs
    base = snapshot(cluster)
    assert base.fastpath.attempts > 0, "set-up posts control messages"

    def proc():
        for _ in range(5):
            yield from ctx.lt_write(lh, 0, b"x" * 64)

    cluster.run_process(proc())
    end = snapshot(cluster)
    delta = end.delta(base).fastpath
    assert delta.attempts == 5 and delta.commits > 0
    assert dataclasses.asdict(delta) == {
        name: count - dataclasses.asdict(base.fastpath)[name]
        for name, count in dataclasses.asdict(end.fastpath).items()}
    tree = dataclasses.asdict(end)
    assert json.loads(json.dumps(tree))["fastpath"] == tree["fastpath"]


def test_snapshot_delta_rejects_mismatched_nodes(env):
    cluster, _k = env
    stats = snapshot(cluster)
    with pytest.raises(ValueError):
        stats.nodes[0].delta(stats.nodes[1])


def test_summary_renders(env):
    cluster, _k = env
    text = snapshot(cluster).summary()
    assert "node 0" in text and "node 1" in text


# --------------------------------------------------------- log verify --


def test_log_verify_counts_transactions_and_entries(env):
    cluster, kernels = env
    ctx = LiteContext(kernels[0], "logger")

    def proc():
        log = yield from LiteLog.create(ctx, "verilog", 1 << 18, home_node=2)
        writer = LogWriter(log)
        for index in range(15):
            writer.append(bytes([index]) * 24)
            if index % 3 == 0:
                writer.append(b"extra-entry")
            yield from writer.commit()
        return (yield from log.verify())

    transactions, entries = cluster.run_process(proc())
    assert transactions == 15
    assert entries == 15 + 5


def test_log_verify_empty_log(env):
    cluster, kernels = env
    ctx = LiteContext(kernels[0], "logger")

    def proc():
        log = yield from LiteLog.create(ctx, "emptyv", 1 << 16, home_node=2)
        return (yield from log.verify())

    assert cluster.run_process(proc()) == (0, 0)


def test_log_verify_detects_corruption(env):
    cluster, kernels = env
    ctx = LiteContext(kernels[0], "logger")

    def proc():
        log = yield from LiteLog.create(ctx, "corrupt", 1 << 16, home_node=2)
        writer = LogWriter(log)
        writer.append(b"good-entry")
        yield from writer.commit()
        # Smash the entry header in place.
        yield from ctx.lt_memset(log.log_lh, 1, 0xFF, 2)
        with pytest.raises(ValueError):
            yield from log.verify()

    cluster.run_process(proc())


def test_log_verify_after_cleaning(env):
    cluster, kernels = env
    ctx = LiteContext(kernels[0], "logger")

    def proc():
        log = yield from LiteLog.create(ctx, "cleanv", 1 << 18, home_node=2)
        writer = LogWriter(log)
        for _ in range(10):
            writer.append(b"z" * 50)
            yield from writer.commit()
        cleaner = LogCleaner(log, batch_bytes=140)  # two transactions
        reclaimed = yield from cleaner.clean_once()
        assert reclaimed == 140
        return (yield from log.verify())

    transactions, _entries = cluster.run_process(proc())
    assert transactions == 8  # two were reclaimed past the head
