"""Structural invariants every recorded trace must satisfy.

Golden tests pin exact bytes for canonical ops; these tests instead run
richer workloads (a fig06/fig10-style mix, and the same mix under a
seeded fault plan) and check properties that must hold for *any* trace:
spans nest, exclusive resources never double-book, the breakdown is an
exact partition of each op's latency, span byte counts reconcile with
the cluster's own counters, and tracing never perturbs simulated time.
"""

import pytest

from repro.core import LiteContext, RpcTimeoutError, lite_boot
from repro.hw import DEFAULT_PARAMS
from repro.obs import (
    HistogramSnapshot, ReplayTrace, aggregate_breakdown, install_tracer,
    op_breakdown, to_jsonl, uninstall_tracer, write_jsonl,
)
from repro.stats import snapshot

from tests import ab

EPS = 1e-9


def traced_mix(seed=7, chaos=False):
    """``ab.mixed_traffic`` traced from boot: ``(cluster, tracer, op
    records, (snapshot before boot, final snapshot))``."""
    record = ab.run(ab.mixed_traffic, "traced", seed=seed, chaos=chaos)
    cluster = record.run.clusters[0]
    return (cluster, cluster.sim.tracer, record.outcomes,
            (record.run.notes["base"], snapshot(cluster)))


@pytest.fixture(scope="module")
def mixed():
    """One fault-free mixed run shared by the read-only invariants."""
    return traced_mix()


def _check_nesting(tracer, allow_late: bool) -> None:
    for span in tracer.spans:
        parent = span.parent
        if span.end is None or parent is None:
            continue
        assert parent.start - EPS <= span.start, \
            f"{span!r} starts before its parent {parent!r}"
        if span.late:
            if not allow_late:
                # The one legitimate fault-free case: the RPC send path
                # hands its WR to an async sender and returns, so that
                # kernel.post outlives rpc.append / rpc.reply_stack.
                assert span.name == "kernel.post" and \
                    parent.name in ("rpc.append", "rpc.reply_stack"), \
                    f"unexpected late span in a fault-free run: {span!r}"
            continue
        if parent.end is not None:
            assert span.end <= parent.end + EPS, \
                f"{span!r} ends after its parent {parent!r}"


def _check_exclusive(tracer) -> None:
    # fabric.serialize = TX-link occupancy: at most one per source node.
    by_node = {}
    for span in tracer.spans:
        if span.name == "fabric.serialize" and span.end is not None:
            by_node.setdefault(span.node, []).append((span.start, span.end))
    assert by_node, "workload produced no serialization spans"
    for node, ivals in by_node.items():
        ivals.sort()
        for (_s0, e0), (s1, _e1) in zip(ivals, ivals[1:]):
            assert s1 >= e0 - EPS, \
                f"TX link of node {node} double-booked: {e0} > {s1}"
    # rnic.proc includes queueing; active occupancy starts q_us later
    # and may overlap at most rnic_processing_units deep.
    units = DEFAULT_PARAMS.rnic_processing_units
    by_node = {}
    for span in tracer.spans:
        if span.name == "rnic.proc" and span.end is not None:
            busy_from = span.start + (span.attrs or {}).get("q_us", 0.0)
            by_node.setdefault(span.node, []).append((busy_from, span.end))
    for node, ivals in by_node.items():
        edges = [(start, 1) for start, _ in ivals]
        edges += [(end, -1) for _, end in ivals]
        depth = 0
        for _at, step in sorted(edges, key=lambda e: (e[0], e[1])):
            depth += step
            assert depth <= units, \
                f"node {node} ran {depth} WQEs on {units} RNIC units"


def test_spans_nest_within_parents(mixed):
    _cluster, tracer, records, _snaps = mixed
    assert len(records) >= 30 and len(tracer.spans) > 300
    _check_nesting(tracer, allow_late=False)
    # After the drain the only open spans are blocked waits: the RPC
    # server parked in reply-and-receive for a call that never comes.
    blocked_ok = {"cpu.wait", "rpc.wait", "op.lt_recv_rpc",
                  "op.lt_reply_recv"}
    stuck = [s for s in tracer.spans
             if s.end is None and s.name not in blocked_ok]
    assert not stuck, f"fault-free run left unfinished work: {stuck}"


def test_exclusive_resources_never_overlap(mixed):
    _cluster, tracer, _records, _snaps = mixed
    _check_exclusive(tracer)


def test_breakdown_is_exact_partition_of_latency(mixed):
    """Per-op category times sum to the op's span duration, and the op
    span duration equals the latency the driver measured around the
    call — so the breakdown explains 100% of observed latency."""
    _cluster, tracer, records, _snaps = mixed
    roots = [s for s in tracer.op_roots()
             if s.parent is None and s.end is not None]
    by_start = {round(s.start, 9): s for s in roots}
    matched = 0
    for label, start, latency in records:
        root = by_start.get(round(start, 9))
        if root is None:
            continue
        assert root.name == label
        assert root.duration == pytest.approx(latency, abs=EPS)
        parts = op_breakdown(root, tracer)
        assert sum(parts.values()) == pytest.approx(root.duration, abs=1e-6)
        matched += 1
    assert matched >= 30, f"only matched {matched} ops to their spans"


def test_span_bytes_reconcile_with_snapshot(mixed):
    """Summing fabric.hop span bytes per node reproduces the port
    tx/rx counters exactly (loopback hops count for both sides)."""
    cluster, tracer, _records, (base, final) = mixed
    delta = final.delta(base)
    tx = {n: 0 for n in delta.nodes}
    rx = {n: 0 for n in delta.nodes}
    for span in tracer.spans:
        if span.name != "fabric.hop":
            continue
        dst = (span.attrs or {}).get("dst")
        if span.end is not None and span.duration > 0:
            tx[span.node] += span.nbytes
        if span.outcome == "ok":
            rx[dst] += span.nbytes
    for node_id, stats in delta.nodes.items():
        assert tx[node_id] == stats.tx_bytes, f"tx mismatch on {node_id}"
        assert rx[node_id] == stats.rx_bytes, f"rx mismatch on {node_id}"
    assert sum(tx.values()) == delta.fabric_bytes


def test_snapshot_op_latency_matches_spans(mixed):
    """The per-op histograms riding on Snapshot agree with the raw
    spans: same op count, and p50/p99 bracket the observed extremes."""
    _cluster, tracer, _records, (_base, final) = mixed
    assert final.op_latency, "tracer installed => op_latency populated"
    for name, snap in final.op_latency.items():
        durs = [s.duration for s in tracer.op_roots()
                if s.name == name and s.end is not None]
        assert snap.count == len(durs)
        # Buckets are power-of-two wide, so any percentile is exact to
        # within one bucket: it lands inside [min/2, max*2).
        assert min(durs) / 2 <= snap.percentile(50) <= max(durs) * 2
        assert snap.percentile(50) <= snap.percentile(99) + EPS
        assert snap.percentile(99) <= max(durs) * 2
        assert snap.min == pytest.approx(min(durs))
        assert snap.max == pytest.approx(max(durs))
    assert "p50" in final.summary() or "n=" in final.summary()


def test_jsonl_export_reloads_to_the_same_trace(mixed, tmp_path):
    """``write_jsonl`` then ``ReplayTrace.from_jsonl`` loses nothing:
    the reloaded spans export the same bytes and break down into the
    same stages."""
    _cluster, tracer, _records, _snaps = mixed
    path = tmp_path / "mixed.jsonl"
    write_jsonl(tracer, path)
    replay = ReplayTrace.from_jsonl(path)
    assert to_jsonl(replay) == to_jsonl(tracer)
    names = sorted({span.name for span in tracer.op_roots()})
    assert "op.lt_write" in names
    for name in [None] + names:
        assert aggregate_breakdown(replay, name) == \
            aggregate_breakdown(tracer, name)


def test_uninstall_tracer_restores_the_fast_path():
    """``uninstall_tracer`` detaches the tracer from the simulator and
    every node's memory, so the next op commits on the fast path and
    the old tracer records nothing more."""
    cluster = ab.Run("fast").cluster(2)
    kernels = lite_boot(cluster)
    tracer = install_tracer(cluster)
    ctx = LiteContext(kernels[0], "u")
    lh = cluster.run_process(ctx.lt_malloc(4096, nodes=2))

    def write():
        yield from ctx.lt_write(lh, 0, b"w" * 64)

    before = snapshot(cluster)
    cluster.run_process(write())
    assert snapshot(cluster).delta(before).fastpath.commits == 0, (
        "a traced op committed")
    assert uninstall_tracer(cluster) is tracer
    assert cluster.sim.tracer is None
    assert all(node.memory.tracer is None for node in cluster.nodes)
    spans = len(tracer.spans)
    cluster.run_process(write())
    assert snapshot(cluster).delta(before).fastpath.commits == 1
    assert len(tracer.spans) == spans


def test_snapshot_delta_op_latency_covers_the_interval():
    """``Snapshot.delta`` of two traced snapshots holds, per op name,
    exactly the op spans that finished between them: bucket for bucket,
    including an op name the baseline never saw."""
    cluster = ab.Run("traced").cluster(2)
    kernels = lite_boot(cluster)
    ctx = LiteContext(kernels[0], "u")
    lh = cluster.run_process(ctx.lt_malloc(4096, nodes=2))

    def ops(writes, reads, atomics):
        for index in range(writes):
            yield from ctx.lt_write(lh, 64 * index, b"w" * 64)
        for index in range(reads):
            yield from ctx.lt_read(lh, 64 * index, 64)
        for _ in range(atomics):
            yield from ctx.lt_fetch_add(lh, 1024, 1)

    cluster.run_process(ops(3, 1, 0))
    base = snapshot(cluster)
    cluster.run_process(ops(2, 4, 1))
    delta = snapshot(cluster).delta(base).op_latency
    finished = {}
    for span in cluster.sim.tracer.op_roots():
        if span.end is not None and span.end > base.at:
            finished.setdefault(span.name, []).append(span.duration)
    assert {name: len(durs) for name, durs in finished.items()} == {
        "op.lt_write": 2, "op.lt_read": 4, "op.lt_fetch_add": 1}
    assert delta["op.lt_malloc"].count == 0
    for name, durs in finished.items():
        assert delta[name].count == len(durs)
        assert delta[name].counts == \
            HistogramSnapshot.from_samples(durs).counts
        assert delta[name].total == pytest.approx(sum(durs))


def test_invariants_hold_under_faults():
    """A seeded chaos run (flapping link + 8% loss) still yields a
    structurally valid trace: spans nest (late retries tolerated),
    exclusive resources never double-book, and the fault machinery
    visibly fired (dropped hops or non-success WQE outcomes)."""
    _cluster, tracer, records, _snaps = traced_mix(seed=11, chaos=True)
    assert records, "every op failed under the fault plan"
    _check_nesting(tracer, allow_late=True)
    _check_exclusive(tracer)
    hops = [s for s in tracer.spans if s.name == "fabric.hop"]
    wqes = [s for s in tracer.spans if s.name == "qp.wqe"]
    faulted = (any(s.outcome == "dropped" for s in hops)
               or any(s.end is not None and s.outcome != "success"
                      for s in wqes))
    assert faulted, "fault plan never produced a visible fault in spans"


def test_failed_op_span_records_the_error():
    """An op that raises ends its root span with ``err:<exception>``."""
    cluster = ab.Run("traced").cluster(2)
    kernels = lite_boot(cluster)
    client = LiteContext(kernels[0], "c")
    LiteContext(kernels[1], "s").lt_reg_rpc(9)  # registered, never served

    def call():
        with pytest.raises(RpcTimeoutError):
            yield from client.lt_rpc(2, 9, b"x", max_reply=64, timeout=200.0)

    cluster.run_process(call())
    assert [span.outcome for span in cluster.sim.tracer.op_roots()
            if span.name == "op.lt_rpc"] == ["err:RpcTimeoutError"]


def test_tracing_off_runs_timing_identical():
    """The tracer records in simulated time but never schedules events:
    the mix traced, untraced on the generator path and untraced with the
    fast path on ends in the same record, per-op latencies included."""
    ab.check(ab.mixed_traffic, modes=("traced", "slow", "fast"), seed=7)
