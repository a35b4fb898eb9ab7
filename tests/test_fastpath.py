"""Run-to-completion fast path: equivalence and cost-table invalidation.

The contract under test (docs/INTERNALS.md §13): with the fast path on,
every observable — final simulated time, per-op outcomes, and the
whole-cluster :class:`~repro.stats.Snapshot` — is *bit-identical* to a
run with ``REPRO_NO_FASTPATH=1``.  (``Simulator._seq`` is not one of
them: it counts real enqueues, and a fast run makes fewer.)  The
property test drives randomized mixed workloads (one-sided ops of many
sizes, RPCs, and a seeded fault plan) through both modes and compares
at quiescence.

Comparison happens only after ``sim.run()`` drains every in-flight op:
the fast path accounts counters at commit time while the generator path
accounts them as events arrive, so mid-flight snapshots may legally
differ — end states may not.
"""

import dataclasses
import os
import random

import pytest

from repro.cluster import Cluster
from repro.determinism import reset_global_counters
from repro.core import (
    LiteContext,
    LiteError,
    RpcTimeoutError,
    lite_boot,
    rpc_server_loop,
)
from repro.fault import FaultInjector, FaultPlan
from repro.hw.params import MB, SimParams
from repro.recovery import RecoveryManager
from repro.stats import snapshot
from repro.verbs.fastpath import CostTable, fp_stats, prime_qp, try_fast_post


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------
def _with_fastpath(enabled):
    """Context-manager-free env toggle (Simulator reads it at __init__)."""
    if enabled:
        os.environ.pop("REPRO_NO_FASTPATH", None)
    else:
        os.environ["REPRO_NO_FASTPATH"] = "1"


def _run_workload(seed: int, fastpath: bool, faults: bool):
    """One randomized mixed workload; returns the end-state observables."""
    saved = os.environ.get("REPRO_NO_FASTPATH")
    _with_fastpath(fastpath)
    # Process-global id counters feed token digit counts into control-
    # message sizes (see repro.determinism); rewind them so the fast and
    # slow runs see byte-identical wire traffic.
    reset_global_counters()
    try:
        cluster = Cluster(3)
        kernels = lite_boot(cluster)
        if faults:
            plan = FaultPlan.random(
                seed, [node.node_id for node in cluster.nodes], 40000.0,
                crashes=0, flaps=1, loss_rate=0.02,
            )
            FaultInjector(cluster, plan).install()
        ctx = LiteContext(kernels[0], "prop", kernel_level=True)
        server = LiteContext(kernels[2], "srv")
        cluster.sim.process(rpc_server_loop(server, 1, lambda data: data))

        holder = {}

        def setup():
            holder["lh"] = yield from ctx.lt_malloc(1 * MB, nodes=2)

        cluster.run_process(setup())
        lh = holder["lh"]
        rng = random.Random(seed)
        errors = []

        def driver():
            yield cluster.sim.timeout(5)
            for index in range(80):
                kind = rng.randrange(4)
                size = rng.choice((8, 64, 512, 4096, 32768))
                offset = rng.randrange(0, 64) * 1024
                try:
                    if kind == 0:
                        yield from ctx.lt_write(
                            lh, offset, bytes([index & 0xFF]) * size
                        )
                    elif kind == 1:
                        yield from ctx.lt_read(lh, offset, size)
                    elif kind == 2:
                        reply = yield from ctx.lt_rpc(
                            3, 1, b"q" * min(size, 1024), max_reply=2048
                        )
                        errors.append(len(reply))
                    else:
                        kernels[0].onesided.raw_write_async(
                            kernels[1].lite_id,
                            holder_addr + offset,
                            b"a" * min(size, 256),
                        )
                except (LiteError, RpcTimeoutError) as exc:
                    errors.append(type(exc).__name__)

        sink = kernels[1].node.memory.alloc(256 * 1024)
        holder_addr = sink.addr
        cluster.run_process(driver())
        cluster.sim.run()  # drain in-flight tails before comparing
        snap = dataclasses.asdict(snapshot(cluster))
        return cluster.sim.now, snap, errors
    finally:
        if saved is None:
            os.environ.pop("REPRO_NO_FASTPATH", None)
        else:
            os.environ["REPRO_NO_FASTPATH"] = saved


# ---------------------------------------------------------------------------
# Equivalence property: fast on == fast off, bit for bit
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("seed", [7, 23, 91])
@pytest.mark.parametrize("faults", [False, True])
def test_fastpath_equivalence_randomized(seed, faults):
    fast = _run_workload(seed, fastpath=True, faults=faults)
    slow = _run_workload(seed, fastpath=False, faults=faults)
    assert fast[0] == slow[0], "final sim time diverged"
    assert fast[1] == slow[1], "cluster snapshot diverged"
    assert fast[2] == slow[2], "op outcomes diverged"


def test_every_declined_attempt_counts_one_reason():
    """Reject reasons are data: over a mixed LITE workload (with and
    without a fault plan) attempts == commits + the ``rej_*`` counters,
    all plain ints, and ``repr`` reports every counter family."""
    before = {slot: getattr(fp_stats, slot) for slot in fp_stats.__slots__}
    _run_workload(23, fastpath=True, faults=False)
    _run_workload(23, fastpath=True, faults=True)
    delta = {slot: getattr(fp_stats, slot) - before[slot]
             for slot in fp_stats.__slots__}
    assert all(type(getattr(fp_stats, slot)) is int
               for slot in fp_stats.__slots__)
    attempts, commits = delta["attempts"], delta["commits"]
    rejects = {slot: count for slot, count in delta.items()
               if slot.startswith("rej_") and count}
    assert commits > 0 and len(rejects) >= 3, rejects
    assert attempts == commits + sum(rejects.values())
    text = repr(fp_stats)
    assert all(f"{slot}={getattr(fp_stats, slot)}" in text
               for slot in fp_stats.__slots__)


def _run_crash_burst(fastpath: bool):
    """A write burst whose target node crashes (and restarts) mid-burst,
    with keep-alive + lease recovery armed; returns end-state observables."""
    saved = os.environ.get("REPRO_NO_FASTPATH")
    _with_fastpath(fastpath)
    reset_global_counters()
    try:
        cluster = Cluster(3)
        kernels = lite_boot(cluster)
        sim = cluster.sim
        # LITE 2 hosts the primary chunks and dies mid-burst, then
        # restarts into a remapped world (its old LMR was promoted away).
        plan = FaultPlan().crash(1, 1500.0, restart_at_us=6000.0)
        injector = FaultInjector(cluster, plan).install()
        injector.arm_lite(kernels, keepalive_interval_us=500.0, miss_limit=2)
        recovery = RecoveryManager(
            cluster, kernels, lease_ttl_us=1500.0,
            renew_interval_us=400.0, sweep_interval_us=300.0,
        ).arm()
        ctx = LiteContext(kernels[0], "burst", kernel_level=True)
        holder = {}

        def setup():
            holder["lh"] = yield from ctx.lt_malloc(
                256 * 1024, nodes=2, replicas=1
            )

        cluster.run_process(setup())
        lh = holder["lh"]
        outcomes = []

        def driver():
            for index in range(60):
                offset = (index * 64) % (256 * 1024)
                try:
                    yield from ctx.lt_write(
                        lh, offset, bytes([index & 0xFF]) * 64
                    )
                    outcomes.append(index)
                except LiteError as exc:
                    outcomes.append((type(exc).__name__, exc.errno))
                    yield sim.timeout(200.0)
                yield sim.timeout(40.0)
            # Settle past restart + rejoin so the post-restart paths run.
            if sim.now < 10000.0:
                yield sim.timeout(10000.0 - sim.now)
            recovery.stop()

        # No trailing sim.run(): the keep-alive/lease loops never exit,
        # and the driver's settle window already drains in-flight tails.
        cluster.run_process(driver())
        snap = dataclasses.asdict(snapshot(cluster))
        return (sim.now, snap, outcomes,
                recovery.promotions, recovery.rejoins)
    finally:
        if saved is None:
            os.environ.pop("REPRO_NO_FASTPATH", None)
        else:
            os.environ["REPRO_NO_FASTPATH"] = saved


def test_crash_mid_burst_fastpath_ab_identity():
    """Regression for the fast-path/fault interplay: a QP entering ERROR
    or its peer crashing/rejoining must never let a CostTable commit
    across the fault, so a mid-burst crash produces bit-identical sim
    time, snapshots, op outcomes, and recovery lifecycle with the fast
    path on vs ``REPRO_NO_FASTPATH=1`` — a stale table committing
    against the dead (or post-restart remapped) peer would diverge all
    four."""
    commits_before = fp_stats.commits
    fast = _run_crash_burst(fastpath=True)
    assert fp_stats.commits > commits_before, \
        "the burst must actually exercise fast-path commits"
    slow = _run_crash_burst(fastpath=False)
    assert fast[0] == slow[0], "final sim time diverged"
    assert fast[1] == slow[1], "cluster snapshot diverged"
    assert fast[2] == slow[2], "op outcomes diverged"
    assert fast[3:] == slow[3:], "recovery lifecycle diverged"
    assert fast[3] >= 1, "the crash must trigger a promotion"
    assert fast[4] >= 1, "the restart must trigger a rejoin"


def _run_retry_storm(fastpath: bool):
    """Loss-driven RPC retry storm against the reply cache.

    Seeded packet loss drops some reply writes on the wire, so the
    client times out and resends an already-answered token — the server
    must answer from the reply cache (hit → cached resend) or, when the
    handler is still running, drop the duplicate (in-flight
    suppression).  Under a loss rule every fast-path attempt declines
    (a commit assumes lossless delivery), so the A/B pins that declined
    attempts leave no trace on the duplicate-suppression machinery.
    Returns end-state observables + cache hit/install counters.
    """
    saved = os.environ.get("REPRO_NO_FASTPATH")
    _with_fastpath(fastpath)
    reset_global_counters()
    try:
        cluster = Cluster(3)
        kernels = lite_boot(cluster)
        sim = cluster.sim
        plan = FaultPlan().packet_loss(0.08, start_us=10.0)
        FaultInjector(cluster, plan).install()
        client = LiteContext(kernels[0], "storm-cli")
        server = LiteContext(kernels[2], "storm-srv")
        sim.process(rpc_server_loop(server, 9, lambda data: data[:16] * 2))
        outcomes = []

        def driver():
            yield sim.timeout(5)
            for index in range(120):
                payload = bytes([index & 0xFF]) * 96
                try:
                    reply = yield from client.lt_rpc(
                        3, 9, payload, max_reply=1024,
                        timeout=700.0, retries=4,
                    )
                    outcomes.append(len(reply))
                except (LiteError, RpcTimeoutError) as exc:
                    outcomes.append(type(exc).__name__)
                    yield sim.timeout(60.0)

        cluster.run_process(driver())
        sim.run()  # drain straggler retries / late replies
        snap = dataclasses.asdict(snapshot(cluster))
        cache = kernels[2].rpc._reply_cache
        return (sim.now, snap, outcomes,
                cache.stats.hits, cache.stats.installs)
    finally:
        if saved is None:
            os.environ.pop("REPRO_NO_FASTPATH", None)
        else:
            os.environ["REPRO_NO_FASTPATH"] = saved


def test_retry_storm_reply_cache_fastpath_ab_identity():
    """ISSUE 8 satellite: retried tokens must hit the (now LruDict)
    reply cache identically with the fast path on and off — a request
    delivery that mis-handled duplicate suppression would skew
    outcomes, sim time, or the cache counters between the modes."""
    fast = _run_retry_storm(fastpath=True)
    slow = _run_retry_storm(fastpath=False)
    assert fast[0] == slow[0], "final sim time diverged"
    assert fast[1] == slow[1], "cluster snapshot diverged"
    assert fast[2] == slow[2], "op outcomes diverged"
    assert fast[3:] == slow[3:], "reply-cache activity diverged"
    assert fast[3] > 0, \
        "the storm must actually resend answered tokens (cache hits)"


def _run_ring_wrap_burst(fastpath: bool):
    """An RPC burst on a deliberately tiny ring, forcing mid-burst wraps.

    A wrapped append lands its first piece with an awaited
    ``raw_write`` and its imm-carrying remainder at the ring start; the
    remainder is an ordinary WRITE_IMM that may commit.  Returns
    end-state observables.
    """
    saved = os.environ.get("REPRO_NO_FASTPATH")
    _with_fastpath(fastpath)
    reset_global_counters()
    try:
        params = SimParams(lite_rpc_ring_bytes=4096)
        cluster = Cluster(2, params=params)
        kernels = lite_boot(cluster)
        sim = cluster.sim
        client = LiteContext(kernels[0], "wrap-cli")
        server = LiteContext(kernels[1], "wrap-srv")
        sim.process(rpc_server_loop(server, 5, lambda data: data[::-1]))
        payload_sizes = (256, 512, 128, 384)
        outcomes = []

        def driver():
            yield sim.timeout(5)
            for index in range(80):
                payload = bytes([index & 0xFF]) * payload_sizes[index % 4]
                reply = yield from client.lt_rpc(
                    2, 5, payload, max_reply=2048, timeout=None
                )
                outcomes.append((len(reply), reply[:4]))

        cluster.run_process(driver())
        sim.run()
        # Arithmetic guarantee that the burst wrapped (several times):
        # every entry is header + payload bytes, all through one ring.
        appended = sum(20 + size for size in payload_sizes) * 20
        assert appended > 5 * params.lite_rpc_ring_bytes
        snap = dataclasses.asdict(snapshot(cluster))
        return sim.now, snap, outcomes
    finally:
        if saved is None:
            os.environ.pop("REPRO_NO_FASTPATH", None)
        else:
            os.environ["REPRO_NO_FASTPATH"] = saved


def test_ring_wrap_mid_burst_fastpath_ab_identity():
    """ISSUE 8 satellite: with a 4 KB ring the burst wraps every ~13
    calls; the two-part wrapping appends must stay bit-identical to the
    slow run while the burst commits."""
    commits_before = fp_stats.commits
    fast = _run_ring_wrap_burst(fastpath=True)
    commits = fp_stats.commits - commits_before
    assert commits > 0, "the burst must exercise fast-path commits"
    slow = _run_ring_wrap_burst(fastpath=False)
    assert fast[0] == slow[0], "final sim time diverged"
    assert fast[1] == slow[1], "cluster snapshot diverged"
    assert fast[2] == slow[2], "op outcomes diverged"


class _SleepyContext(LiteContext):
    """A user-level context that sleeps for every reply or request: the
    wait strategy overridden in a subclass rather than on an instance."""

    def _waiter(self):
        cpu, tag = self.kernel.node.cpu, self._tag

        def sleep_waiter(event):
            value = yield from cpu.sleep_wait(event, tag=tag)
            return value

        return sleep_waiter


def _run_light_load_rpcs(fastpath: bool, busy: str, sleepy: bool = False):
    """12 light-load RPCs through ``rpc_server_loop``; the context named
    by ``busy`` ("server", "client" or "") spins instead of waiting
    adaptively, overridden the way benchmarks/test_ablations.py does it.
    ``sleepy`` makes the server a :class:`_SleepyContext` and gives the
    client the same sleeping strategy as an instance override.
    Returns (final sim time, replies, CPU per role).
    """
    saved = os.environ.get("REPRO_NO_FASTPATH")
    _with_fastpath(fastpath)
    reset_global_counters()
    try:
        cluster = Cluster(2)
        kernels = lite_boot(cluster)
        sim = cluster.sim
        server_cls = _SleepyContext if sleepy else LiteContext
        contexts = {"client": LiteContext(kernels[0], "light-cli"),
                    "server": server_cls(kernels[1], "light-srv")}
        client, server = contexts["client"], contexts["server"]
        if sleepy:
            client._waiter = _SleepyContext._waiter.__get__(client)
        if busy:
            ctx = contexts[busy]
            cpu = ctx.kernel.node.cpu

            def busy_waiter(event):
                value = yield from cpu.busy_wait(event, tag=ctx._tag)
                return value

            ctx._waiter = lambda: busy_waiter

        def handler(data):
            # Longer than the adaptive busy window, so that a client's
            # wait strategy shows in its ledger too.
            yield sim.timeout(25.0)
            return data[::-1] * 4

        sim.process(rpc_server_loop(server, 1, handler))
        replies = []

        def driver():
            rng = random.Random(4)
            for index in range(12):
                yield sim.timeout(250 + rng.random() * 100)
                reply = yield from client.lt_rpc(
                    2, 1, bytes([index]) * 8, max_reply=128)
                replies.append(reply)

        cluster.run_process(driver())
        sim.run()  # the server's last reply-recv crossing settles
        ledger = {role: ctx.kernel.node.cpu.busy_time.get(ctx._tag, 0.0)
                  for role, ctx in contexts.items()}
        return sim.now, replies, ledger
    finally:
        if saved is None:
            os.environ.pop("REPRO_NO_FASTPATH", None)
        else:
            os.environ["REPRO_NO_FASTPATH"] = saved


@pytest.mark.parametrize("busy", ["server", "client", ""])
def test_overridden_wait_strategy_fastpath_ab_identity(busy):
    """A context's ``_waiter`` override is honoured on every call in
    both modes (ISSUE 20 found a fast run charging a busy server ~21 µs
    per request where the slow run charged the whole ~300 µs gap)."""
    fast = _run_light_load_rpcs(fastpath=True, busy=busy)
    slow = _run_light_load_rpcs(fastpath=False, busy=busy)
    assert fast[0] == slow[0], "final sim time diverged"
    assert fast[1] == slow[1], "reply bytes diverged"
    assert fast[2] == slow[2], "CPU ledger diverged"
    assert len(fast[1]) == 12
    if busy == "server":
        assert fast[2]["server"] / 12 > 250, \
            "a busy server burns the inter-arrival gap"


def test_sleeping_and_subclass_waiter_fastpath_ab_identity():
    """A sleeping ``_waiter`` — one set on the instance, one defined in
    a subclass — is what every wait pays in both modes: neither side
    burns the adaptive busy window the stock strategy would."""
    fast = _run_light_load_rpcs(fastpath=True, busy="", sleepy=True)
    slow = _run_light_load_rpcs(fastpath=False, busy="", sleepy=True)
    assert fast == slow
    assert len(fast[1]) == 12
    stock = _run_light_load_rpcs(fastpath=True, busy="")
    assert fast[2]["client"] < stock[2]["client"]
    assert fast[2]["server"] < stock[2]["server"]


def _run_echo_rpcs(fastpath: bool):
    """300 sequential 512 B echo RPCs, one client, two nodes — the
    closed loop in which every request, head-pointer update and reply
    commits.  Returns (end-state observables, fp_stats movement)."""
    reset_global_counters()
    cluster = Cluster(2)
    sim = cluster.sim
    sim.fastpath_enabled = fastpath
    kernels = lite_boot(cluster)
    client = LiteContext(kernels[0], "echo-cli")
    server = LiteContext(kernels[1], "echo-srv")
    sim.process(rpc_server_loop(server, 1, lambda data: data))
    replies = []

    def driver():
        for index in range(300):
            reply = yield from client.lt_rpc(
                2, 1, bytes([index & 0xFF]) * 512, max_reply=512)
            replies.append(reply)

    before = {name: getattr(fp_stats, name) for name in fp_stats.__slots__}
    cluster.run_process(driver())
    sim.run()
    moved = {name: getattr(fp_stats, name) - before[name]
             for name in fp_stats.__slots__}
    observed = (
        sim.now, dataclasses.asdict(snapshot(cluster)), replies,
        [dict(kernel.node.cpu.busy_time) for kernel in kernels],
        [(kernel.recv_cq.pushed, kernel.recv_cq.polled)
         for kernel in kernels],
    )
    return observed, moved


def test_sequential_echo_rpcs_fastpath_ab_identity():
    """The poll iteration a committed write-imm wakes is the generator
    path's own: time, snapshot, every CPU tag on both nodes and both
    kernels' receive-CQ counters agree with the slow run while ≥ 99% of
    the three ring writes per RPC commit."""
    fast, moved = _run_echo_rpcs(fastpath=True)
    slow, slow_moved = _run_echo_rpcs(fastpath=False)
    assert fast[0] == slow[0], "final sim time diverged"
    assert fast[1] == slow[1], "cluster snapshot diverged"
    assert fast[2] == slow[2] and len(fast[2]) == 300
    assert fast[3] == slow[3], "per-tag CPU ledgers diverged"
    assert fast[4] == slow[4], "receive-CQ pushed/polled diverged"
    assert moved["commits"] >= 0.99 * (3 * 300)
    assert moved["mismodels"] == 0
    assert not any(slow_moved.values()), "the slow run must not attempt"


def _run_near_simultaneous_requests(fastpath: bool):
    """Two clients on two nodes call one server in rounds; the second
    starts 0.01 µs later each round, so their request write-imms reach
    the server's receive CQ from 0.01 to 0.07 µs apart — a second CQE
    landing while the poller is still inside the first one's discovery
    delay (``poll_loop_us / 2``), and just after it.
    Returns (final time, dispatch order, request CQE arrivals, replies
    with their completion instants, CPU ledgers)."""
    from repro.verbs.wr import Opcode

    reset_global_counters()
    cluster = Cluster(3)
    sim = cluster.sim
    sim.fastpath_enabled = fastpath
    kernels = lite_boot(cluster)
    clients = [LiteContext(kernels[0], "near-a"),
               LiteContext(kernels[1], "near-b")]
    server = LiteContext(kernels[2], "near-srv")
    order = []

    def handler(data):
        order.append(data[0])
        return data

    sim.process(rpc_server_loop(server, 1, handler))
    arrivals = []
    dispatch = kernels[2]._dispatch_wc

    def spy(wc):
        if wc.opcode is Opcode.RECV_IMM:
            arrivals.append((wc.completed_at, wc.src_node))
        dispatch(wc)

    kernels[2]._dispatch_wc = spy
    replies = [[], []]
    start = sim.now

    def client(who):
        for rnd in range(8):
            lag = 0.01 * rnd * who
            yield sim.timeout(start + 300.0 * (rnd + 1) + lag - sim.now)
            reply = yield from clients[who].lt_rpc(
                3, 1, bytes([16 * who + rnd]) * 8, max_reply=64)
            replies[who].append((sim.now, reply))

    for who in (0, 1):
        sim.process(client(who))
    sim.run()
    ledgers = [dict(kernel.node.cpu.busy_time) for kernel in kernels]
    return sim.now, order, arrivals, replies, ledgers


def test_near_simultaneous_requests_fastpath_ab_identity():
    """A request CQE that lands inside another's poll iteration is
    queued behind it and dispatched in arrival order in both modes."""
    commits_before = fp_stats.commits
    fast = _run_near_simultaneous_requests(fastpath=True)
    assert fp_stats.commits > commits_before
    slow = _run_near_simultaneous_requests(fastpath=False)
    assert fast[0] == slow[0], "final sim time diverged"
    assert fast[1] == slow[1], "dispatch order diverged"
    assert fast[2] == slow[2], "request CQE arrivals diverged"
    assert fast[3] == slow[3], "replies diverged"
    assert fast[4] == slow[4], "CPU ledgers diverged"
    assert len(fast[1]) == 16
    half_poll = SimParams().poll_loop_us / 2
    rounds = list(zip(fast[2][0::2], fast[2][1::2]))
    assert all(first[1] != later[1] for first, later in rounds)
    gaps = [later[0] - first[0] for first, later in rounds]
    assert sum(gap <= half_poll for gap in gaps) >= 3
    assert sum(gap > half_poll for gap in gaps) >= 3


def test_kill_switch_disables_commits():
    saved = os.environ.get("REPRO_NO_FASTPATH")
    os.environ["REPRO_NO_FASTPATH"] = "1"
    try:
        cluster = Cluster(2)
        kernels = lite_boot(cluster)
        assert cluster.sim.fastpath_enabled is False
        before = fp_stats.commits
        ctx = LiteContext(kernels[0], "ks", kernel_level=True)
        holder = {}

        def setup():
            holder["lh"] = yield from ctx.lt_malloc(64 * 1024, nodes=2)

        cluster.run_process(setup())

        def driver():
            yield from ctx.lt_write(holder["lh"], 0, b"x" * 64)

        cluster.run_process(driver())
        assert fp_stats.commits == before
    finally:
        if saved is None:
            os.environ.pop("REPRO_NO_FASTPATH", None)
        else:
            os.environ["REPRO_NO_FASTPATH"] = saved


# ---------------------------------------------------------------------------
# Cost-table keying and invalidation
# ---------------------------------------------------------------------------
def _connected_qp(kernels):
    """A shared QP from kernel 0 toward kernel 1 (primed at connect)."""
    peer = kernels[0].peers[kernels[1].lite_id]
    return peer.qps[0]


def test_cost_table_built_at_connect_and_stable():
    cluster = Cluster(2)
    kernels = lite_boot(cluster)
    qp = _connected_qp(kernels)
    table = qp._fp_table
    assert isinstance(table, CostTable), "connect() should prime the table"
    assert table.valid()
    builds = fp_stats.table_builds
    prime_qp(qp)  # re-prime: still valid, no rebuild
    assert qp._fp_table is table
    assert fp_stats.table_builds == builds


def test_cost_table_invalidated_by_param_mutation():
    # Fresh SimParams: the default is a process-wide singleton, and the
    # doubled knob below must not leak into later tests' clusters.
    cluster = Cluster(2, params=SimParams())
    kernels = lite_boot(cluster)
    qp = _connected_qp(kernels)
    table = qp._fp_table
    assert table is not None and table.valid()
    kernels[1].params.rnic_wqe_process_us *= 2.0
    assert not table.valid(), "remote SimParams mutation must invalidate"


def test_fast_post_rejects_tracer_and_disabled():
    cluster = Cluster(2)
    kernels = lite_boot(cluster)
    qp = _connected_qp(kernels)
    # Tracer installed → fast path must refuse (trace goldens depend on
    # the generator path's span tree).
    cluster.sim.tracer = object.__new__(type("T", (), {}))
    try:
        from repro.verbs.wr import Opcode, SendWR

        wr = SendWR(opcode=Opcode.WRITE, inline_data=b"x" * 16,
                    remote_addr=0, rkey=0)
        assert try_fast_post(qp, wr) is None
    finally:
        cluster.sim.tracer = None


# ---------------------------------------------------------------------------
# The one commit: horizon floor, and three callers onto one timeline
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("opcode_name", ["WRITE", "WRITE_IMM", "READ"])
def test_horizon_floor_strictly_below_completion(opcode_name):
    """``CostTable.floor`` feeds the early horizon reject, which is only
    free if it can never reject what the exact check would accept: the
    floor must sit strictly below every committed completion delay."""
    from repro.core.protocol import pack_reply_imm
    from repro.verbs.wr import Opcode, SendWR

    opcode = Opcode[opcode_name]
    cluster = Cluster(2)
    kernels = lite_boot(cluster)
    sim = cluster.sim
    sim.fastpath_enabled = True  # also under the REPRO_NO_FASTPATH=1 leg
    peer = kernels[0].peers[kernels[1].lite_id]
    qp, window = peer.qps[0], peer.windows[0]
    sink = kernels[1].node.memory.alloc(1 * MB)
    # One generator-path write warms the QP and key caches on both ends.
    cluster.run_process(
        kernels[0].onesided.raw_write(kernels[1].lite_id, sink.addr, b"w")
    )
    # An unknown reply token: the receiving kernel dispatches and drops it.
    imm = pack_reply_imm(12345) if opcode is Opcode.WRITE_IMM else None
    for nbytes in (1, 64, 4096, 1 * MB):
        for signaled in (True, False):
            if opcode is Opcode.READ:
                wr = SendWR(opcode, remote_addr=sink.addr,
                            rkey=peer.global_rkey, read_length=nbytes,
                            signaled=signaled)
            else:
                wr = SendWR(opcode, inline_data=b"f" * nbytes,
                            remote_addr=sink.addr, rkey=peer.global_rkey,
                            imm=imm, signaled=signaled)
            posted = sim.now
            handle = try_fast_post(qp, wr, window)
            assert handle is not None, (nbytes, signaled)
            if signaled:
                sim.run(stop=handle)
            else:
                # No handle: the op completes when its window slot frees.
                assert handle is True
                while window.in_use:
                    sim.step()
            floor = qp._fp_table.floor
            assert floor > 0.0
            assert posted + floor < sim.now, (nbytes, signaled)
            sim.run()  # drain the delivery tail before the next post


def _one_write(caller: str, fastpath: bool):
    """One 512 B write through the named caller; returns the completion
    instant, the quiescent instant, the bytes that landed, and whether
    the op moved ``fp_stats.commits``."""
    saved = os.environ.get("REPRO_NO_FASTPATH")
    _with_fastpath(fastpath)
    reset_global_counters()
    try:
        cluster = Cluster(3)
        kernels = lite_boot(cluster)
        sim = cluster.sim
        ctx = LiteContext(kernels[0], "entry", kernel_level=True)
        sink = kernels[1].node.memory.alloc(4096)
        payload = bytes(range(256)) * 2
        raw = caller == "raw_write_async"
        holder = {}

        def driver():
            # Warm both RNICs' SRAM so the measured op can commit (raw
            # writes round-robin the shared QPs: one warm-up per QP).
            if raw:
                for _ in kernels[0].peers[kernels[1].lite_id].qps:
                    kernels[0].onesided.raw_write_async(
                        kernels[1].lite_id, sink.addr + 1024, b"w" * 512
                    )
                    yield sim.timeout(10.0)
            else:
                holder["lh"] = yield from ctx.lt_malloc(
                    64 * 1024, nodes=2,
                    replicas=1 if caller == "replicated_lt_write" else 0,
                )
                yield from ctx.lt_write(holder["lh"], 0, b"w" * 512)
            yield sim.timeout(50.0)
            before = fp_stats.commits
            if raw:
                kernels[0].onesided.raw_write_async(
                    kernels[1].lite_id, sink.addr, payload
                )
            else:
                yield from ctx.lt_write(holder["lh"], 1024, payload)
            holder["done_at"] = sim.now
            holder["moved"] = fp_stats.commits > before

        cluster.run_process(driver())
        sim.run()
        quiet_at = sim.now
        if raw:
            landed = sink.read(0, 512)
        else:
            landed = cluster.run_process(ctx.lt_read(holder["lh"], 1024, 512))
        return holder["done_at"], quiet_at, landed == payload, holder["moved"]
    finally:
        if saved is None:
            os.environ.pop("REPRO_NO_FASTPATH", None)
        else:
            os.environ["REPRO_NO_FASTPATH"] = saved


@pytest.mark.parametrize("caller", [
    "lt_write",              # one remote piece: the shortcut, no barrier
    "replicated_lt_write",   # primary and backup pieces through the walk
    "raw_write_async",       # an RPC ring leg, unsignaled
])
def test_three_callers_one_timeline(caller):
    """The same write from each LITE caller commits through its own
    ``SendWR`` at the one post-time entry, and completes at the instant
    the generator path completes it."""
    fast = _one_write(caller, fastpath=True)
    slow = _one_write(caller, fastpath=False)
    assert fast[3], "the op must commit"
    assert not slow[3]
    assert fast[2] and slow[2], "the payload must land"
    assert fast[:2] == slow[:2], "completion instants diverged"
