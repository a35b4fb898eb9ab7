"""Run-to-completion fast path: LITE-level A/B rows and the cost table.

The contract (docs/INTERNALS.md §13): with the fast path on, final
simulated time, per-op outcomes, the whole-cluster snapshot and the SRAM
caches are bit-identical to the generator path's.  Each A/B test below
is one scenario run through ``tests/ab.py``, which compares at
quiescence: a commit accounts counters at commit time, so mid-flight
snapshots may legally differ — end states may not.
"""

import dataclasses
import random

import pytest

from repro.cluster import Cluster
from repro.core import (
    LiteContext,
    LiteError,
    RpcTimeoutError,
    lite_boot,
    rpc_server_loop,
)
from repro.fault import FaultInjector, FaultPlan
from repro.hw.params import DEFAULT_PARAMS, MB, SimParams
from repro.recovery import RecoveryManager
from repro.stats import snapshot
from repro.verbs.fastpath import (
    CostTable, FastPathStats, prime_qp, try_fast_post)
from repro.verbs.wr import Opcode, SendWR

from tests import ab


# ---------------------------------------------------------------------------
# Scenarios
# ---------------------------------------------------------------------------
def lite_mixed(run, seed: int, faults: bool):
    """80 random one-sided ops of 8 B-32 KB, RPCs and unsignaled raw
    writes, optionally under a seeded flap + 2% loss plan."""
    cluster = run.cluster(3)
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
    lh = cluster.run_process(ctx.lt_malloc(1 * MB, nodes=2))
    sink = kernels[1].node.memory.alloc(256 * 1024)
    rng = random.Random(seed)
    outcomes = []

    def driver():
        yield cluster.sim.timeout(5)
        for index in range(80):
            kind = rng.randrange(4)
            size = rng.choice((8, 64, 512, 4096, 32768))
            offset = rng.randrange(0, 64) * 1024
            try:
                if kind == 0:
                    yield from ctx.lt_write(
                        lh, offset, bytes([index & 0xFF]) * size)
                elif kind == 1:
                    yield from ctx.lt_read(lh, offset, size)
                elif kind == 2:
                    reply = yield from ctx.lt_rpc(
                        3, 1, b"q" * min(size, 1024), max_reply=2048)
                    outcomes.append(len(reply))
                else:
                    kernels[0].onesided.raw_write_async(
                        kernels[1].lite_id, sink.addr + offset,
                        b"a" * min(size, 256))
            except (LiteError, RpcTimeoutError) as exc:
                outcomes.append(type(exc).__name__)

    cluster.run_process(driver())
    cluster.sim.run()  # drain in-flight tails before comparing
    return outcomes


def crash_burst(run):
    """60 writes while LITE 2, the primary's host, crashes at 1.5 ms and
    restarts at 6 ms into a remapped world (its LMR was promoted away).
    Outcomes: per write, its index or error; then promotions, rejoins."""
    cluster = run.cluster(3)
    kernels = lite_boot(cluster)
    sim = cluster.sim
    plan = FaultPlan().crash(1, 1500.0, restart_at_us=6000.0)
    FaultInjector(cluster, plan).install().arm_lite(
        kernels, keepalive_interval_us=500.0, miss_limit=2)
    recovery = RecoveryManager(
        cluster, kernels, lease_ttl_us=1500.0,
        renew_interval_us=400.0, sweep_interval_us=300.0,
    ).arm()
    ctx = LiteContext(kernels[0], "burst", kernel_level=True)
    lh = cluster.run_process(ctx.lt_malloc(256 * 1024, nodes=2, replicas=1))
    outcomes = []

    def driver():
        for index in range(60):
            offset = (index * 64) % (256 * 1024)
            try:
                yield from ctx.lt_write(lh, offset, bytes([index & 0xFF]) * 64)
                outcomes.append(index)
            except LiteError as exc:
                outcomes.append((type(exc).__name__, exc.errno))
                yield sim.timeout(200.0)
            yield sim.timeout(40.0)
        # Settle past restart + rejoin so the post-restart paths run.
        if sim.now < 10000.0:
            yield sim.timeout(10000.0 - sim.now)
        recovery.stop()

    # No trailing sim.run(): the keep-alive/lease loops never exit, and
    # the settle window already drains in-flight tails.
    cluster.run_process(driver())
    return outcomes, recovery.promotions, recovery.rejoins


def retry_storm(run):
    """120 RPCs under 8% loss: resent tokens hit the reply cache or are
    dropped in flight.  Every attempt declines under a loss rule, so
    this pins that declined attempts leave no trace on suppression.
    Outcomes: per RPC, its reply length or error; then the server's
    reply-cache hits and installs."""
    cluster = run.cluster(3)
    kernels = lite_boot(cluster)
    sim = cluster.sim
    FaultInjector(cluster, FaultPlan().packet_loss(0.08, start_us=10.0)).install()
    client = LiteContext(kernels[0], "storm-cli")
    server = LiteContext(kernels[2], "storm-srv")
    sim.process(rpc_server_loop(server, 9, lambda data: data[:16] * 2))
    outcomes = []

    def driver():
        yield sim.timeout(5)
        for index in range(120):
            try:
                reply = yield from client.lt_rpc(
                    3, 9, bytes([index & 0xFF]) * 96, max_reply=1024,
                    timeout=700.0, retries=4)
                outcomes.append(len(reply))
            except (LiteError, RpcTimeoutError) as exc:
                outcomes.append(type(exc).__name__)
                yield sim.timeout(60.0)

    cluster.run_process(driver())
    sim.run()  # drain straggler retries / late replies
    cache = kernels[2].rpc._reply_cache
    return outcomes, cache.stats.hits, cache.stats.installs


def ring_wrap_burst(run):
    """80 RPCs through a 4 KB ring: a wrapped append lands its tail piece
    with an awaited ``raw_write`` and its imm-carrying remainder, an
    ordinary WRITE_IMM that may commit, at the ring start."""
    params = SimParams(lite_rpc_ring_bytes=4096)
    cluster = run.cluster(2, params=params)
    kernels = lite_boot(cluster)
    sim = cluster.sim
    client = LiteContext(kernels[0], "wrap-cli")
    server = LiteContext(kernels[1], "wrap-srv")
    sim.process(rpc_server_loop(server, 5, lambda data: data[::-1]))
    sizes = (256, 512, 128, 384)
    outcomes = []

    def driver():
        yield sim.timeout(5)
        for index in range(80):
            reply = yield from client.lt_rpc(
                2, 5, bytes([index & 0xFF]) * sizes[index % 4],
                max_reply=2048, timeout=None)
            outcomes.append((len(reply), reply[:4]))

    cluster.run_process(driver())
    sim.run()
    # Every entry is header + payload bytes through one ring: it wrapped.
    assert sum(20 + size for size in sizes) * 20 > 5 * params.lite_rpc_ring_bytes
    return outcomes


class _SleepyContext(LiteContext):
    """A user-level context that sleeps for every reply or request: the
    wait strategy overridden in a subclass rather than on an instance."""

    def _waiter(self):
        cpu, tag = self.kernel.node.cpu, self._tag

        def sleep_waiter(event):
            value = yield from cpu.sleep_wait(event, tag=tag)
            return value

        return sleep_waiter


def light_load_rpcs(run, busy: str, sleepy: bool = False):
    """12 light-load RPCs; the context named by ``busy`` ("server",
    "client" or "") spins instead of waiting adaptively, overridden the
    way benchmarks/test_ablations.py does it.  ``sleepy`` makes the
    server a :class:`_SleepyContext` and gives the client the same
    strategy as an instance override.  Returns (replies, CPU per role)."""
    cluster = run.cluster(2)
    kernels = lite_boot(cluster)
    sim = cluster.sim
    contexts = {"client": LiteContext(kernels[0], "light-cli"),
                "server": (_SleepyContext if sleepy else LiteContext)(
                    kernels[1], "light-srv")}
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
        # Longer than the adaptive busy window, so that a client's wait
        # strategy shows in its ledger too.
        yield sim.timeout(25.0)
        return data[::-1] * 4

    sim.process(rpc_server_loop(server, 1, handler))
    replies = []

    def driver():
        rng = random.Random(4)
        for index in range(12):
            yield sim.timeout(250 + rng.random() * 100)
            replies.append((yield from client.lt_rpc(
                2, 1, bytes([index]) * 8, max_reply=128)))

    cluster.run_process(driver())
    sim.run()  # the server's last reply-recv crossing settles
    return replies, {role: ctx.kernel.node.cpu.busy_time.get(ctx._tag, 0.0)
                     for role, ctx in contexts.items()}


def echo_rpcs(run):
    """300 sequential 512 B echo RPCs on two nodes: the closed loop in
    which every request, head-pointer update and reply commits."""
    cluster = run.cluster(2)
    kernels = lite_boot(cluster)
    client = LiteContext(kernels[0], "echo-cli")
    server = LiteContext(kernels[1], "echo-srv")
    cluster.sim.process(rpc_server_loop(server, 1, lambda data: data))

    replies = []

    def driver():
        for index in range(300):
            replies.append((yield from client.lt_rpc(
                2, 1, bytes([index & 0xFF]) * 512, max_reply=512)))

    cluster.run_process(driver())
    cluster.sim.run()
    return replies, [(kernel.recv_cq.pushed, kernel.recv_cq.polled)
                     for kernel in kernels]


def near_simultaneous_requests(run):
    """Two clients call one server in rounds, the second 0.01 µs later
    each round, so their request write-imms reach the server's receive
    CQ from 0.01 to 0.07 µs apart: inside the poller's discovery delay
    for the first one (``poll_loop_us / 2``), and just after it.
    Returns (dispatch order, request CQE arrivals, timed replies)."""
    cluster = run.cluster(3)
    kernels = lite_boot(cluster)
    sim = cluster.sim
    clients = [LiteContext(kernels[0], "near-a"),
               LiteContext(kernels[1], "near-b")]
    server = LiteContext(kernels[2], "near-srv")
    order, arrivals, replies = [], [], [[], []]

    def handler(data):
        order.append(data[0])
        return data

    sim.process(rpc_server_loop(server, 1, handler))
    dispatch = kernels[2]._dispatch_wc

    def spy(wc):
        if wc.opcode is Opcode.RECV_IMM:
            arrivals.append((wc.completed_at, wc.src_node))
        dispatch(wc)

    kernels[2]._dispatch_wc = spy
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
    return order, arrivals, replies


def one_write(run, caller: str):
    """One 512 B write through the named LITE caller after a warm-up;
    returns its completion instant, the quiescent instant and whether
    the payload landed.  ``run.notes["committed"]``: the op moved the
    cluster's fast-path commit count."""
    cluster = run.cluster(3)
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
                    kernels[1].lite_id, sink.addr + 1024, b"w" * 512)
                yield sim.timeout(10.0)
        else:
            holder["lh"] = yield from ctx.lt_malloc(
                64 * 1024, nodes=2,
                replicas=1 if caller == "replicated_lt_write" else 0)
            yield from ctx.lt_write(holder["lh"], 0, b"w" * 512)
        yield sim.timeout(50.0)
        before = snapshot(cluster)
        if raw:
            kernels[0].onesided.raw_write_async(
                kernels[1].lite_id, sink.addr, payload)
        else:
            yield from ctx.lt_write(holder["lh"], 1024, payload)
        holder["done_at"] = sim.now
        run.notes["committed"] = (
            snapshot(cluster).delta(before).fastpath.commits > 0)

    cluster.run_process(driver())
    sim.run()
    quiet_at = sim.now
    if raw:
        landed = sink.read(0, 512)
    else:
        landed = cluster.run_process(ctx.lt_read(holder["lh"], 1024, 512))
    return holder["done_at"], quiet_at, landed == payload


def read_behind_a_held_wire(run, delay: float):
    """An unsignaled 1 MB raw write commits at post time; ``delay`` µs
    later a 64 B ``lt_read`` of a warm LMR on the same peer is posted.
    Returns the read's completion, measured from the write's post, and
    whether it read the warm-up's bytes."""
    cluster = run.cluster(2)
    kernels = lite_boot(cluster)
    sim = cluster.sim
    ctx = LiteContext(kernels[0], "held", kernel_level=True)
    peer = kernels[1].lite_id
    sink = kernels[1].node.memory.alloc(1 * MB)
    outcomes = {}

    def driver():
        lh = yield from ctx.lt_malloc(4096, nodes=peer)
        yield from ctx.lt_write(lh, 0, b"w" * 64)
        yield from ctx.lt_read(lh, 0, 64)
        yield sim.timeout(50.0)
        start = sim.now
        kernels[0].onesided.raw_write_async(peer, sink.addr, b"x" * MB)
        if delay:
            yield sim.timeout(delay)
        data = yield from ctx.lt_read(lh, 0, 64)
        outcomes["read_done_us"] = round(sim.now - start, 6)
        outcomes["read_ok"] = data == b"w" * 64

    cluster.run_process(driver())
    sim.run()
    return outcomes


# ---------------------------------------------------------------------------
# Rows
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("seed", [7, 23, 91])
@pytest.mark.parametrize("faults", [False, True])
def test_fastpath_equivalence_randomized(seed, faults):
    """Fast == slow == traced on a random LITE mix.  Without faults the
    commit models every op exactly: seeds 7 and 91 each post a raw
    write and, while it is in flight, a read whose response takes the
    return wire the write's ACK wanted — the write's tail then walks the
    generator path instead of counting a mismodel."""
    fast = ab.check(lite_mixed, seed=seed, faults=faults)["fast"]
    if not faults:
        assert fast.fp["mismodels"] == 0


def test_every_declined_attempt_counts_one_reason():
    """Reject reasons are data (the harness checks attempts == commits +
    ``rej_*`` on every run): a mixed workload with and without a fault
    plan declines for at least three reasons, every counter is a plain
    int, and ``repr`` reports each one."""
    clean = ab.run(lite_mixed, "fast", seed=23, faults=False).fp
    faulty = ab.run(lite_mixed, "fast", seed=23, faults=True).fp
    reasons = {name for fp in (clean, faulty) for name, count in fp.items()
               if name.startswith("rej_") and count}
    assert clean["commits"] > 0 and len(reasons) >= 3, reasons
    assert all(type(count) is int for count in clean.values())
    stats = FastPathStats(**clean)
    assert all(f"{name}={count}" in repr(stats)
               for name, count in clean.items())


def test_crash_mid_burst_fastpath_ab_identity():
    """A QP entering ERROR or its peer crashing / rejoining never lets a
    cost table commit across the fault: a stale table committing against
    the dead (or remapped) peer would diverge the recovery lifecycle."""
    records = ab.check(crash_burst, modes=ab.MODES)
    assert records["fast"].fp["commits"] > 0, "the burst must commit"
    _, promotions, rejoins = records["fast"].outcomes
    assert promotions >= 1 and rejoins >= 1


def test_retry_storm_reply_cache_fastpath_ab_identity():
    _, hits, _ = ab.check(retry_storm, modes=ab.MODES)["fast"].outcomes
    assert hits > 0, "the storm must resend answered tokens (cache hits)"


def test_ring_wrap_mid_burst_fastpath_ab_identity():
    """The 4 KB ring wraps every ~13 calls while the burst commits."""
    assert ab.check(ring_wrap_burst)["fast"].fp["commits"] > 0


@pytest.mark.parametrize("busy", ["server", "client", ""])
def test_overridden_wait_strategy_fastpath_ab_identity(busy):
    """A context's ``_waiter`` override is honoured on every call in
    both modes (a fast run once charged a busy server ~21 µs per request
    where the slow run charged the whole ~300 µs gap)."""
    replies, ledger = ab.check(light_load_rpcs, busy=busy)["fast"].outcomes
    assert len(replies) == 12
    if busy == "server":
        assert ledger["server"] / 12 > 250, "a busy server burns the gap"


def test_sleeping_and_subclass_waiter_fastpath_ab_identity():
    """A sleeping ``_waiter`` — one set on the instance, one defined in a
    subclass — is what every wait pays in both modes: neither side burns
    the adaptive busy window the stock strategy would."""
    replies, ledger = ab.check(light_load_rpcs, busy="",
                               sleepy=True)["fast"].outcomes
    assert len(replies) == 12
    _, stock = ab.run(light_load_rpcs, "fast", busy="").outcomes
    assert ledger["client"] < stock["client"]
    assert ledger["server"] < stock["server"]


def test_sequential_echo_rpcs_fastpath_ab_identity():
    """The poll iteration a committed write-imm wakes is the generator
    path's own: every CPU tag and both receive-CQ counters agree while
    ≥ 99% of the three ring writes per RPC commit."""
    fast = ab.check(echo_rpcs)["fast"]
    assert len(fast.outcomes[0]) == 300
    assert fast.fp["commits"] >= 0.99 * (3 * 300)
    assert fast.fp["mismodels"] == 0


def test_near_simultaneous_requests_fastpath_ab_identity():
    """A request CQE that lands inside another's poll iteration is
    queued behind it and dispatched in arrival order in both modes."""
    fast = ab.check(near_simultaneous_requests)["fast"]
    assert fast.fp["commits"] > 0
    order, arrivals, _replies = fast.outcomes
    assert len(order) == 16
    half_poll = SimParams().poll_loop_us / 2
    rounds = list(zip(arrivals[0::2], arrivals[1::2]))
    assert all(first[1] != later[1] for first, later in rounds)
    gaps = [later[0] - first[0] for first, later in rounds]
    assert sum(gap <= half_poll for gap in gaps) >= 3
    assert sum(gap > half_poll for gap in gaps) >= 3


def test_kill_switch_disables_commits(monkeypatch):
    monkeypatch.setenv("REPRO_NO_FASTPATH", "1")
    cluster = Cluster(2)
    assert cluster.sim.fastpath_enabled is False
    ctx = LiteContext(lite_boot(cluster)[0], "ks", kernel_level=True)
    lh = cluster.run_process(ctx.lt_malloc(64 * 1024, nodes=2))
    cluster.run_process(ctx.lt_write(lh, 0, b"x" * 64))
    assert snapshot(cluster).fastpath.attempts == 0


@pytest.mark.parametrize("caller", [
    "lt_write",              # one remote piece: the shortcut, no barrier
    "replicated_lt_write",   # primary and backup pieces through the walk
    "raw_write_async",       # an RPC ring leg, unsignaled
])
def test_three_callers_one_timeline(caller):
    """The same write from each LITE caller commits through its own
    ``SendWR`` at the one post-time entry, and completes at the instant
    the generator path completes it."""
    records = ab.check(one_write, caller=caller)
    assert records["fast"].run.notes["committed"], "the op must commit"
    assert records["fast"].outcomes[2], "the payload must land"


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "widened holds: a post-time commit takes its forward wire at t0, "
    "so a read posted while the write's 1 MB DMA runs declines at "
    "rej_port and queues behind the whole write (317.5964 us) where "
    "the generator path completes it in 1.5876 + delay us "
    "(docs/INTERNALS.md section 9)"))
@pytest.mark.parametrize("delay", [0.0, 1.0, 10.0])
def test_read_behind_a_committed_write_is_not_delayed(delay):
    """A commit's early hold on the forward wire is observable: an op
    posted after it, while the generator path would not yet hold the
    wire, queues behind the committed op.  Final ``sim.now`` agrees;
    the read's completion does not, nor the SRAM LRU order."""
    ab.check(read_behind_a_held_wire, lru_order=False, delay=delay)


# ---------------------------------------------------------------------------
# Cost-table keying and invalidation
# ---------------------------------------------------------------------------
def _connected_qp(kernels):
    """A shared QP from kernel 0 toward kernel 1 (primed at connect)."""
    return kernels[0].peers[kernels[1].lite_id].qps[0]


def test_cost_table_built_at_connect_and_stable():
    cluster = Cluster(2)
    qp = _connected_qp(lite_boot(cluster))
    table = qp._fp_table
    assert isinstance(table, CostTable), "connect() should prime the table"
    assert table.valid()
    before = snapshot(cluster)
    prime_qp(qp)  # re-prime: still valid, no rebuild
    assert qp._fp_table is table
    assert snapshot(cluster).delta(before).fastpath.table_builds == 0


def test_simparams_are_frozen():
    """The cost model is fixed for a run: no field can be assigned, on
    the shared default or on a fresh set, so a cost table never goes
    stale on a price; ``copy`` makes a variant with its own prices."""
    for params in (DEFAULT_PARAMS, SimParams()):
        with pytest.raises(dataclasses.FrozenInstanceError):
            params.rnic_wqe_process_us = 0.2
        assert params.rnic_wqe_process_us == 0.1
    slower = DEFAULT_PARAMS.copy(rnic_wqe_process_us=0.2)
    assert slower.prices.wqe == 0.2 and DEFAULT_PARAMS.prices.wqe == 0.1
    qp = _connected_qp(lite_boot(Cluster(2, params=slower)))
    table = qp._fp_table
    assert prime_qp(qp) and qp._fp_table is table


def test_fast_post_rejects_tracer_and_disabled():
    """A tracer installed: the trace goldens depend on the generator
    path's span tree, so the fast path must refuse."""
    cluster = Cluster(2)
    qp = _connected_qp(lite_boot(cluster))
    cluster.sim.tracer = object.__new__(type("T", (), {}))
    try:
        wr = SendWR(opcode=Opcode.WRITE, inline_data=b"x" * 16,
                    remote_addr=0, rkey=0)
        assert try_fast_post(qp, wr) is None
    finally:
        cluster.sim.tracer = None


@pytest.mark.parametrize("opcode_name", ["WRITE", "WRITE_IMM", "READ"])
def test_horizon_floor_strictly_below_completion(opcode_name):
    """``CostTable.floor`` feeds the early horizon reject, which is only
    free if it can never reject what the exact check would accept: the
    floor must sit strictly below every committed completion delay."""
    from repro.core.protocol import pack_reply_imm

    opcode = Opcode[opcode_name]
    cluster = ab.Run("fast").cluster(2)
    kernels = lite_boot(cluster)
    sim = cluster.sim
    peer = kernels[0].peers[kernels[1].lite_id]
    qp, window = peer.qps[0], peer.windows[0]
    sink = kernels[1].node.memory.alloc(1 * MB)
    # One generator-path write warms the QP and key caches on both ends.
    cluster.run_process(
        kernels[0].onesided.raw_write(kernels[1].lite_id, sink.addr, b"w"))
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
