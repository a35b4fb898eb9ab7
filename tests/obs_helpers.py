"""Shared canonical traced scenarios for the observability test suite.

Each scenario builds a fresh 2-node cluster (after resetting the global
object-id counters, so wire-message digit counts — and therefore
simulated timings — are identical across runs in one process), runs any
untraced warm-up ops, installs a tracer, and drives a small canonical
workload.  Returns ``(cluster, tracer)``.
"""

import random

from repro.cluster import Cluster
from repro.core import LiteContext, LiteError, lite_boot, rpc_server_loop
from repro.determinism import reset_global_counters
from repro.fault import FaultInjector, FaultPlan
from repro.obs import install_tracer
from repro.recovery import RecoveryManager
from repro.stats import snapshot

__all__ = ["SCENARIOS", "run_scenario", "run_mixed"]


def _booted_pair():
    reset_global_counters()
    cluster = Cluster(2)
    kernels = lite_boot(cluster)
    contexts = [LiteContext(k, f"t{k.lite_id}") for k in kernels]
    return cluster, contexts


def _malloc_remote(cluster, ctx, warm_ops: int):
    """Allocate a remote 1MB LMR; optionally run untraced warm-up I/O."""
    state = {}

    def setup():
        state["lh"] = yield from ctx.lt_malloc(1 << 20, "gold", nodes=2)
        for _ in range(warm_ops):
            yield from ctx.lt_write(state["lh"], 0, b"w" * 64)
            yield from ctx.lt_read(state["lh"], 0, 64)

    cluster.run_process(setup())
    return state["lh"]


def scenario_write64():
    """One warm-cache 64B LT_write."""
    cluster, (ctx, _) = _booted_pair()
    lh = _malloc_remote(cluster, ctx, warm_ops=5)
    tracer = install_tracer(cluster)
    cluster.run_process(ctx.lt_write(lh, 0, b"x" * 64))
    return cluster, tracer


def scenario_read64_cold():
    """One 64B LT_read with cold RNIC caches (first touch of the LMR)."""
    cluster, (ctx, _) = _booted_pair()
    lh = _malloc_remote(cluster, ctx, warm_ops=0)
    tracer = install_tracer(cluster)
    cluster.run_process(ctx.lt_read(lh, 0, 64))
    return cluster, tracer


def scenario_read64_warm():
    """One 64B LT_read after warm-up traffic (steady-state caches)."""
    cluster, (ctx, _) = _booted_pair()
    lh = _malloc_remote(cluster, ctx, warm_ops=5)
    tracer = install_tracer(cluster)
    cluster.run_process(ctx.lt_read(lh, 0, 64))
    return cluster, tracer


def scenario_write_4chunk():
    """One 64KB LT_write fanning out over four 16KB chunks.

    Locks the per-piece path's multi-chunk op decomposition (per-chunk
    doorbells, fabric hops, and coalesced completion).
    """
    from repro.hw.params import SimParams

    reset_global_counters()
    cluster = Cluster(2, params=SimParams(lite_chunk_bytes=16 * 1024))
    kernels = lite_boot(cluster)
    ctx = LiteContext(kernels[0], f"t{kernels[0].lite_id}")
    state = {}

    def setup():
        state["lh"] = yield from ctx.lt_malloc(1 << 16, "gold4", nodes=2)
        yield from ctx.lt_write(state["lh"], 0, b"w" * (1 << 16))

    cluster.run_process(setup())
    tracer = install_tracer(cluster)
    cluster.run_process(ctx.lt_write(state["lh"], 0, b"x" * (1 << 16)))
    return cluster, tracer


def scenario_rpc_roundtrip():
    """One 64B RPC round-trip (client + one-shot server)."""
    cluster, (ctx_a, ctx_b) = _booted_pair()
    ctx_b.lt_reg_rpc(7)

    def server():
        call = yield from ctx_b.lt_recv_rpc(7)
        yield from ctx_b.lt_reply_rpc(call, call.input)

    def client():
        reply = yield from ctx_a.lt_rpc(2, 7, b"r" * 64)
        assert reply == b"r" * 64

    def driver():
        procs = [cluster.sim.process(server()),
                 cluster.sim.process(client())]
        yield cluster.sim.all_of(procs)

    tracer = install_tracer(cluster)
    cluster.run_process(driver())
    return cluster, tracer


def scenario_recovery_failover():
    """One full crash -> promote -> rejoin -> resync cycle, traced.

    A ``replicas=2`` LMR loses its primary's node to a seeded crash;
    the lease sweeper promotes a backup (retried client writes land on
    it through the unchanged handle), the node restarts, rejoins, and
    is resynced back into the replica set.  Fixed timers throughout, so
    the whole recovery protocol's span tree is golden-locked.
    """
    reset_global_counters()
    cluster = Cluster(3)
    kernels = lite_boot(cluster)
    sim = cluster.sim
    # Fabric node 2 is LITE 3: the primary's host (nodes=3 below).
    plan = FaultPlan().crash(2, 2000.0, restart_at_us=6000.0)
    injector = FaultInjector(cluster, plan).install()
    injector.arm_lite(kernels, keepalive_interval_us=500.0, miss_limit=2)
    recovery = RecoveryManager(
        cluster, kernels, lease_ttl_us=1500.0,
        renew_interval_us=400.0, sweep_interval_us=300.0,
    ).arm()
    ctx = LiteContext(kernels[0], "rec")
    state = {}

    def setup():
        state["lh"] = yield from ctx.lt_malloc(
            4096, name="gold-rec", nodes=3, replicas=2
        )
        yield from ctx.lt_write(state["lh"], 0, b"a" * 64)

    cluster.run_process(setup())
    tracer = install_tracer(cluster)

    def driver():
        lh = state["lh"]
        for index in range(6):
            for attempt in range(6):
                try:
                    yield from ctx.lt_write(
                        lh, index * 64, bytes([index + 1]) * 64
                    )
                    break
                except LiteError:
                    yield sim.timeout(400.0 * (attempt + 1))
            yield sim.timeout(700.0)
        # Settle past the restart so rejoin + resync land in the trace.
        if sim.now < 9500.0:
            yield sim.timeout(9500.0 - sim.now)
        data = yield from ctx.lt_read(lh, 0, 64)
        assert data == bytes([1]) * 64
        recovery.stop()

    cluster.run_process(driver())
    assert recovery.promotions >= 1, "golden run must exercise failover"
    assert recovery.rejoins >= 1, "golden run must exercise rejoin"
    assert recovery.resyncs >= 1, "golden run must exercise resync"
    return cluster, tracer


def run_mixed(seed: int = 7, n_ops: int = 32, plan=None, traced: bool = True,
              drain_us: float = 500.0):
    """A fig06/fig10-style mixed workload on 3 nodes: one-sided writes
    and reads of varying sizes (including loopback), plus RPC
    round-trips, optionally under a :class:`FaultPlan`.

    Returns ``(cluster, tracer, records, snaps)`` where each record is
    ``(label, start_us, latency_us)`` for one completed client op and
    ``snaps`` is the ``(baseline, final)`` :func:`repro.stats.snapshot`
    pair bracketing the traced window.  After the driver finishes the
    sim runs ``drain_us`` further so in-flight acks and retries quiesce.
    """
    reset_global_counters()
    cluster = Cluster(3)
    kernels = lite_boot(cluster)
    sim = cluster.sim
    client = LiteContext(kernels[0], "mixc")
    server = LiteContext(kernels[1], "mixs")
    if plan is not None:
        FaultInjector(cluster, plan, seed=seed).install()
    sim.process(rpc_server_loop(server, 1, lambda d: bytes(reversed(d))))
    tracer = install_tracer(cluster) if traced else None
    base_snap = snapshot(cluster)
    rng = random.Random(seed)
    records = []
    sizes = (8, 64, 512, 4096)

    def driver():
        yield sim.timeout(1)
        lh = yield from client.lt_malloc(1 << 16, nodes=3)
        loop_lh = yield from client.lt_malloc(8192, nodes=1)
        for index in range(n_ops):
            yield sim.timeout(rng.random() * 5)
            size = sizes[index % len(sizes)]
            start = sim.now
            try:
                kind = index % 4
                if kind == 0:
                    yield from client.lt_write(lh, 0, b"w" * size)
                    label = "op.lt_write"
                elif kind == 1:
                    yield from client.lt_read(lh, 0, size)
                    label = "op.lt_read"
                elif kind == 2:
                    yield from client.lt_rpc(2, 1, b"m" * size,
                                             max_reply=8192,
                                             timeout=3000.0, retries=4)
                    label = "op.lt_rpc"
                else:
                    yield from client.lt_write(loop_lh, 0, b"l" * size)
                    label = "op.lt_write"
            except LiteError:
                continue  # acceptable only under an active fault plan
            records.append((label, start, sim.now - start))

    cluster.run_process(driver())
    sim.run(until=sim.now + drain_us)
    return cluster, tracer, records, (base_snap, snapshot(cluster))


SCENARIOS = {
    "write64": scenario_write64,
    "read64_cold": scenario_read64_cold,
    "read64_warm": scenario_read64_warm,
    "write_4chunk": scenario_write_4chunk,
    "rpc_roundtrip": scenario_rpc_roundtrip,
    "recovery_failover": scenario_recovery_failover,
}


def run_scenario(name: str):
    return SCENARIOS[name]()
