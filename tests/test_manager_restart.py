"""§3.3: cluster-manager state survives a failure restart, plus SRQ
semantics used by LITE's shared receive path."""

import json

import pytest

from repro.cluster import Cluster, ClusterManager
from repro.core import LiteContext, Permission, lite_boot
from repro.fault import FaultInjector, FaultPlan
from repro.recovery import RecoveryManager
from repro.verbs import Access, Opcode, RecvWR, SendWR, Sge


def test_manager_snapshot_roundtrips_through_json():
    cluster = Cluster(3)
    kernels = lite_boot(cluster)
    ctx = LiteContext(kernels[0], "u")

    def setup():
        yield from ctx.lt_malloc(64, name="persisted", nodes=2)

    cluster.run_process(setup())
    blob = json.dumps(cluster.manager.snapshot())
    restored = ClusterManager.restore(json.loads(blob), cluster.nodes)
    assert restored.lookup_name("persisted") == 1
    for lite_id in (1, 2, 3):
        assert restored.lookup(lite_id) is cluster.manager.lookup(lite_id)


def test_lite_keeps_working_after_manager_restart():
    """Swap the manager for a restored replica mid-run: joins, name
    lookups and new allocations all keep working."""
    cluster = Cluster(3)
    kernels = lite_boot(cluster)
    alice = LiteContext(kernels[0], "alice")
    bob = LiteContext(kernels[1], "bob")

    def phase1():
        yield from alice.lt_malloc(
            1024, name="survivor", nodes=3,
            default_perm=Permission.READ | Permission.WRITE,
        )
        lh = yield from alice.lt_map("survivor", Permission.full())
        yield from alice.lt_write(lh, 0, b"pre-crash")

    cluster.run_process(phase1())

    # Simulated manager crash + restart from its snapshot.
    snapshot = cluster.manager.snapshot()
    new_manager = ClusterManager.restore(snapshot, cluster.nodes)
    cluster.manager = new_manager
    for kernel in kernels:
        kernel.manager = new_manager

    def phase2():
        lh = yield from bob.lt_map("survivor")
        data = yield from bob.lt_read(lh, 0, 9)
        assert data == b"pre-crash"
        # New names register against the restored directory.
        yield from bob.lt_malloc(64, name="post-crash")
        assert new_manager.lookup_name("post-crash") == 2
        return data

    assert cluster.run_process(phase2()) == b"pre-crash"


def test_restore_roundtrips_replica_and_lease_state():
    """The replicated-LMR directory and the lease table survive the
    JSON round trip bit-for-bit, including the int keys JSON mangles
    into strings and the ``lost``/``failed``/``version`` bookkeeping."""
    cluster = Cluster(3)
    kernels = lite_boot(cluster)
    recovery = RecoveryManager(cluster, kernels).arm()
    ctx = LiteContext(kernels[0], "rep", kernel_level=True)

    def setup():
        lh = yield from ctx.lt_malloc(8192, name="repl", nodes=2, replicas=2)
        yield from ctx.lt_write(lh, 0, b"v" * 64)
        recovery.stop()
        return lh.mapping.lmr_id

    lmr_id = cluster.run_process(setup())
    # Exercise the lost-copy branch too.
    cluster.manager.mark_replica_stale(lmr_id, 3)
    blob = json.dumps(cluster.manager.snapshot())
    restored = ClusterManager.restore(json.loads(blob), cluster.nodes)
    assert restored.replicas == cluster.manager.replicas
    assert restored.leases == cluster.manager.leases
    entry = restored.replicas[lmr_id]
    assert entry["version"] == 1
    assert 3 in entry["lost"] and 3 not in entry["backups"]
    assert all(isinstance(k, int) for k in restored.replicas)
    assert all(isinstance(k, int) for k in entry["backups"])
    assert all(isinstance(k, int) for k in entry["lost"])
    assert all(isinstance(k, int) for k in restored.leases)
    # Restoring the same snapshot twice is idempotent.
    again = ClusterManager.restore(json.loads(blob), cluster.nodes)
    assert again.snapshot() == restored.snapshot()


def test_restart_under_active_fault_plan_still_fails_over():
    """Swap the manager for a restored replica *while a crash plan is
    in flight*: lease expiry, promotion, and the remapped read must all
    work against the restored directory (the healthy-cluster restart
    tests never exercised this)."""
    cluster = Cluster(3)
    kernels = lite_boot(cluster)
    sim = cluster.sim
    plan = FaultPlan().crash(1, 3000.0)  # LITE 2 (primary's node) dies
    injector = FaultInjector(cluster, plan).install()
    injector.arm_lite(kernels, keepalive_interval_us=500.0, miss_limit=2)
    recovery = RecoveryManager(
        cluster, kernels, lease_ttl_us=1500.0,
        renew_interval_us=400.0, sweep_interval_us=300.0,
    ).arm()
    ctx = LiteContext(kernels[0], "ha", kernel_level=True)
    state = {}

    def phase1():
        lh = yield from ctx.lt_malloc(8192, name="ha", nodes=2, replicas=2)
        yield from ctx.lt_write(lh, 0, b"pre-restart")
        state["lh"] = lh
        # Ride into the crash (but before lease expiry declares it).
        yield sim.timeout(3200.0 - sim.now)

    cluster.run_process(phase1())
    assert cluster.nodes[1].crashed, "the plan must have fired by now"

    # Manager crash + restart from snapshot, mid-failure: every client
    # of the old instance is repointed, like the healthy-restart test.
    new_manager = ClusterManager.restore(
        json.loads(json.dumps(cluster.manager.snapshot())), cluster.nodes
    )
    cluster.manager = new_manager
    recovery.manager = new_manager
    for kernel in kernels:
        kernel.manager = new_manager

    def phase2():
        lh = state["lh"]
        # Let lease expiry + promotion land against the restored state.
        yield sim.timeout(6000.0 - sim.now)
        entry = new_manager.replicas[lh.mapping.lmr_id]
        assert entry["master"] != 2, "promotion must use restored directory"
        assert not entry["failed"]
        data = yield from ctx.lt_read(lh, 0, 11)
        assert data == b"pre-restart"
        yield from ctx.lt_write(lh, 64, b"post-restart")
        recovery.stop()

    cluster.run_process(phase2())
    assert recovery.promotions == 1
    # Writes after the restart keep moving the restored version counter.
    assert new_manager.replicas[state["lh"].mapping.lmr_id]["version"] == 2


def test_restored_manager_preserves_id_allocation():
    cluster = Cluster(2)
    kernels = lite_boot(cluster)
    restored = ClusterManager.restore(
        cluster.manager.snapshot(), cluster.nodes
    )
    # A brand-new node joining after restart gets a fresh id, not a
    # recycled one.
    from repro.cluster import Node

    new_node = Node(cluster.sim, 99, cluster.params, cluster.fabric)
    assert restored.join(new_node) == 3


# ------------------------------------------------------------- SRQ --


def test_srq_shared_across_qps():
    """One buffer pool feeds receives on many QPs (how LITE posts its
    control slots once for all K x N connections)."""
    cluster = Cluster(2)
    sim = cluster.sim

    def proc():
        a, b = cluster[0], cluster[1]
        pd_a, pd_b = a.device.alloc_pd(), b.device.alloc_pd()
        mr_a = yield from a.device.reg_mr(pd_a, 4096, Access.ALL)
        mr_b = yield from b.device.reg_mr(pd_b, 4096, Access.ALL)
        srq = b.device.create_srq()
        shared_cq = b.device.create_cq()
        qps_b = [
            b.device.create_qp(pd_b, "RC", recv_cq=shared_cq, srq=srq)
            for _ in range(3)
        ]
        qps_a = []
        for qp_b in qps_b:
            qp_a = a.device.create_qp(pd_a, "RC")
            a.device.connect(qp_a, qp_b)
            qps_a.append(qp_a)
        for index in range(3):
            srq.post_recv(RecvWR(mr=mr_b, offset=index * 256, length=256,
                                 wr_id=index))
        # One send per QP; all consume from the same SRQ pool.
        for index, qp_a in enumerate(qps_a):
            mr_a.write(index * 8, f"qp{index}msg".encode())
            yield qp_a.post_send(
                SendWR(Opcode.SEND, sgl=[Sge(mr_a, index * 8, 6)])
            )
        seen_qpns = set()
        payloads = set()
        for _ in range(3):
            wc = yield shared_cq.wait_wc()
            seen_qpns.add(wc.qp_num)
            offset = wc.wr_id * 256
            payloads.add(mr_b.read(offset, 6))
        assert len(seen_qpns) == 3
        return payloads

    payloads = cluster.run_process(proc())
    assert payloads == {b"qp0msg", b"qp1msg", b"qp2msg"}


def test_srq_counts_postings():
    cluster = Cluster(1)
    srq = cluster[0].device.create_srq()
    srq.post_recv(RecvWR())
    srq.post_recv(RecvWR())
    assert srq.posted == 2
    assert len(srq) == 2


# ---------------------------------------------------------------------------
# QP-lease table (INTERNALS §15): snapshot/restore + mid-churn restart
# ---------------------------------------------------------------------------
def test_restore_roundtrips_qp_lease_state():
    cluster = Cluster(2)
    kernels = lite_boot(cluster)
    pool = kernels[0].qp_pool(kernels[1].lite_id, reserve=2)

    def setup():
        yield from pool.prebuild()
        yield from pool.acquire(41)
        yield from pool.acquire(77)

    cluster.run_process(setup())
    blob = json.dumps(cluster.manager.snapshot())  # must be JSON-clean
    restored = ClusterManager.restore(json.loads(blob), cluster.nodes)
    # JSON stringifies dict keys; restore must coerce them back to int.
    assert set(restored.qp_leases) == {41, 77}
    assert all(isinstance(key, int) for key in restored.qp_leases)
    assert restored.qp_leases == cluster.manager.qp_leases
    entry = restored.qp_leases[41]
    assert entry["holder"] == kernels[0].lite_id
    assert entry["peer"] == kernels[1].lite_id
    assert isinstance(entry["conn"], int)
    assert entry["expires"] > 0
    # Restore is idempotent: restoring the same blob twice agrees.
    again = ClusterManager.restore(json.loads(blob), cluster.nodes)
    assert again.snapshot() == restored.snapshot()


def _churn_with_optional_manager_restart(restart_mid):
    """Drive short sessions; optionally swap the manager mid-churn.

    The pool reads the lease table through ``kernel.manager`` on every
    touch, so a restart (restore from a JSON snapshot + swap) must be
    invisible: leases keep renewing and expiring against the restored
    table and the rest of the run is bit-identical to a no-restart run.
    """
    from repro.core.api import ClientSession
    cluster = Cluster(2)
    kernels = lite_boot(cluster)
    sim = cluster.sim
    pool = kernels[0].qp_pool(
        kernels[1].lite_id, reserve=2, lease_ttl_us=800.0
    )
    abandoned = []

    def driver():
        pool.arm()
        yield from pool.prebuild()
        for index in range(10):
            ctx = LiteContext(kernels[0], f"restart{index}",
                              kernel_level=True)
            session = ClientSession(
                ctx, kernels[1].lite_id, session_id=index + 1,
                buffer_bytes=128,
            )
            yield from session.attach()
            yield from session.write(b"x" * 128)
            if index % 3 == 2:
                abandoned.append(index)  # lease expires via the sweeper
            else:
                yield from session.detach()
            yield sim.timeout(120.0)
        yield sim.timeout(2000.0)  # let abandoned leases expire
        pool.stop()
        yield sim.timeout(pool.sweep_interval_us)

    sim.process(driver(), name="restart-churn-driver")
    if restart_mid:
        sim.run(until=600.0)  # mid-churn: some leases live, some expired
        new_manager = ClusterManager.restore(
            json.loads(json.dumps(cluster.manager.snapshot())),
            cluster.nodes,
        )
        cluster.manager = new_manager
        for kernel in kernels:
            kernel.manager = new_manager
    sim.run()
    return (
        sim.now, sim._seq, pool.hits, pool.misses, pool.expiries,
        len(abandoned), dict(cluster.manager.qp_leases),
    )


def test_manager_restart_mid_churn_resumes_deterministically():
    baseline = _churn_with_optional_manager_restart(restart_mid=False)
    restarted = _churn_with_optional_manager_restart(restart_mid=True)
    assert baseline == restarted
    # Sanity on the shape: every lease either released or expired.
    assert baseline[4] == baseline[5] > 0  # expiries == abandons
    assert baseline[6] == {}
