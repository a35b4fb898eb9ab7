"""End-to-end crash recovery (docs/INTERNALS.md §14).

Covers the full lifecycle the recovery layer promises: replicated
writes fan out to every backup, lease expiry promotes a backup with
zero committed-write loss through the *unchanged* handle, a restarted
node rejoins and is resynced back into the replica set, the last
replica dying degrades to fail-fast ENODEV (and drops KV shards to
read-only), and the whole protocol is deterministic — same seed, same
fault plan, byte-identical end state.
"""

import dataclasses
import json

import pytest

from repro.apps.kvstore import LiteKVClient, LiteKVServer
from repro.cluster import Cluster, ClusterManager
from repro.core import LiteContext, LiteError, Permission, lite_boot
from repro.core.errors import ENODEV
from repro.core.lmr import ChunkInfo, MappedLmr
from repro.fault import FaultInjector, FaultPlan
from repro.recovery import RecoveryManager
from repro.stats import snapshot

# Tight lease timings keep the tests fast; the ratios mirror the
# defaults (TTL covers ~3 renew intervals).
TTL = 1500.0
RENEW = 400.0
SWEEP = 300.0


def _armed(n_nodes=3, plan=None, seed=0):
    """Fresh cluster with keep-alive + recovery armed (plan optional)."""
    cluster = Cluster(n_nodes)
    kernels = lite_boot(cluster)
    injector = FaultInjector(cluster, plan or FaultPlan(), seed=seed)
    injector.install()
    injector.arm_lite(kernels, keepalive_interval_us=500.0, miss_limit=2)
    recovery = RecoveryManager(
        cluster, kernels, lease_ttl_us=TTL,
        renew_interval_us=RENEW, sweep_interval_us=SWEEP,
    ).arm()
    return cluster, kernels, recovery


def _backup_copy(kernel, entry, backup_id, offset, nbytes):
    """Read ``nbytes`` straight out of a backup's chunks (generator)."""
    backup_map = MappedLmr(
        0, "", entry["size"],
        [ChunkInfo.from_wire(w) for w in entry["backups"][backup_id]], 0,
    )
    data = yield from kernel.onesided.read(backup_map, offset, nbytes)
    return data


# ---------------------------------------------------------------------------
# Replication: acked writes exist on every backup
# ---------------------------------------------------------------------------
def test_replicated_write_reaches_every_backup():
    cluster, kernels, recovery = _armed()
    ctx = LiteContext(kernels[0], "rep", kernel_level=True)
    out = {}

    def proc():
        lh = yield from ctx.lt_malloc(8192, name="r", nodes=2, replicas=2)
        yield from ctx.lt_write(lh, 100, b"fanout" * 10)
        yield from ctx.lt_write(lh, 4000, b"z" * 64)
        entry = cluster.manager.replicas[lh.mapping.lmr_id]
        # Primary on LITE 2; backups on the two nodes outside it.
        assert sorted(entry["backups"]) == [1, 3]
        for backup_id in sorted(entry["backups"]):
            for offset, expect in ((100, b"fanout" * 10), (4000, b"z" * 64)):
                got = yield from _backup_copy(
                    kernels[0], entry, backup_id, offset, len(expect)
                )
                assert got == expect, f"backup {backup_id} diverged"
        out["version"] = entry["version"]
        recovery.stop()

    cluster.run_process(proc())
    # Each acked replicated write bumps the write-ordering counter once.
    assert out["version"] == 2


def test_reads_are_served_by_the_primary_only():
    cluster, kernels, recovery = _armed()
    ctx = LiteContext(kernels[0], "ro", kernel_level=True)

    def proc():
        lh = yield from ctx.lt_malloc(4096, nodes=2, replicas=1)
        yield from ctx.lt_write(lh, 0, b"q" * 32)
        entry = cluster.manager.replicas[lh.mapping.lmr_id]
        # Scribble directly on the backup copy: a read must not see it.
        backup_id = next(iter(entry["backups"]))
        backup_map = MappedLmr(
            0, "", entry["size"],
            [ChunkInfo.from_wire(w) for w in entry["backups"][backup_id]], 0,
        )
        yield from kernels[0].onesided.write(backup_map, 0, b"X" * 32)
        got = yield from ctx.lt_read(lh, 0, 32)
        assert got == b"q" * 32
        recovery.stop()

    cluster.run_process(proc())


# ---------------------------------------------------------------------------
# Failover: promotion, zero loss, handle transparency
# ---------------------------------------------------------------------------
def test_failover_promotes_backup_and_loses_nothing():
    plan = FaultPlan().crash(1, 3000.0)  # LITE 2 dies for good
    cluster, kernels, recovery = _armed(plan=plan)
    sim = cluster.sim
    out = {}

    def proc():
        ctx = LiteContext(kernels[0], "fo", kernel_level=True)
        lh = yield from ctx.lt_malloc(8192, name="fo", nodes=2, replicas=2)
        lmr_id = lh.mapping.lmr_id
        yield from ctx.lt_write(lh, 0, b"committed-before-crash")
        # Ride through crash + lease expiry + promotion.
        yield sim.timeout(3000.0 + TTL + RENEW + SWEEP + 500.0 - sim.now)
        entry = cluster.manager.replicas[lmr_id]
        assert entry["master"] != 2, "primary should have moved off LITE 2"
        assert not entry["failed"]
        # Same handle, no remap call, data intact on the new primary.
        got = yield from ctx.lt_read(lh, 0, 22)
        assert got == b"committed-before-crash"
        # New writes land on the promoted primary and still replicate.
        yield from ctx.lt_write(lh, 64, b"after-failover")
        got = yield from ctx.lt_read(lh, 64, 14)
        assert got == b"after-failover"
        out["entry"] = entry
        recovery.stop()

    cluster.run_process(proc())
    assert recovery.promotions == 1
    assert recovery.promoted_lmrs == 1
    assert recovery.unavailability_samples, "failover must be timed"
    # Unavailability is bounded by expiry + detection + promotion slack.
    assert max(recovery.unavailability_samples) <= TTL + RENEW + SWEEP + 1000.0
    # The dead node's copy is parked for resync, not forgotten.
    assert 2 in out["entry"]["lost"]


def test_named_lmr_remaps_through_the_directory():
    plan = FaultPlan().crash(1, 2500.0)
    cluster, kernels, recovery = _armed(plan=plan)
    sim = cluster.sim

    def proc():
        ctx = LiteContext(kernels[0], "dir", kernel_level=True)
        # World-mappable: the promoted master must preserve the default
        # permission (explicit ACL grants die with the old master).
        yield from ctx.lt_malloc(
            4096, name="relocate", nodes=2, replicas=2,
            default_perm=Permission.READ | Permission.WRITE,
        )
        yield sim.timeout(2500.0 + TTL + RENEW + SWEEP + 500.0 - sim.now)
        # A post-failover lt_map resolves the name to the new master.
        other = LiteContext(kernels[2], "late")
        lh = yield from other.lt_map("relocate")
        assert lh.mapping.master_id == cluster.manager.replicas[
            lh.mapping.lmr_id]["master"]
        assert lh.mapping.master_id != 2
        recovery.stop()

    cluster.run_process(proc())
    assert cluster.manager.lookup_name("relocate") != 2


# ---------------------------------------------------------------------------
# Rejoin + resync
# ---------------------------------------------------------------------------
def test_rejoin_resyncs_the_returning_node():
    plan = FaultPlan().crash(1, 3000.0, restart_at_us=8000.0)
    cluster, kernels, recovery = _armed(plan=plan)
    sim = cluster.sim

    def proc():
        ctx = LiteContext(kernels[0], "rj", kernel_level=True)
        lh = yield from ctx.lt_malloc(8192, name="rj", nodes=2, replicas=2)
        lmr_id = lh.mapping.lmr_id
        yield from ctx.lt_write(lh, 0, b"v1" * 32)
        yield sim.timeout(6000.0 - sim.now)  # promoted by now
        yield from ctx.lt_write(lh, 0, b"v2" * 32)  # moves the version
        yield sim.timeout(12000.0 - sim.now)  # restart + rejoin + resync
        entry = cluster.manager.replicas[lmr_id]
        assert not entry["lost"], "rejoined copy should be resynced"
        assert len(entry["backups"]) == 2, "replica set should be healed"
        # The resynced copy carries the *latest* bytes.
        got = yield from _backup_copy(kernels[0], entry, 2, 0, 64)
        assert got == b"v2" * 32
        recovery.stop()

    cluster.run_process(proc())
    assert recovery.promotions == 1
    assert recovery.rejoins == 1
    assert recovery.resyncs >= 1


# ---------------------------------------------------------------------------
# Degradation: last replica gone -> fail-fast ENODEV
# ---------------------------------------------------------------------------
def test_last_replica_death_fails_fast_with_enodev():
    # Primary on LITE 2 (node 1), single backup lands on LITE 1
    # (node 0); the surviving client runs on LITE 3.
    plan = (FaultPlan()
            .crash(1, 2000.0)
            .crash(0, 8000.0))
    cluster, kernels, recovery = _armed(plan=plan)
    sim = cluster.sim

    def proc():
        ctx = LiteContext(kernels[2], "last", kernel_level=True)
        lh = yield from ctx.lt_malloc(4096, name="doomed", nodes=2,
                                      replicas=1)
        yield from ctx.lt_write(lh, 0, b"soon-gone")
        # First crash: promotion onto the lone backup keeps us going.
        yield sim.timeout(6000.0 - sim.now)
        got = yield from ctx.lt_read(lh, 0, 9)
        assert got == b"soon-gone"
        # Second crash kills the promoted copy too: no candidates left.
        yield sim.timeout(12000.0 - sim.now)
        assert cluster.manager.replicas[lh.mapping.lmr_id]["failed"]
        with pytest.raises(LiteError) as excinfo:
            yield from ctx.lt_write(lh, 0, b"nope")
        assert excinfo.value.errno == ENODEV
        with pytest.raises(LiteError) as excinfo:
            yield from ctx.lt_read(lh, 0, 4)
        assert excinfo.value.errno == ENODEV
        recovery.stop()

    cluster.run_process(proc())
    assert recovery.failed_lmrs == 1


def test_kv_shard_degrades_to_read_only():
    """A shard whose value log loses its last replica flips to
    read-only instead of wedging: the server refuses PUTs with ENODEV
    (and the client caches the verdict, failing fast without an RPC),
    while index lookups keep answering."""
    # Server + client live on LITE 1 (spared).  The log spreads its
    # primary over LITE 1+2 with its single backup forced onto LITE 3;
    # the two crashes take out LITE 2 (promotes the backup) then LITE 3
    # (kills the promoted copy: log failed).
    plan = (FaultPlan()
            .crash(1, 3000.0)
            .crash(2, 9000.0))
    cluster, kernels, recovery = _armed(plan=plan)
    sim = cluster.sim
    server = LiteKVServer(kernels[0], 0, log_bytes=64 * 1024,
                          replicas=1, log_nodes=[1, 2])
    client = LiteKVClient(kernels[0], [server],
                          rpc_timeout_us=2000.0, rpc_retries=2)

    def proc():
        yield from server.start()
        yield from client.put(b"alpha", b"v1")
        # Ride through the first crash: promotion keeps the shard live.
        yield sim.timeout(7000.0 - sim.now)
        yield from client.put(b"beta", b"v2")
        # Second crash kills the promoted copy: the log is gone.
        yield sim.timeout(14000.0 - sim.now)
        with pytest.raises(LiteError) as excinfo:
            yield from client.put(b"gamma", b"v3")
        assert excinfo.value.errno == ENODEV
        assert server.read_only, "server must flip read-only, not wedge"
        assert 0 in client.read_only_shards
        # Fail-fast locally now: no RPC burned on a known-dead shard.
        lookups_before = server.lookups
        with pytest.raises(LiteError) as excinfo:
            yield from client.put(b"delta", b"v4")
        assert excinfo.value.errno == ENODEV
        # Index lookups still answer on the degraded shard.
        reply = yield from client._rpc(
            server, {"op": "lookup", "key": "alpha"}
        )
        assert not reply.get("miss")
        assert server.lookups == lookups_before + 1
        recovery.stop()

    cluster.run_process(proc())
    assert recovery.failed_lmrs == 1


def test_rpc_to_declared_dead_peer_fails_fast():
    """Once keep-alive declares a peer dead, a timed RPC raises ENODEV
    immediately instead of burning its whole timeout budget."""
    plan = FaultPlan().crash(1, 1000.0)
    cluster, kernels, recovery = _armed(n_nodes=2, plan=plan)
    sim = cluster.sim

    def proc():
        ctx = LiteContext(kernels[0], "rpc")
        yield sim.timeout(4000.0 - sim.now)  # keep-alive misses expire
        assert not kernels[0].peers[2].alive
        before = sim.now
        with pytest.raises(LiteError) as excinfo:
            yield from ctx.lt_rpc(2, 9, b"ping", timeout=50000.0)
        assert excinfo.value.errno == ENODEV
        assert sim.now - before < 1000.0, "must not wait out the timeout"
        recovery.stop()

    cluster.run_process(proc())


# ---------------------------------------------------------------------------
# Determinism: same seed + same plan => byte-identical end state
# ---------------------------------------------------------------------------
def _storm_fingerprint(seed: int):
    plan = (FaultPlan()
            .crash(1, 2500.0 + (seed % 3) * 300.0, restart_at_us=8000.0))
    cluster, kernels, recovery = _armed(plan=plan, seed=seed)
    sim = cluster.sim
    acked = []

    def proc():
        ctx = LiteContext(kernels[0], "det", kernel_level=True)
        lh = yield from ctx.lt_malloc(16384, name="det", nodes=2, replicas=2)
        for index in range(30):
            for attempt in range(8):
                try:
                    yield from ctx.lt_write(
                        lh, (index * 64) % 16384, bytes([index]) * 64
                    )
                    acked.append(index)
                    break
                except LiteError:
                    yield sim.timeout(250.0 * (attempt + 1))
            yield sim.timeout(150.0)
        if sim.now < 13000.0:
            yield sim.timeout(13000.0 - sim.now)
        recovery.stop()

    cluster.run_process(proc())
    return (
        sim.now,
        sim._seq,
        acked,
        json.dumps(dataclasses.asdict(snapshot(cluster)), sort_keys=True),
        json.dumps(cluster.manager.snapshot(), sort_keys=True),
        recovery.promotions,
        recovery.rejoins,
        recovery.resyncs,
        recovery.promoted_lmrs,
        recovery.dropped_updates,
        recovery.failed_resyncs,
        recovery.exhausted_resyncs,
        list(recovery.unavailability_samples),
    )


@pytest.mark.parametrize("seed", [0, 4])
def test_recovery_is_deterministic_under_faults(seed):
    first = _storm_fingerprint(seed)
    second = _storm_fingerprint(seed)
    assert first == second, "same seed + same plan must replay identically"
    assert first[5] >= 1, "the storm must actually exercise failover"


# ---------------------------------------------------------------------------
# Guard rails
# ---------------------------------------------------------------------------
def test_recovery_manager_rejects_bad_config_and_rearm():
    cluster = Cluster(2)
    kernels = lite_boot(cluster)
    with pytest.raises(ValueError):
        RecoveryManager(cluster, kernels, lease_ttl_us=100.0,
                        renew_interval_us=100.0)
    recovery = RecoveryManager(cluster, kernels).arm()
    with pytest.raises(RuntimeError):
        recovery.arm()


def test_replicas_need_nodes_outside_the_primary_placement():
    cluster = Cluster(2)
    kernels = lite_boot(cluster)
    ctx = LiteContext(kernels[0], "np", kernel_level=True)

    def proc():
        with pytest.raises(LiteError):
            # Both nodes host primary chunks: nowhere to put 1 backup.
            yield from ctx.lt_malloc(4096, nodes=[1, 2], replicas=1)

    cluster.run_process(proc())


def test_unarmed_recovery_is_a_no_op():
    """Constructing (but not arming) the manager adds no lease state,
    no processes, and no event-count drift."""
    cluster = Cluster(2)
    kernels = lite_boot(cluster)
    baseline_seq = cluster.sim._seq
    RecoveryManager(cluster, kernels)
    assert cluster.manager.leases == {}
    assert cluster.sim._seq == baseline_seq
