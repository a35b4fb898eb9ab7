"""Churn test battery for the QP pool (INTERNALS §15).

Locks down the microsecond control plane:

* Pool invariants under seeded churn with an active fault plan — the
  parked count never exceeds the cap, a fenced or errored conn is never
  handed to a session, and every lease expiry returns exactly one conn
  (a late ``release()`` after the sweeper reaped the lease is a
  remembered no-op, never a double park).
* Determinism — the same seed produces bit-identical ``(time, seq)``
  fingerprints and cluster snapshots across repeat runs and across the
  serial/parallel sweep runner, and bit-identical final time and
  snapshots across the fast-path A/B toggle (``REPRO_NO_FASTPATH=1``;
  ``seq`` counts real enqueues, so it is compared within a mode only).
* Fencing — a mid-churn peer crash (FaultPlan + armed RecoveryManager)
  fences the pooled conns; later acquires discard them cold instead of
  ever granting a dead conn.
"""

import dataclasses
import json
import os

import pytest

from repro.cluster import Cluster
from repro.core import LiteContext, LiteError, lite_boot
from repro.core.api import ClientSession
from repro.determinism import reset_global_counters
from repro.fault import FaultInjector, FaultPlan
from repro.hw.fabric import FabricError, TransferDropped
from repro.recovery import RecoveryManager
from repro.stats import snapshot
from repro.sweep import run_sweep
from repro.verbs.fastpath import fp_stats
from repro.workloads.churn import churn_point, run_churn


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------
def _with_fastpath(enabled):
    """Env toggle (the Simulator reads it at __init__)."""
    if enabled:
        os.environ.pop("REPRO_NO_FASTPATH", None)
    else:
        os.environ["REPRO_NO_FASTPATH"] = "1"


def _instrument(pool):
    """Wrap the pool's entry points to record invariant-relevant events.

    Instance attributes shadow the bound methods, so the sweeper's
    ``self._park(conn)`` and ``ClientSession``'s ``pool.acquire(...)``
    both route through the wrappers.
    """
    log = {"grants": [], "parks": 0, "max_parked": 0}
    orig_acquire = pool.acquire
    orig_park = pool._park

    def acquire(session_id, ttl_us=None):
        conn, source = yield from orig_acquire(session_id, ttl_us)
        log["grants"].append(
            (session_id, conn.conn_id, source, conn.usable())
        )
        return conn, source

    def park(conn):
        orig_park(conn)
        log["max_parked"] = max(log["max_parked"], pool.parked)
        log["parks"] += 1

    pool.acquire = acquire
    pool._park = park
    return log


# ---------------------------------------------------------------------------
# Satellite 1: randomized pool invariants under seeded churn + faults
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("seed", [7, 21, 1009])
def test_pool_invariants_under_seeded_churn(seed):
    reset_global_counters()
    cluster = Cluster(3)
    kernels = lite_boot(cluster)
    # Active fault plan: a bystander link outage keeps the injector (and
    # its fast-path disablement) live for the whole drive without making
    # the churn path itself raise.
    plan = FaultPlan().link_down(
        cluster.nodes[2].node_id, 500.0, up_at_us=4000.0
    )
    FaultInjector(cluster, plan).install()
    pool = kernels[0].qp_pool(
        kernels[1].lite_id, reserve=2, cap=3, lease_ttl_us=600.0
    )
    log = _instrument(pool)
    stats = run_churn(
        cluster, kernels, n_clients=18, seed=seed, abandon_every=3,
        mean_gap_us=40.0, lease_ttl_us=600.0,
    )
    # Every client attached exactly once, one way or the other.
    assert stats.hits + stats.misses == 18
    assert stats.ops_ok == 18 * 4 and stats.ops_failed == 0
    # Cap is never exceeded, not even transiently at park time.
    assert log["max_parked"] <= pool.cap
    assert pool.parked <= pool.cap
    # No fenced/errored conn was ever handed out.
    assert all(usable for (_, _, _, usable) in log["grants"])
    # Exactly one park per finished lease: detaches plus sweeper reaps.
    assert stats.abandoned == 6 and stats.detached == 12
    assert pool.expiries == stats.abandoned
    assert log["parks"] == stats.released + pool.expiries
    # Quiescent end state: nothing leased, lease table empty.
    assert pool.leased == 0
    assert cluster.manager.qp_leases == {}


def test_release_after_expiry_is_noop_and_sid_reuse_regrants():
    reset_global_counters()
    cluster = Cluster(2)
    kernels = lite_boot(cluster)
    pool = kernels[0].qp_pool(
        kernels[1].lite_id, reserve=1, lease_ttl_us=100.0
    )
    out = {}

    def driver():
        yield from pool.prebuild()
        _conn, source = yield from pool.acquire(9)
        out["source"] = source
        yield cluster.sim.timeout(250.0)  # sail past the TTL
        out["reaped"] = pool.sweep()
        # The sweeper parked the conn already: the client's late detach
        # must be a no-op, not a second park.
        out["late_release"] = pool.release(9)
        out["parked_after"] = pool.parked
        # Re-attach under the reaped id: the stale expiry marker is
        # cleared so this lease's release works normally again.
        _conn2, source2 = yield from pool.acquire(9)
        out["source2"] = source2
        out["release2"] = pool.release(9)

    cluster.run_process(driver())
    cluster.sim.run()
    assert out["source"] == "hit"
    assert out["reaped"] == 1
    assert out["late_release"] is False
    assert out["parked_after"] == 1
    assert out["source2"] == "hit"
    assert out["release2"] is True
    assert pool.expiries == 1 and pool.parked == 1 and pool.leased == 0


def test_double_lease_same_session_rejected():
    reset_global_counters()
    cluster = Cluster(2)
    kernels = lite_boot(cluster)
    pool = kernels[0].qp_pool(kernels[1].lite_id, reserve=1)
    failures = []

    def driver():
        yield from pool.prebuild()
        yield from pool.acquire(1)
        try:
            yield from pool.acquire(1)
        except ValueError as exc:
            failures.append(str(exc))
        pool.release(1)

    cluster.run_process(driver())
    cluster.sim.run()
    assert failures and "already holds" in failures[0]


# ---------------------------------------------------------------------------
# Determinism: repeat runs, A/B fast-path toggle, serial/parallel sweeps
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("seed", [3, 11])
def test_churn_repeat_runs_bit_identical(seed):
    def once():
        reset_global_counters()
        cluster = Cluster(2)
        kernels = lite_boot(cluster)
        stats = run_churn(
            cluster, kernels, n_clients=12, seed=seed, abandon_every=4
        )
        return (
            stats.fingerprint, stats.hits, stats.misses, stats.ops_ok,
            dataclasses.asdict(snapshot(cluster)),
        )

    assert once() == once()


def test_churn_fastpath_ab_identical():
    """Churn + background one-sided traffic: fast == slow, bit for bit.

    Session ops take the generator path by construction; the background
    ``lt_write`` stream is what the fast path actually accelerates, so
    the fast run must show commits while observables stay identical.
    """

    def once(fastpath):
        saved = os.environ.get("REPRO_NO_FASTPATH")
        _with_fastpath(fastpath)
        reset_global_counters()
        try:
            cluster = Cluster(2)
            kernels = lite_boot(cluster)
            ctx = LiteContext(kernels[0], "bg", kernel_level=True)
            holder = {}

            def setup():
                holder["lh"] = yield from ctx.lt_malloc(
                    128 * 1024, nodes=2
                )

            cluster.run_process(setup())

            def background():
                for index in range(40):
                    yield from ctx.lt_write(
                        holder["lh"], (index % 16) * 1024,
                        bytes([index & 0xFF]) * 512,
                    )
                    yield cluster.sim.timeout(7.0)

            cluster.sim.process(background(), name="bg-writer")
            commits_before = fp_stats.commits + fp_stats.vec_commits
            stats = run_churn(
                cluster, kernels, n_clients=10, seed=5,
                abandon_every=4, mean_gap_us=25.0,
            )
            commits = (fp_stats.commits + fp_stats.vec_commits
                       - commits_before)
            snap = dataclasses.asdict(snapshot(cluster))
            return (
                (stats.fingerprint[0], stats.hits, stats.misses,
                 stats.ops_ok, stats.expiries, snap),
                commits,
            )
        finally:
            if saved is None:
                os.environ.pop("REPRO_NO_FASTPATH", None)
            else:
                os.environ["REPRO_NO_FASTPATH"] = saved

    fast, fast_commits = once(True)
    slow, slow_commits = once(False)
    assert fast == slow
    assert fast_commits > 0
    assert slow_commits == 0


def test_churn_sweep_serial_parallel_identical():
    points = [(8, True, 1), (8, False, 1), (12, True, 2)]
    serial = run_sweep(churn_point, points, jobs=1)
    parallel = run_sweep(churn_point, points, jobs=2)
    assert json.dumps(serial, sort_keys=True) == \
        json.dumps(parallel, sort_keys=True)


# ---------------------------------------------------------------------------
# Fencing: mid-churn peer crash under an armed RecoveryManager
# ---------------------------------------------------------------------------
def _crash_churn(fastpath):
    """Serial churn across a peer crash+restart; returns observables."""
    saved = os.environ.get("REPRO_NO_FASTPATH")
    _with_fastpath(fastpath)
    reset_global_counters()
    try:
        cluster = Cluster(3)
        kernels = lite_boot(cluster)
        sim = cluster.sim
        plan = FaultPlan().crash(
            cluster.nodes[1].node_id, 2500.0, restart_at_us=9000.0
        )
        FaultInjector(cluster, plan).install()
        recovery = RecoveryManager(
            cluster, kernels, lease_ttl_us=1500.0,
            renew_interval_us=400.0, sweep_interval_us=300.0,
        ).arm()
        pool = kernels[0].qp_pool(
            kernels[1].lite_id, reserve=2, lease_ttl_us=1200.0
        )
        log = _instrument(pool)
        outcomes = []

        def client(index):
            ctx = LiteContext(
                kernels[0], f"crash{index}", kernel_level=True
            )
            session = ClientSession(
                ctx, kernels[1].lite_id, session_id=index + 1,
                buffer_bytes=256,
            )
            try:
                yield from session.attach()
                for _ in range(2):
                    status = yield from session.write(b"y" * 256)
                    outcomes.append(
                        (index, getattr(status, "name", str(status)))
                    )
                yield from session.detach()
            except (LiteError, TransferDropped, FabricError) as exc:
                # Cold bring-up toward the dead peer: a deterministic
                # failure, recorded as this client's outcome.
                outcomes.append((index, type(exc).__name__))

        def driver():
            pool.arm()
            yield from pool.prebuild()
            for index in range(10):
                yield from client(index)
                yield sim.timeout(900.0)
            recovery.stop()
            pool.stop()
            yield sim.timeout(600.0)

        cluster.run_process(driver())
        sim.run()
        snap = dataclasses.asdict(snapshot(cluster))
        return (
            sim.now, snap, log["grants"], outcomes,
            pool.hits, pool.misses, pool.fenced_discards,
            recovery.promotions,
        )
    finally:
        if saved is None:
            os.environ.pop("REPRO_NO_FASTPATH", None)
        else:
            os.environ["REPRO_NO_FASTPATH"] = saved


def test_crash_fences_pool_and_never_regrants_dead_conns():
    result = _crash_churn(fastpath=True)
    grants, outcomes = result[2], result[3]
    fenced_discards = result[6]
    # Every granted conn was usable at grant time, crash or not.
    assert all(usable for (_, _, _, usable) in grants)
    # The failover fenced the parked reserve; later acquires discarded
    # those conns instead of handing them out.
    assert fenced_discards > 0
    # The crash was actually felt (failed ops or failed bring-ups)...
    assert any(name != "SUCCESS" for (_, name) in outcomes)
    # ...and after the restart the control plane recovered: the last
    # client's ops completed cleanly.
    last_index = max(index for (index, _) in outcomes)
    assert [name for (index, name) in outcomes
            if index == last_index] == ["SUCCESS", "SUCCESS"]


def test_crash_churn_fastpath_ab_identical():
    """Mid-churn crash: fast vs REPRO_NO_FASTPATH=1 runs are identical."""
    assert _crash_churn(fastpath=True) == _crash_churn(fastpath=False)


# ---------------------------------------------------------------------------
# The headline claim, cheaply guarded in tier 1 (the full figure lives
# in benchmarks/test_sec24_churn.py)
# ---------------------------------------------------------------------------
def test_pooled_ttfo_beats_cold_bringup():
    def ttfo(pooled):
        reset_global_counters()
        cluster = Cluster(2)
        kernels = lite_boot(cluster)
        stats = run_churn(
            cluster, kernels, n_clients=10, seed=0, pooled=pooled
        )
        source = "hit" if pooled else "cold"
        med = stats.median_ttfo(source)
        assert med is not None
        return med

    pooled_med = ttfo(True)
    cold_med = ttfo(False)
    assert pooled_med * 5 <= cold_med
