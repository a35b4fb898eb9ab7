"""Plan entry and multi-chunk fan-out: A/B equivalence and crash fencing.

``try_fast_post_vec`` serves LMR ops whose plan is one remote piece
from that chunk's address, read off the mapping's chunk list on every
attempt (docs/INTERNALS.md §13); every other shape — local+remote chunk
straddles, multi-chunk ops, replica fan-out (``replicas=k``) — falls
through to the per-piece loop, whose pieces each try the WR entry.  All
of it must stay *bit-identical* to the generator path: sparse scattered
sub-ranges, active fault plans, and a primary crash mid-transfer
(failover promotion retargets the mapping, and no op may commit against
the stale layout).

As in test_fastpath.py, comparison happens only at quiescence: a commit
accounts counters at commit time, so mid-flight snapshots may legally
differ — end states may not.
"""

import dataclasses
import os
import random

import pytest

from repro.cluster import Cluster
from repro.core import LiteContext, LiteError, Permission, lite_boot
from repro.determinism import reset_global_counters
from repro.fault import FaultInjector, FaultPlan
from repro.hw.params import SimParams
from repro.recovery import RecoveryManager
from repro.stats import snapshot
from repro.verbs import SendWR
from repro.verbs.fastpath import fp_stats


# 64 KB chunks: a 256 KB LMR split across two hosts yields four chunks,
# so modest offsets straddle chunk and host boundaries.
CHUNK = 64 * 1024


def _with_fastpath(enabled):
    if enabled:
        os.environ.pop("REPRO_NO_FASTPATH", None)
    else:
        os.environ["REPRO_NO_FASTPATH"] = "1"


def _run_vec_workload(seed: int, fastpath: bool, faults: bool):
    """Randomized multi-chunk ops over three LMR shapes; end observables."""
    saved = os.environ.get("REPRO_NO_FASTPATH")
    _with_fastpath(fastpath)
    reset_global_counters()
    try:
        params = SimParams(lite_chunk_bytes=CHUNK)
        cluster = Cluster(3, params=params)
        kernels = lite_boot(cluster)
        sim = cluster.sim
        if faults:
            plan = FaultPlan.random(
                seed, [node.node_id for node in cluster.nodes], 60000.0,
                crashes=0, flaps=1, loss_rate=0.02,
            )
            FaultInjector(cluster, plan).install()
        ctx = LiteContext(kernels[0], "vec", kernel_level=True)
        holder = {}

        def setup():
            # Remote-remote straddle: 2 chunks on LITE 2 + 2 on LITE 3.
            holder["ab"] = yield from ctx.lt_malloc(
                4 * CHUNK, name="vec-ab", nodes=[2, 3]
            )
            # Local+remote straddle: first half loops back through the
            # caller's own port, second half crosses the wire.
            holder["loc"] = yield from ctx.lt_malloc(
                2 * CHUNK, name="vec-loc", nodes=[1, 3]
            )
            # Replica fan-out: primary on LITE 2, one full backup.
            holder["rep"] = yield from ctx.lt_malloc(
                2 * CHUNK, name="vec-rep", nodes=2, replicas=1
            )

        cluster.run_process(setup())
        rng = random.Random(seed)
        errors = []
        # Sparse scattered sub-ranges: ops hop between disjoint windows
        # (holes between them) in different chunks of each LMR.
        windows = [0, CHUNK // 2, CHUNK, 2 * CHUNK - 4096, 3 * CHUNK // 2]

        def driver():
            yield sim.timeout(5)
            for index in range(70):
                which = rng.randrange(3)
                lh = holder[("ab", "loc", "rep")[which]]
                span = (4 if which == 0 else 2) * CHUNK
                base = windows[rng.randrange(len(windows))] % span
                size = rng.choice((256, 4096, 32768, CHUNK, CHUNK + 8192))
                size = min(size, span - base)
                try:
                    if rng.randrange(3) == 0:
                        data = yield from ctx.lt_read(lh, base, size)
                        errors.append(len(data))
                    else:
                        yield from ctx.lt_write(
                            lh, base, bytes([index & 0xFF]) * size
                        )
                except LiteError as exc:
                    errors.append((type(exc).__name__, exc.errno))

        cluster.run_process(driver())
        sim.run()  # drain in-flight tails before comparing
        snap = dataclasses.asdict(snapshot(cluster))
        return sim.now, snap, errors
    finally:
        if saved is None:
            os.environ.pop("REPRO_NO_FASTPATH", None)
        else:
            os.environ["REPRO_NO_FASTPATH"] = saved


@pytest.mark.parametrize("seed", [3, 41])
@pytest.mark.parametrize("faults", [False, True])
def test_vec_equivalence_randomized(seed, faults):
    commits_before = fp_stats.commits + fp_stats.vec_commits
    mismodels_before = fp_stats.mismodels
    fast = _run_vec_workload(seed, fastpath=True, faults=faults)
    if not faults:
        assert fp_stats.commits + fp_stats.vec_commits > commits_before, \
            "the workload must actually exercise fast-path commits"
        assert fp_stats.mismodels == mismodels_before, \
            "clean runs must not widen any hold"
    slow = _run_vec_workload(seed, fastpath=False, faults=faults)
    assert fast[0] == slow[0], "final sim time diverged"
    assert fast[1] == slow[1], "cluster snapshot diverged"
    assert fast[2] == slow[2], "op outcomes diverged"


def _stats():
    return {name: getattr(fp_stats, name) for name in fp_stats.__slots__}


def _delta(before):
    return {name: getattr(fp_stats, name) - value
            for name, value in before.items()}


def _repeat_one_shape(offset: int, size: int):
    """Eight writes of one (offset, size) into a 4-chunk LMR.

    Returns the mapping plus the ``fp_stats`` deltas of the burst.
    """
    saved = os.environ.get("REPRO_NO_FASTPATH")
    _with_fastpath(True)
    reset_global_counters()
    try:
        params = SimParams(lite_chunk_bytes=CHUNK)
        cluster = Cluster(3, params=params)
        kernels = lite_boot(cluster)
        ctx = LiteContext(kernels[0], "memo", kernel_level=True)
        holder = {}

        def setup():
            holder["lh"] = yield from ctx.lt_malloc(
                4 * CHUNK, name="memo", nodes=[2, 3]
            )

        cluster.run_process(setup())
        before = _stats()

        def driver():
            for index in range(8):
                yield from ctx.lt_write(
                    holder["lh"], offset, bytes([index]) * size
                )

        cluster.run_process(driver())
        cluster.sim.run()
        delta = _delta(before)
        return holder["lh"].require(ctx, Permission.WRITE), delta
    finally:
        if saved is None:
            os.environ.pop("REPRO_NO_FASTPATH", None)
        else:
            os.environ["REPRO_NO_FASTPATH"] = saved


@pytest.mark.parametrize("offset", [CHUNK // 2, 3 * CHUNK + 100],
                         ids=["first", "fourth"])
def test_single_piece_target_resolves_from_its_chunk(offset):
    """A one-chunk shape, in the first chunk or past a walk of three,
    resolves its target from the chunk every op and commits."""
    mapping, delta = _repeat_one_shape(offset, 4096)
    assert len(mapping.plan(offset, 4096)) == 1
    assert delta["plan_hits"] == 8 and delta["plan_builds"] == 0
    assert delta["vec_commits"] >= 6, \
        "the resolved target must commit (the first op may miss a cold cache)"
    assert delta["mismodels"] == 0


def test_multi_chunk_shape_declines_to_the_piece_walk():
    """A 3-chunk shape declines every attempt; its pieces ride the
    per-piece path."""
    mapping, delta = _repeat_one_shape(CHUNK // 2, 2 * CHUNK)
    assert len(mapping.plan(CHUNK // 2, 2 * CHUNK)) == 3
    assert delta["vec_attempts"] == 8 and delta["rej_shape"] >= 8
    assert delta["plan_builds"] == 8 and delta["plan_hits"] == 0
    assert delta["vec_commits"] == 0
    assert delta["attempts"] == 24, "three pieces per op try the WR entry"
    assert delta["commits"] > 0
    assert delta["mismodels"] == 0


# ---------------------------------------------------------------------------
# Mid-transfer crash: promotion must orphan every target of the old layout
# ---------------------------------------------------------------------------
def _run_vec_crash_burst(fastpath: bool):
    """Multi-chunk write burst whose primary crashes mid-burst.

    The LMR is replicated, so the lease sweeper promotes the backup and
    ``MappedLmr.retarget`` repoints the mapping — no op may commit
    against the dead layout again.  Returns end-state observables plus
    the recovery lifecycle counts.
    """
    saved = os.environ.get("REPRO_NO_FASTPATH")
    _with_fastpath(fastpath)
    reset_global_counters()
    try:
        params = SimParams(lite_chunk_bytes=CHUNK)
        cluster = Cluster(3, params=params)
        kernels = lite_boot(cluster)
        sim = cluster.sim
        # Fabric node 1 is LITE 2: the primary's host.
        plan = FaultPlan().crash(1, 2500.0, restart_at_us=8000.0)
        injector = FaultInjector(cluster, plan).install()
        injector.arm_lite(kernels, keepalive_interval_us=500.0, miss_limit=2)
        recovery = RecoveryManager(
            cluster, kernels, lease_ttl_us=1500.0,
            renew_interval_us=400.0, sweep_interval_us=300.0,
        ).arm()
        ctx = LiteContext(kernels[0], "vcrash", kernel_level=True)
        holder = {}

        def setup():
            holder["lh"] = yield from ctx.lt_malloc(
                3 * CHUNK, name="vcrash", nodes=2, replicas=1
            )

        cluster.run_process(setup())
        lh = holder["lh"]
        outcomes = []

        def driver():
            for index in range(40):
                # Every op straddles at least two chunks, so the burst
                # rides the per-piece fall-through right up to the crash.
                offset = (index * 8192) % CHUNK
                size = CHUNK + 16384
                try:
                    yield from ctx.lt_write(
                        lh, offset, bytes([index & 0xFF]) * size
                    )
                    outcomes.append(index)
                except LiteError as exc:
                    outcomes.append((type(exc).__name__, exc.errno))
                    yield sim.timeout(200.0)
                yield sim.timeout(60.0)
            if sim.now < 12000.0:
                yield sim.timeout(12000.0 - sim.now)
            recovery.stop()

        cluster.run_process(driver())
        snap = dataclasses.asdict(snapshot(cluster))
        return (sim.now, snap, outcomes,
                recovery.promotions, recovery.rejoins)
    finally:
        if saved is None:
            os.environ.pop("REPRO_NO_FASTPATH", None)
        else:
            os.environ["REPRO_NO_FASTPATH"] = saved


def test_mid_transfer_crash_vec_ab_identity():
    """A primary crash mid multi-chunk burst must stay bit-identical A/B.

    Failover promotion remaps ``lh -> (node, addr)`` via
    ``MappedLmr.retarget`` — an op committing against the promoted-away
    layout would diverge time, snapshot, and outcomes."""
    commits_before = fp_stats.commits + fp_stats.vec_commits
    fast = _run_vec_crash_burst(fastpath=True)
    assert fp_stats.commits + fp_stats.vec_commits > commits_before, \
        "the burst must actually exercise fast-path commits"
    slow = _run_vec_crash_burst(fastpath=False)
    assert fast[0] == slow[0], "final sim time diverged"
    assert fast[1] == slow[1], "cluster snapshot diverged"
    assert fast[2] == slow[2], "op outcomes diverged"
    assert fast[3:] == slow[3:], "recovery lifecycle diverged"
    assert fast[3] >= 1, "the crash must trigger a promotion"
    assert fast[4] >= 1, "the restart must trigger a rejoin"


# ---------------------------------------------------------------------------
# The one piece walker (core/rdma.py::_pieces): every caller, both
# addressing modes, every placement — against a bytearray oracle, A/B
# ---------------------------------------------------------------------------
_PLACEMENTS = {"local": 1, "remote": [2, 3], "straddle": [1, 2, 3]}
# Inside a 6-chunk LMR: four chunks touched, none from its first byte.
_OFF, _LEN = CHUNK + 100, 3 * CHUNK + 777


def _chunk_bytes(kernels, chunks) -> bytes:
    """Raw host memory behind a chunk list — read around LITE, so the
    oracle check does not ride the walker it checks."""
    parts = []
    for chunk in chunks:
        memory = kernels[chunk.node_id - 1].node.memory
        region, base = memory.resolve(chunk.addr, chunk.size)
        parts.append(region.read(base, chunk.size))
    return b"".join(parts)


def _run_walker_case(per_mr: bool, placement: str, op: str, fastpath: bool):
    reset_global_counters()
    cluster = Cluster(4, params=SimParams(lite_chunk_bytes=CHUNK))
    sim = cluster.sim
    sim.fastpath_enabled = fastpath
    kernels = lite_boot(cluster, use_global_mr=not per_mr)
    ctx = LiteContext(kernels[0], "walk", kernel_level=True)
    size = 6 * CHUNK
    oracle = bytearray(size)
    seed = bytes(range(251)) * (size // 251 + 1)
    data = bytes([7, 11, 13]) * (_LEN // 3 + 1)
    holder = {}

    def put(offset, payload):
        oracle[offset : offset + len(payload)] = payload
        return (holder["lh"], offset, payload)

    def driver():
        lh = holder["lh"] = yield from ctx.lt_malloc(
            size, name="walk", nodes=_PLACEMENTS[placement],
            replicas=1 if op == "replicated_write" else 0,
        )
        yield from ctx.lt_write(*put(0, seed[:size]))
        if op in ("write", "replicated_write"):
            yield from ctx.lt_write(*put(_OFF, data[:_LEN]))
        elif op == "write_vec":
            yield from ctx.lt_write_vec(
                [put(_OFF, data[:_LEN]), put(64, data[:4096])]
            )
        elif op == "read":
            got = yield from ctx.lt_read(lh, _OFF, _LEN)
            assert got == oracle[_OFF : _OFF + _LEN]
        else:
            got = yield from ctx.lt_read_vec([(lh, _OFF, _LEN), (lh, 64, 4096)])
            assert got == [oracle[_OFF : _OFF + _LEN], oracle[64 : 64 + 4096]]

    cluster.run_process(driver())
    sim.run()
    mapping = holder["lh"].mapping
    assert len(mapping.plan(_OFF, _LEN)) == 4
    assert (mapping.chunks[0].rkey is not None) == per_mr
    assert _chunk_bytes(kernels, mapping.chunks) == oracle
    assert len(mapping.replica_chunks) == (op == "replicated_write")
    for bchunks in mapping.replica_chunks.values():
        assert _chunk_bytes(kernels, bchunks) == oracle
    return sim.now, dataclasses.asdict(snapshot(cluster)), SendWR._next_id


@pytest.mark.parametrize("op", ["write", "read", "write_vec", "read_vec",
                                "replicated_write"])
@pytest.mark.parametrize("placement", sorted(_PLACEMENTS))
@pytest.mark.parametrize("per_mr", [False, True], ids=["global", "per_mr"])
def test_walker_matrix(per_mr, placement, op):
    fast = _run_walker_case(per_mr, placement, op, fastpath=True)
    slow = _run_walker_case(per_mr, placement, op, fastpath=False)
    assert fast[0] == slow[0], "final sim time diverged"
    assert fast[1] == slow[1], "cluster snapshot diverged"
    assert fast[2] == slow[2], "SendWR id allocation diverged"


def _run_per_mr_atomics(node: int, fastpath: bool):
    reset_global_counters()
    cluster = Cluster(2)
    cluster.sim.fastpath_enabled = fastpath
    kernels = lite_boot(cluster, use_global_mr=False)
    ctx = LiteContext(kernels[0], "atom", kernel_level=True)
    out = []

    def driver():
        lh = yield from ctx.lt_malloc(64, name="atom", nodes=node)
        assert lh.mapping.chunks[0].rkey is not None
        out.append((yield from ctx.lt_fetch_add(lh, 8, 5)))
        out.append((yield from ctx.lt_fetch_add(lh, 8, 2**64 - 1)))
        out.append((yield from ctx.lt_test_set(lh, 8, 4, 99)))
        out.append((yield from ctx.lt_test_set(lh, 8, 4, 7)))
        out.append((yield from ctx.lt_read(lh, 8, 8)))

    cluster.run_process(driver())
    cluster.sim.run()
    assert out == [0, 5, 4, 99, (99).to_bytes(8, "little")]
    return (cluster.sim.now, dataclasses.asdict(snapshot(cluster)),
            SendWR._next_id)


@pytest.mark.parametrize("node", [1, 2], ids=["local", "remote"])
def test_atomics_on_per_mr_chunk(node):
    """``_atomic`` shares the walker's address rule: a per-MR chunk is
    addressed by its own VA + rkey."""
    assert (_run_per_mr_atomics(node, fastpath=True)
            == _run_per_mr_atomics(node, fastpath=False))


# ---------------------------------------------------------------------------
# The plan entry resolves only an address, from the live chunk list; peer
# liveness is read per attempt, CostTable.resolve answers for the rest
# ---------------------------------------------------------------------------
def _memo_cluster(per_mr: bool = False):
    """A 3-node cluster, fast path on, and a context on LITE 1."""
    reset_global_counters()
    cluster = Cluster(3)
    cluster.sim.fastpath_enabled = True
    kernels = lite_boot(cluster, use_global_mr=not per_mr)
    return cluster, kernels, LiteContext(kernels[0], "memo", kernel_level=True)


def test_memoised_plan_after_free_and_realloc_reads_new_bytes():
    """``lt_free`` then an ``lt_malloc`` landing on the same physical
    range: the freed mapping's address now names the new allocation, and
    a read through it must return *its* bytes — the plan entry holds no
    backing to go stale."""
    cluster, kernels, ctx = _memo_cluster()
    out = {}

    def driver():
        old = yield from ctx.lt_malloc(4096, name="old", nodes=2)
        yield from ctx.lt_write(old, 0, b"o" * 4096)
        assert (yield from ctx.lt_read(old, 0, 4096)) == b"o" * 4096
        out["mapping"] = old.mapping
        yield from ctx.lt_free(old)
        new = yield from ctx.lt_malloc(4096, name="new", nodes=2)
        assert new.mapping.chunks[0].addr == old.mapping.chunks[0].addr
        yield from ctx.lt_write(new, 0, b"n" * 4096)
        out["before"] = _stats()
        # Below the lh check, through the freed LMR's mapping.
        out["data"] = yield from kernels[0].onesided.read(out["mapping"], 0, 4096)

    cluster.run_process(driver())
    delta = _delta(out["before"])
    assert delta["plan_hits"] == 1 and delta["plan_builds"] == 0
    assert delta["vec_commits"] == 1 and delta["mismodels"] == 0
    assert out["data"] == b"n" * 4096


@pytest.mark.parametrize("per_mr", [False, True], ids=["global", "per_mr"])
def test_memoised_plan_declines_once_its_target_is_gone(per_mr):
    """No live allocation (global MR) or a deregistered MR (per-MR mode,
    whose ``lt_free`` is a ``dereg_mr``) behind a freed mapping's
    address: the attempt declines under ``rej_target`` and the generator
    path surfaces the error."""
    cluster, kernels, ctx = _memo_cluster(per_mr)
    out = {}

    def driver():
        lh = yield from ctx.lt_malloc(4096, name="gone", nodes=2)
        yield from ctx.lt_write(lh, 0, b"x" * 4096)
        yield from ctx.lt_write(lh, 0, b"y" * 4096)
        mapping = lh.mapping
        yield from ctx.lt_free(lh)
        out["before"] = _stats()
        try:
            yield from kernels[0].onesided.write(mapping, 0, b"z" * 4096)
        except LiteError as exc:
            out["error"] = exc

    cluster.run_process(driver())
    delta = _delta(out["before"])
    assert delta["plan_hits"] == 1 and delta["vec_commits"] == 0
    assert delta["rej_target"] >= 1 and delta["mismodels"] == 0
    assert "error" in out


def test_move_then_realloc_never_commits_a_stale_address():
    """``lt_move`` retargets the master's own mappings through
    ``retarget()``: the next op resolves its address from the new
    layout, so a later allocation that reuses the vacated range is never
    written through the moved LMR's handle."""
    cluster, kernels, ctx = _memo_cluster()
    out = {}

    def driver():
        moved = yield from ctx.lt_malloc(4096, name="moved", nodes=2)
        yield from ctx.lt_write(moved, 0, b"1" * 4096)
        yield from ctx.lt_write(moved, 0, b"2" * 4096)
        vacated = moved.mapping.chunks[0].addr
        yield from ctx.lt_move(moved, 3)
        assert moved.mapping.chunks[0].node_id == 3
        squatter = yield from ctx.lt_malloc(4096, name="squatter", nodes=2)
        assert squatter.mapping.chunks[0].addr == vacated
        yield from ctx.lt_write(squatter, 0, b"s" * 4096)
        out["before"] = _stats()
        yield from ctx.lt_write(moved, 0, b"3" * 4096)
        out["squatter"] = yield from ctx.lt_read(squatter, 0, 4096)
        out["moved"] = yield from ctx.lt_read(moved, 0, 4096)

    cluster.run_process(driver())
    delta = _delta(out["before"])
    assert delta["plan_hits"] == 3 and delta["mismodels"] == 0
    assert out["squatter"] == b"s" * 4096
    assert out["moved"] == b"3" * 4096
