"""LMR ops on the one fast-path entry: A/B equivalence and crash fencing.

An LT_write / LT_read that lands in one remote chunk of an unreplicated
LMR builds that piece's ``SendWR`` from the mapping's live chunk list
and tries the commit once, with no barrier (docs/INTERNALS.md §13);
every other shape — local+remote chunk straddles, multi-chunk ops,
replica fan-out (``replicas=k``) — walks its pieces, and each remote
piece tries the same entry.  All of it must stay bit-identical to the
generator path (``tests/ab.py``): sparse scattered sub-ranges, active
fault plans, and a primary crash mid-transfer (failover promotion
retargets the mapping, and no op may commit against the stale layout).
"""

import random

import pytest

from repro.core import LiteContext, LiteError, Permission, lite_boot
from repro.fault import FaultInjector, FaultPlan
from repro.hw.params import SimParams
from repro.recovery import RecoveryManager

from tests import ab

# 64 KB chunks: a 256 KB LMR split across two hosts yields four chunks,
# so modest offsets straddle chunk and host boundaries.
CHUNK = 64 * 1024


def _booted(run, n_nodes=3, **boot):
    """A cluster of ``CHUNK``-byte LMR chunks and a kernel-level context
    on LITE 1."""
    cluster = run.cluster(n_nodes, params=SimParams(lite_chunk_bytes=CHUNK))
    kernels = lite_boot(cluster, **boot)
    return cluster, kernels, LiteContext(kernels[0], "vec", kernel_level=True)


def vec_ops(run, seed: int, faults: bool):
    """70 random multi-chunk ops over three LMR shapes, hopping between
    disjoint windows (holes between them) in different chunks."""
    cluster, _kernels, ctx = _booted(run)
    if faults:
        plan = FaultPlan.random(
            seed, [node.node_id for node in cluster.nodes], 60000.0,
            crashes=0, flaps=1, loss_rate=0.02,
        )
        FaultInjector(cluster, plan).install()
    holder = {}

    def setup():
        # Remote-remote straddle: 2 chunks on LITE 2 + 2 on LITE 3.
        holder["ab"] = yield from ctx.lt_malloc(4 * CHUNK, name="vec-ab",
                                                nodes=[2, 3])
        # Local+remote straddle: the first half loops back through the
        # caller's own port, the second crosses the wire.
        holder["loc"] = yield from ctx.lt_malloc(2 * CHUNK, name="vec-loc",
                                                 nodes=[1, 3])
        # Replica fan-out: primary on LITE 2, one full backup.
        holder["rep"] = yield from ctx.lt_malloc(2 * CHUNK, name="vec-rep",
                                                 nodes=2, replicas=1)

    cluster.run_process(setup())
    rng = random.Random(seed)
    outcomes = []
    windows = [0, CHUNK // 2, CHUNK, 2 * CHUNK - 4096, 3 * CHUNK // 2]

    def driver():
        yield cluster.sim.timeout(5)
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
                    outcomes.append(len(data))
                else:
                    yield from ctx.lt_write(
                        lh, base, bytes([index & 0xFF]) * size)
            except LiteError as exc:
                outcomes.append((type(exc).__name__, exc.errno))

    cluster.run_process(driver())
    cluster.sim.run()  # drain in-flight tails before comparing
    return outcomes


@pytest.mark.parametrize("seed", [3, 41])
@pytest.mark.parametrize("faults", [False, True])
def test_vec_equivalence_randomized(seed, faults):
    fp = ab.check(vec_ops, seed=seed, faults=faults)["fast"].fp
    if not faults:
        assert fp["commits"] > 0, "the workload must exercise commits"
        assert fp["mismodels"] == 0, "clean runs must not widen any hold"


def _repeat_one_shape(offset: int, size: int):
    """Eight writes of one (offset, size) into a 4-chunk LMR, fast path
    on.  Returns the mapping plus the fast-path counts of the burst."""
    cluster, _kernels, ctx = _booted(ab.Run("fast"))
    lh = cluster.run_process(ctx.lt_malloc(4 * CHUNK, name="memo",
                                           nodes=[2, 3]))
    before = ab.fp_counts(cluster)

    def driver():
        for index in range(8):
            yield from ctx.lt_write(lh, offset, bytes([index]) * size)

    cluster.run_process(driver())
    cluster.sim.run()
    return lh.require(ctx, Permission.WRITE), ab.fp_delta(cluster, before)


@pytest.mark.parametrize("offset", [CHUNK // 2, 3 * CHUNK + 100],
                         ids=["first", "fourth"])
def test_single_piece_target_resolves_from_its_chunk(offset):
    """A one-chunk shape, in the first chunk or past a walk of three,
    resolves its target from the chunk every op and commits."""
    mapping, delta = _repeat_one_shape(offset, 4096)
    assert mapping.piece(offset, 4096) == (
        mapping.chunks[offset // CHUNK], offset % CHUNK)
    assert delta["attempts"] == 8
    assert delta["commits"] >= 6, \
        "the resolved target must commit (the first op may miss a cold cache)"
    assert delta["mismodels"] == 0


def test_multi_chunk_shape_declines_to_the_piece_walk():
    """A 3-chunk shape is no single piece; it walks, and each of its
    pieces tries the entry once."""
    mapping, delta = _repeat_one_shape(CHUNK // 2, 2 * CHUNK)
    assert len(mapping.plan(CHUNK // 2, 2 * CHUNK)) == 3
    assert mapping.piece(CHUNK // 2, 2 * CHUNK) is None
    assert delta["attempts"] == 24, "three pieces per op try the entry"
    assert delta["commits"] > 0
    assert delta["mismodels"] == 0


# ---------------------------------------------------------------------------
# Mid-transfer crash: promotion must orphan every target of the old layout
# ---------------------------------------------------------------------------
def vec_crash_burst(run):
    """40 writes of 1.25 chunks each into a replicated LMR whose primary
    (fabric node 1, LITE 2) crashes at 2.5 ms and restarts at 8 ms; the
    lease sweeper promotes the backup and ``MappedLmr.retarget``
    repoints the mapping.  Outcomes: per write, its index or error;
    then promotions, rejoins."""
    cluster, kernels, ctx = _booted(run)
    sim = cluster.sim
    plan = FaultPlan().crash(1, 2500.0, restart_at_us=8000.0)
    FaultInjector(cluster, plan).install().arm_lite(
        kernels, keepalive_interval_us=500.0, miss_limit=2)
    recovery = RecoveryManager(
        cluster, kernels, lease_ttl_us=1500.0,
        renew_interval_us=400.0, sweep_interval_us=300.0,
    ).arm()
    lh = cluster.run_process(ctx.lt_malloc(3 * CHUNK, name="vcrash",
                                           nodes=2, replicas=1))
    outcomes = []

    def driver():
        for index in range(40):
            # Every op straddles at least two chunks, so the burst rides
            # the per-piece fall-through right up to the crash.
            offset = (index * 8192) % CHUNK
            try:
                yield from ctx.lt_write(
                    lh, offset, bytes([index & 0xFF]) * (CHUNK + 16384))
                outcomes.append(index)
            except LiteError as exc:
                outcomes.append((type(exc).__name__, exc.errno))
                yield sim.timeout(200.0)
            yield sim.timeout(60.0)
        if sim.now < 12000.0:
            yield sim.timeout(12000.0 - sim.now)
        recovery.stop()

    cluster.run_process(driver())
    return outcomes, recovery.promotions, recovery.rejoins


def test_mid_transfer_crash_vec_ab_identity():
    """An op committing against the promoted-away layout would diverge
    time, snapshot, outcomes and the recovery lifecycle."""
    fast = ab.check(vec_crash_burst)["fast"]
    assert fast.fp["commits"] > 0, "the burst must exercise commits"
    _, promotions, rejoins = fast.outcomes
    assert promotions >= 1, "the crash must promote"
    assert rejoins >= 1, "the restart must rejoin"


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


def walker_case(run, per_mr: bool, placement: str, op: str):
    cluster, kernels, ctx = _booted(run, 4, use_global_mr=not per_mr)
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
        if op == "read":
            got = yield from ctx.lt_read(lh, _OFF, _LEN)
            assert got == oracle[_OFF : _OFF + _LEN]
        else:
            yield from ctx.lt_write(*put(_OFF, data[:_LEN]))

    cluster.run_process(driver())
    cluster.sim.run()
    mapping = holder["lh"].mapping
    assert len(mapping.plan(_OFF, _LEN)) == 4
    assert (mapping.chunks[0].rkey is not None) == per_mr
    assert _chunk_bytes(kernels, mapping.chunks) == oracle
    assert len(mapping.replica_chunks) == (op == "replicated_write")
    for bchunks in mapping.replica_chunks.values():
        assert _chunk_bytes(kernels, bchunks) == oracle
    return [node.rnic.wqe_count for node in cluster.nodes]  # WRs posted


@pytest.mark.parametrize("op", ["write", "read", "replicated_write"])
@pytest.mark.parametrize("placement", sorted(_PLACEMENTS))
@pytest.mark.parametrize("per_mr", [False, True], ids=["global", "per_mr"])
def test_walker_matrix(per_mr, placement, op):
    # A 4-piece read whose first remote piece commits at post time
    # touches the requester's QP-state cache before its generator-path
    # siblings do: same contents and counters, another LRU order.
    ab.check(walker_case, per_mr=per_mr, placement=placement, op=op,
             lru_order=op != "read" or placement == "local")


def per_mr_atomics(run, node: int):
    cluster = run.cluster(2)
    ctx = LiteContext(lite_boot(cluster, use_global_mr=False)[0], "atom",
                      kernel_level=True)
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
    return [node.rnic.wqe_count for node in cluster.nodes]


@pytest.mark.parametrize("node", [1, 2], ids=["local", "remote"])
def test_atomics_on_per_mr_chunk(node):
    """``_atomic`` shares the walker's address rule: a per-MR chunk is
    addressed by its own VA + rkey."""
    ab.check(per_mr_atomics, node=node)


# ---------------------------------------------------------------------------
# A single-piece op takes only an address from the live chunk list; peer
# liveness is read per op, the responder's own target check answers for
# the rest
# ---------------------------------------------------------------------------
def _memo_cluster(per_mr: bool = False):
    """A 3-node cluster, fast path on, and a context on LITE 1."""
    cluster = ab.Run("fast").cluster(3)
    kernels = lite_boot(cluster, use_global_mr=not per_mr)
    return cluster, kernels, LiteContext(kernels[0], "memo", kernel_level=True)


def test_memoised_plan_after_free_and_realloc_reads_new_bytes():
    """``lt_free`` then an ``lt_malloc`` landing on the same physical
    range: the freed mapping's address now names the new allocation, and
    a read through it must return *its* bytes — nothing on the way holds
    a backing to go stale."""
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
        out["before"] = ab.fp_counts(cluster)
        # Below the lh check, through the freed LMR's mapping.
        out["data"] = yield from kernels[0].onesided.read(out["mapping"], 0, 4096)

    cluster.run_process(driver())
    delta = ab.fp_delta(cluster, out["before"])
    assert delta["attempts"] == 1 and delta["commits"] == 1
    assert delta["mismodels"] == 0
    assert out["data"] == b"n" * 4096


@pytest.mark.parametrize("per_mr", [False, True], ids=["global", "per_mr"])
def test_memoised_plan_declines_once_its_target_is_gone(per_mr):
    """No live allocation (global MR) or a deregistered MR (per-MR mode,
    whose ``lt_free`` is a ``dereg_mr``) behind a freed mapping's
    address: nothing remembers the old target, the commit's per-attempt
    target check declines under ``rej_target`` and the generator path
    surfaces the error."""
    cluster, kernels, ctx = _memo_cluster(per_mr)
    out = {}

    def driver():
        lh = yield from ctx.lt_malloc(4096, name="gone", nodes=2)
        yield from ctx.lt_write(lh, 0, b"x" * 4096)
        yield from ctx.lt_write(lh, 0, b"y" * 4096)
        mapping = lh.mapping
        yield from ctx.lt_free(lh)
        out["before"] = ab.fp_counts(cluster)
        try:
            yield from kernels[0].onesided.write(mapping, 0, b"z" * 4096)
        except LiteError as exc:
            out["error"] = exc

    cluster.run_process(driver())
    delta = ab.fp_delta(cluster, out["before"])
    assert delta["attempts"] == 1 and delta["commits"] == 0
    assert delta["rej_target"] == 1 and delta["mismodels"] == 0
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
        out["before"] = ab.fp_counts(cluster)
        yield from ctx.lt_write(moved, 0, b"3" * 4096)
        out["squatter"] = yield from ctx.lt_read(squatter, 0, 4096)
        out["moved"] = yield from ctx.lt_read(moved, 0, 4096)

    cluster.run_process(driver())
    delta = ab.fp_delta(cluster, out["before"])
    assert delta["attempts"] == 3 and delta["mismodels"] == 0
    assert out["squatter"] == b"s" * 4096
    assert out["moved"] == b"3" * 4096


@pytest.mark.parametrize("op", ["write", "read"])
def test_declined_single_piece_op_is_attempted_once(op):
    """An ordinary event due inside the op's window declines the commit;
    the same WR then takes the generator path without a second attempt,
    and the op still completes."""
    cluster, kernels, ctx = _memo_cluster()
    sim = cluster.sim
    engine = kernels[0].onesided
    out = {}

    def driver():
        lh = yield from ctx.lt_malloc(4096, name="once", nodes=2)
        yield from ctx.lt_write(lh, 0, b"w" * 4096)  # warms both RNICs
        mapping = lh.mapping
        before = ab.fp_counts(cluster)
        sim.timeout(0.001)  # nothing waits on it; it bounds the horizon
        if op == "write":
            yield from engine.write(mapping, 0, b"v" * 4096)
        else:
            out["data"] = yield from engine.read(mapping, 0, 4096)
        out["delta"] = ab.fp_delta(cluster, before)
        if op == "write":
            out["data"] = yield from ctx.lt_read(lh, 0, 4096)

    cluster.run_process(driver())
    delta = out["delta"]
    assert delta["attempts"] == 1 and delta["commits"] == 0
    assert ab.rejects(delta) == 1, "one declined op, one reject"
    assert delta["rej_floor"] == 1 and delta["mismodels"] == 0
    assert out["data"] == (b"v" if op == "write" else b"w") * 4096


@pytest.mark.parametrize("offset,error", [
    (CHUNK - 4, "straddle"),        # the word crosses a chunk boundary
    (4 * CHUNK - 4, "outside"),     # the word runs past the LMR's end
], ids=["straddle", "outside"])
def test_atomic_target_must_be_one_in_range_word(offset, error):
    cluster, _kernels, ctx = _booted(ab.Run("fast"))

    def driver():
        lh = yield from ctx.lt_malloc(4 * CHUNK, name="word", nodes=[2, 3])
        with pytest.raises(ValueError, match=error):
            yield from ctx.lt_fetch_add(lh, offset, 1)

    cluster.run_process(driver())
