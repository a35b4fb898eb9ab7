"""Golden-trace regression tests: span trees are locked down byte-wise.

Each canonical scenario's JSONL export is compared against a committed
golden file under ``tests/golden/``.  Any change to op decomposition,
span naming, timing parameters, or exporter formatting shows up as a
unified diff here.  To bless intentional changes::

    REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_trace_golden.py

then review and commit the rewritten golden files.
"""

import difflib
import os
from pathlib import Path

import pytest

from repro.cluster import Cluster
from repro.core import LiteContext, LiteError, lite_boot
from repro.fault import FaultInjector, FaultPlan
from repro.hw.params import SimParams
from repro.obs import install_tracer, to_jsonl
from repro.recovery import RecoveryManager

GOLDEN_DIR = Path(__file__).parent / "golden"
REGEN = os.environ.get("REPRO_REGEN_GOLDEN") == "1"


# ---------------------------------------------------------------------------
# Canonical scenarios: each boots a fresh cluster (its ids start over with
# its simulator), runs any untraced warm-up, then traces one small workload.
# ---------------------------------------------------------------------------
def _booted(n_nodes=2, **kwargs):
    cluster = Cluster(n_nodes, **kwargs)
    kernels = lite_boot(cluster)
    return cluster, kernels, LiteContext(kernels[0], f"t{kernels[0].lite_id}")


def _one_op(op, warm):
    """A remote 1 MB LMR, ``warm`` untraced 64 B write+read pairs, then
    one traced 64 B ``op`` ("write" or "read")."""
    cluster, _kernels, ctx = _booted()
    state = {}

    def setup():
        state["lh"] = yield from ctx.lt_malloc(1 << 20, "gold", nodes=2)
        for _ in range(warm):
            yield from ctx.lt_write(state["lh"], 0, b"w" * 64)
            yield from ctx.lt_read(state["lh"], 0, 64)

    cluster.run_process(setup())
    tracer = install_tracer(cluster)
    if op == "write":
        cluster.run_process(ctx.lt_write(state["lh"], 0, b"x" * 64))
    else:
        cluster.run_process(ctx.lt_read(state["lh"], 0, 64))
    return tracer


def _write_4chunk():
    """One 64 KB LT_write fanning out over four 16 KB chunks: per-chunk
    doorbells, fabric hops and coalesced completion."""
    cluster, _kernels, ctx = _booted(params=SimParams(lite_chunk_bytes=16 * 1024))
    state = {}

    def setup():
        state["lh"] = yield from ctx.lt_malloc(1 << 16, "gold4", nodes=2)
        yield from ctx.lt_write(state["lh"], 0, b"w" * (1 << 16))

    cluster.run_process(setup())
    tracer = install_tracer(cluster)
    cluster.run_process(ctx.lt_write(state["lh"], 0, b"x" * (1 << 16)))
    return tracer


def _rpc_roundtrip():
    """One 64B RPC round-trip (client + one-shot server)."""
    cluster, kernels, ctx_a = _booted()
    ctx_b = LiteContext(kernels[1], f"t{kernels[1].lite_id}")
    ctx_b.lt_reg_rpc(7)

    def server():
        call = yield from ctx_b.lt_recv_rpc(7)
        yield from ctx_b.lt_reply_rpc(call, call.input)

    def client():
        assert (yield from ctx_a.lt_rpc(2, 7, b"r" * 64)) == b"r" * 64

    def driver():
        yield cluster.sim.all_of([cluster.sim.process(server()),
                                  cluster.sim.process(client())])

    tracer = install_tracer(cluster)
    cluster.run_process(driver())
    return tracer


def _recovery_failover():
    """One full crash -> promote -> rejoin -> resync cycle, traced.

    A ``replicas=2`` LMR loses its primary's node to a seeded crash;
    the lease sweeper promotes a backup (retried client writes land on
    it through the unchanged handle), the node restarts, rejoins, and
    is resynced back into the replica set.  Fixed timers throughout, so
    the whole recovery protocol's span tree is golden-locked.
    """
    cluster, kernels, _ = _booted(3)
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
    return tracer


SCENARIOS = {
    "write64": lambda: _one_op("write", warm=5),
    "read64_cold": lambda: _one_op("read", warm=0),
    "read64_warm": lambda: _one_op("read", warm=5),
    "write_4chunk": _write_4chunk,
    "rpc_roundtrip": _rpc_roundtrip,
    "recovery_failover": _recovery_failover,
}


def _check_golden(name: str) -> None:
    tracer = SCENARIOS[name]()
    actual = to_jsonl(tracer)
    path = GOLDEN_DIR / f"{name}.jsonl"
    if REGEN:
        GOLDEN_DIR.mkdir(exist_ok=True)
        path.write_text(actual)
        pytest.skip(f"regenerated {path}")
    if not path.exists():
        pytest.fail(
            f"missing golden file {path}; run with REPRO_REGEN_GOLDEN=1 "
            f"to create it"
        )
    expected = path.read_text()
    if actual != expected:
        diff = "\n".join(difflib.unified_diff(
            expected.splitlines(), actual.splitlines(),
            fromfile=f"golden/{name}.jsonl", tofile="actual",
            lineterm="", n=2,
        ))
        pytest.fail(
            f"trace for scenario {name!r} diverged from golden file "
            f"(REPRO_REGEN_GOLDEN=1 to bless):\n{diff}"
        )


def test_golden_write64():
    _check_golden("write64")


def test_golden_read64_cold():
    _check_golden("read64_cold")


def test_golden_read64_warm():
    _check_golden("read64_warm")


def test_golden_write_4chunk():
    """A 64KB write over four 16KB chunks: the generator path's
    per-chunk striping schedule."""
    _check_golden("write_4chunk")


def test_golden_rpc_roundtrip():
    _check_golden("rpc_roundtrip")


def test_golden_recovery_failover():
    """The whole recovery protocol — lease expiry, promotion broadcast,
    rejoin, resync copy — decomposes into a deterministic span tree."""
    _check_golden("recovery_failover")


def test_cold_read_misses_warm_read_hits():
    """The cold/warm pair differ exactly where they should: the cold
    trace carries RNIC cache-miss markers, the warm trace none."""
    cold = SCENARIOS["read64_cold"]()
    warm = SCENARIOS["read64_warm"]()
    cold_misses = [s for s in cold.spans if s.name == "rnic.cache.miss"]
    warm_misses = [s for s in warm.spans if s.name == "rnic.cache.miss"]
    assert cold_misses, "cold read should miss the RNIC SRAM caches"
    assert not warm_misses, "warm read should be all hits"
    # Misses make the cold op strictly slower end-to-end.
    cold_op = next(s for s in cold.op_roots() if s.name == "op.lt_read")
    warm_op = next(s for s in warm.op_roots() if s.name == "op.lt_read")
    assert cold_op.duration > warm_op.duration
