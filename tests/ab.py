"""The one fast / slow / traced differential harness (docs/INTERNALS.md §13).

The run-to-completion commit (``verbs/fastpath.py``) and the generator
path must agree bit for bit, and a tracer must perturb neither.  A
*scenario* is a function ``scenario(run, **params) -> outcomes`` that
builds every cluster it uses through ``run.cluster(...)``;
:func:`check` runs it once per mode, compares the records and returns
them so a test can add the assertions of its own row.

Modes, set on each cluster's simulator (no environment variable is
read or written, so every check holds under the ``REPRO_NO_FASTPATH=1``
CI leg too):

- ``fast``   — ``sim.fastpath_enabled = True``;
- ``slow``   — ``sim.fastpath_enabled = False``;
- ``traced`` — ``install_tracer`` before anything runs (a tracer keeps
  every op on the generator path).

Compared, per cluster: ``sim.now``, the whole :func:`repro.stats.snapshot`
and every RNIC SRAM cache's contents in LRU order with its counters;
then the scenario's outcomes.  Deliberately not compared:
``Simulator._seq`` (a commit enqueues fewer events),
``Snapshot.op_latency`` (derived from spans: ``None`` untraced),
``run.notes`` (mode-dependent observations a row reads) and
``Snapshot.fastpath``, the run's clusters' fast-path counters, which are
summed into ``Record.fp``, reported in every failure message and
checked only for their bookkeeping: every attempt is a commit or one
reject, and no mode but ``fast`` attempts.  (``mismodels`` is a row's
to check: a few residual ones are by design, e.g. in
``test_fastpath.py``'s mixed rows.)
"""

import dataclasses
import random

from repro.cluster import Cluster
from repro.core import LiteContext, LiteError, lite_boot, rpc_server_loop
from repro.fault import FaultInjector, FaultPlan
from repro.obs import install_tracer
from repro.stats import snapshot
from repro.verbs.fastpath import FastPathStats

__all__ = ["MODES", "Run", "Record", "check", "fp_counts",
           "fp_delta", "mixed_traffic", "rejects", "run", "sram_state"]

MODES = ("fast", "slow", "traced")


class Run:
    """One scenario run under one mode: the factory of its clusters."""

    def __init__(self, mode: str):
        assert mode in MODES, mode
        self.mode = mode
        self.clusters = []
        self.notes = {}     # never compared: what a row check reads

    def cluster(self, n_nodes: int, **kwargs) -> Cluster:
        cluster = Cluster(n_nodes, **kwargs)
        cluster.sim.fastpath_enabled = self.mode != "slow"
        if self.mode == "traced":
            install_tracer(cluster)
        self.clusters.append(cluster)
        return cluster


@dataclasses.dataclass
class Record:
    state: list         # per cluster: (sim.now, snapshot, SRAM state)
    outcomes: object
    fp: dict            # fast-path counters of the run: reported, not compared
    run: Run


def fp_counts(cluster) -> dict:
    """``cluster``'s fast-path counters, by name."""
    return dataclasses.asdict(snapshot(cluster).fastpath)


def fp_delta(cluster, before: dict) -> dict:
    """``cluster``'s fast-path counts since ``fp_counts(cluster)``
    returned ``before``."""
    return {name: count - before[name]
            for name, count in fp_counts(cluster).items()}


def rejects(delta: dict) -> int:
    return sum(count for name, count in delta.items()
               if name.startswith("rej_"))


def sram_state(cluster) -> list:
    """Exact contents (in LRU order) and counters of every SRAM cache."""
    out = []
    for node in cluster.nodes:
        rnic = node.rnic
        for cache in (rnic.qp_cache, rnic.key_cache, rnic.pte_cache):
            stats = cache.stats
            out.append((node.node_id, cache.name, list(cache._entries),
                        stats.hits, stats.misses, stats.evictions,
                        stats.installs))
    return out


def run(scenario, mode: str, **params) -> Record:
    """``scenario`` under ``mode``."""
    current = Run(mode)
    outcomes = scenario(current, **params)
    state, fp = [], dataclasses.asdict(FastPathStats())
    for cluster in current.clusters:
        snap = dataclasses.asdict(snapshot(cluster))
        del snap["op_latency"]
        for name, count in snap.pop("fastpath").items():
            fp[name] += count
        state.append((cluster.sim.now, snap, sram_state(cluster)))
    assert fp["attempts"] == fp["commits"] + rejects(fp), fp
    if mode != "fast":
        assert fp["attempts"] == 0, f"{mode} run attempted a commit: {fp}"
    return Record(state, outcomes, fp, current)


def _unordered(sram: list) -> list:
    return [(node, name, sorted(entries), *stats)
            for node, name, entries, *stats in sram]


def check(scenario, modes=("fast", "slow"), lru_order=True, **params) -> dict:
    """Run ``scenario`` under each mode; every record must equal the
    first.  ``lru_order=False`` compares SRAM contents as sets: only for
    the one known deviation (docs/INTERNALS.md §13, "Single-piece
    targets").  Returns ``{mode: Record}``."""
    records = {mode: run(scenario, mode, **params) for mode in modes}
    first, want = modes[0], records[modes[0]]
    for mode in modes[1:]:
        got = records[mode]
        fp = f"fast path {first}: {want.fp}; {mode}: {got.fp}"
        assert len(got.state) == len(want.state), "cluster count diverged"
        for index, (a, b) in enumerate(zip(want.state, got.state)):
            assert a[0] == b[0], f"cluster {index}: sim.now diverged ({fp})"
            assert a[1] == b[1], f"cluster {index}: snapshot diverged ({fp})"
            sram_a, sram_b = (a[2], b[2]) if lru_order else (
                _unordered(a[2]), _unordered(b[2]))
            assert sram_a == sram_b, f"cluster {index}: SRAM diverged ({fp})"
        assert want.outcomes == got.outcomes, f"outcomes diverged ({fp})"
    return records


# ---------------------------------------------------------------------------
# The scenario the trace suites drive directly
# ---------------------------------------------------------------------------
def mixed_traffic(run, seed=7, chaos=False, n_ops=32, drain_us=500.0):
    """A fig06/fig10-style mix on 3 nodes: one-sided writes and reads of
    8 B-4 KB (loopback included) and RPC round trips, with ``chaos`` a
    flapping data link plus 8% loss.  Outcomes: ``(label, start_us,
    latency_us)`` per completed op; ``run.notes["base"]`` is the
    snapshot taken before boot.  The sim runs ``drain_us`` past the
    driver so in-flight acks and retries quiesce."""
    cluster = run.cluster(3)
    run.notes["base"] = snapshot(cluster)
    kernels = lite_boot(cluster)
    sim = cluster.sim
    client = LiteContext(kernels[0], "mixc")
    server = LiteContext(kernels[1], "mixs")
    if chaos:
        plan = (FaultPlan()
                .link_flap(2, start_us=200.0, end_us=1500.0,
                           down_us=30.0, up_us=120.0)
                .packet_loss(0.08, start_us=100.0, end_us=2500.0))
        FaultInjector(cluster, plan, seed=seed).install()
    sim.process(rpc_server_loop(server, 1, lambda d: bytes(reversed(d))))
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
                elif kind == 1:
                    yield from client.lt_read(lh, 0, size)
                elif kind == 2:
                    yield from client.lt_rpc(2, 1, b"m" * size, max_reply=8192,
                                             timeout=3000.0, retries=4)
                else:
                    yield from client.lt_write(loop_lh, 0, b"l" * size)
            except LiteError:
                continue  # acceptable only under an active fault plan
            label = ("op.lt_write", "op.lt_read", "op.lt_rpc")[kind % 3]
            records.append((label, start, sim.now - start))

    cluster.run_process(driver())
    sim.run(until=sim.now + drain_us)
    return records
