"""Determinism and robustness properties of the whole stack.

A discrete-event simulation must be exactly reproducible: same inputs,
same event order, same timestamps, same data.  These tests pin that
down end-to-end, plus stress the engine with randomized process graphs.
"""

import ast
import dataclasses
import os
import pathlib
import random
import re
import subprocess
import sys

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import Cluster
from repro.core import LiteContext, lite_boot, rpc_server_loop
from repro.sim import Simulator
from repro.stats import snapshot
from repro.workloads import generate_corpus
from tests import ab


def _lite_rpc_workload(seed: int, mode=None):
    """A booted cluster and its mixed-workload driver, not yet run;
    returns (cluster, driver process, trace).  The trace records the
    LMR and handle ids the cluster handed out, then (time, reply).
    ``mode`` is an ``ab.MODES`` entry to set on the simulator."""
    cluster = ab.Run(mode).cluster(3) if mode else Cluster(3)
    kernels = lite_boot(cluster)
    sim = cluster.sim
    client = LiteContext(kernels[0], "c")
    server = LiteContext(kernels[1], "s")
    sim.process(rpc_server_loop(server, 1, lambda d: bytes(reversed(d))))
    trace = []
    rng = random.Random(seed)

    def driver():
        yield sim.timeout(1)
        lh = yield from client.lt_malloc(4096, nodes=3)
        trace.append((lh.mapping.lmr_id, lh.lh_id))
        pool = kernels[0].qp_pool(kernels[1].lite_id, lease_ttl_us=20.0)
        yield from pool.acquire(1)      # nothing parked: a miss
        pool.release(1)
        yield from pool.acquire(2)      # the conn session 1 parked: a hit
        yield sim.timeout(25.0)
        pool.sweep()                    # session 2's lease ran out
        for index in range(30):
            yield sim.timeout(rng.random() * 10)
            if index % 3 == 0:
                reply = yield from client.lt_rpc(
                    2, 1, f"m{index}".encode(), max_reply=64
                )
                trace.append((round(sim.now, 6), reply))
            elif index % 3 == 1:
                yield from client.lt_write(lh, index, bytes([index]))
                trace.append((round(sim.now, 6), b"w"))
            else:
                data = yield from client.lt_read(lh, index - 1, 1)
                trace.append((round(sim.now, 6), data))

    return cluster, sim.process(driver()), trace


def _lite_rpc_trace(seed: int):
    cluster, driver, trace = _lite_rpc_workload(seed)
    cluster.run(stop=driver)
    return trace


def test_identical_seeds_produce_identical_traces():
    """Same seed -> identical ids, data and timestamps, however many
    clusters the process built before."""
    assert _lite_rpc_trace(7) == _lite_rpc_trace(7)


def test_different_seeds_differ():
    times_a = [t for t, _d in _lite_rpc_trace(7)[1:]]
    times_b = [t for t, _d in _lite_rpc_trace(8)[1:]]
    assert times_a != times_b


def test_interleaved_clusters_match_their_solo_runs():
    """Ids and counters belong to the simulator: two clusters built and
    advanced in alternating ``sim.run(until=...)`` steps in one process
    each end exactly as they end alone — instant, snapshot (its
    fast-path attempts, commits and rejects and its QP pool hits,
    misses and expiries included) and outcomes."""

    def result(cluster, trace):
        return (cluster.sim.now, dataclasses.asdict(snapshot(cluster)),
                trace)

    solo = []
    for seed in (7, 8):
        cluster, driver, trace = _lite_rpc_workload(seed, "fast")
        cluster.run(stop=driver)
        solo.append(result(cluster, trace))
    assert all(snap["fastpath"]["commits"] > 0 for _, snap, _ in solo), (
        "both runs must exercise the fast path")
    assert all(
        [snap["nodes"][0][name] for name in ("pool_hits", "pool_misses",
                                             "pool_expiries")] == [1, 1, 1]
        for _, snap, _ in solo), "both runs must move the QP pool counters"
    runs = [_lite_rpc_workload(seed, "fast") for seed in (7, 8)]
    ends = [now for now, _, _ in solo]
    for until in range(5, int(max(ends)), 5):
        for (cluster, _, _), end in zip(runs, ends):
            if cluster.sim.now < until < end:
                cluster.run(until=until)
    for cluster, driver, _ in runs:
        cluster.run(stop=driver)
    assert [result(cluster, trace) for cluster, _, trace in runs] == solo


def test_empty_fault_plan_is_zero_cost():
    """An installed-but-empty FaultPlan must not perturb the event
    stream: timestamps and data stay byte-identical."""
    from repro.apps.kvstore import LiteKVClient, LiteKVServer
    from repro.fault import FaultInjector, FaultPlan

    def run_once(inject: bool):
        cluster = Cluster(3)
        kernels = lite_boot(cluster)
        if inject:
            FaultInjector(cluster, FaultPlan(), seed=99).install()
            assert cluster.fabric.fault is None  # hook never armed
        servers = [LiteKVServer(kernels[1], 0), LiteKVServer(kernels[2], 1)]

        def setup():
            for server in servers:
                yield from server.start()
            yield cluster.sim.timeout(1)

        cluster.run_process(setup())
        client = LiteKVClient(kernels[0], servers)
        trace = []

        def proc():
            for index in range(25):
                key = b"key-%d" % (index % 9)
                yield from client.put(key, b"value-%d" % index)
                value = yield from client.get(key)
                trace.append((cluster.sim.now, value))

        cluster.run_process(proc())
        return trace, cluster.sim.now

    assert run_once(False) == run_once(True)  # timestamps exactly equal


def test_full_app_run_is_deterministic():
    from repro.apps.mapreduce import LiteMR

    corpus = generate_corpus(24, 100, vocab_size=200, seed=3)

    def run_once():
        cluster = Cluster(3)
        kernels = lite_boot(cluster)
        engine = LiteMR(kernels, total_threads=4)
        result = cluster.run_process(engine.run(corpus))
        return engine.phase_times["total"], result

    assert run_once() == run_once()


def test_ten_jobs_in_one_process_get_the_same_name_and_final_instant():
    """The job name travels in control messages, and it comes from the
    cluster's own counter: the tenth job of a process is ``mrjob1`` of
    its cluster, not ``mrjob10``, and costs no extra byte on the wire."""
    from repro.apps.mapreduce import LiteMR

    corpus = generate_corpus(8, 40, vocab_size=50, seed=3)

    def run_once():
        cluster = Cluster(3)
        kernels = lite_boot(cluster)
        engine = LiteMR(kernels, total_threads=4)
        cluster.run_process(engine.run(corpus))
        return engine.job, cluster.sim.now

    runs = [run_once() for _ in range(10)]
    assert runs[0][0] == "mrjob1"
    assert set(runs) == {runs[0]}


_SHARD_PROBE = """
from collections import Counter
from repro.apps.kvstore import kv_shard_of
from repro.apps.mapreduce.common import partition_counts
keys = [b"key%d" % i for i in range(64)]
print([kv_shard_of(key, 4) for key in keys])
print([sorted(part) for part in partition_counts(Counter(keys), 4)])
"""


def test_sharding_does_not_depend_on_the_hash_seed():
    """KV shards and MapReduce partitions are a function of the key
    bytes alone: two interpreters with different hash seeds place every
    key identically."""
    def placement(hash_seed):
        return subprocess.run(
            [sys.executable, "-c", _SHARD_PROBE], capture_output=True,
            text=True, check=True, timeout=60,
            env=dict(os.environ, PYTHONHASHSEED=hash_seed)).stdout

    assert placement("1") == placement("2")


def _declared_counters(root: pathlib.Path):
    """Every process-global id counter declared under ``root``, as
    (module path, class or None, attribute): module- and class-level
    ``itertools.count(...)`` assignments, plus class-level int
    attributes named like one (``_next_id``, ``*_counter``)."""
    found = []
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text())
        scopes = [(None, tree.body)] + [
            (node.name, node.body) for node in tree.body
            if isinstance(node, ast.ClassDef)]
        for cls, body in scopes:
            for stmt in body:
                if not (isinstance(stmt, ast.Assign)
                        and isinstance(stmt.targets[0], ast.Name)):
                    continue
                name, value = stmt.targets[0].id, stmt.value
                func = getattr(value, "func", None)
                is_count = getattr(func, "attr", getattr(func, "id", None)) == "count"
                if is_count or (cls is not None
                                and isinstance(value, ast.Constant)
                                and type(value.value) is int
                                and re.search(r"(_next_id|_counter)$", name)):
                    found.append((path.relative_to(root).as_posix(), cls, name))
    return found


def test_no_process_global_id_counters(tmp_path):
    """Ids come from ``sim.ids``: a counter shared by the whole process
    would shift id digit counts — and so wire timing — between two
    clusters of one process.  The walk itself must see the shapes it
    guards against."""
    import repro

    planted = tmp_path / "planted.py"
    planted.write_text("import itertools\n_keys = itertools.count(1000)\n"
                       "class Wr:\n    _next_id = 0\n")
    assert _declared_counters(tmp_path) == [
        ("planted.py", None, "_keys"), ("planted.py", "Wr", "_next_id")]
    assert _declared_counters(pathlib.Path(repro.__file__).parent) == []


def test_every_simparams_field_has_a_reader():
    """ROADMAP 9: a knob that loses its last reader must not linger as
    a cost input nothing prices.  Every ``SimParams`` dataclass field
    is read as an attribute somewhere under ``src/repro`` — the field
    declarations in ``hw/params.py`` are names, not attribute loads, so
    only its price list (``Prices`` reads every stage knob) counts
    there."""
    import dataclasses

    import repro
    from repro.hw.params import SimParams

    root = pathlib.Path(repro.__file__).parent
    read = set()
    for path in sorted(root.rglob("*.py")):
        read.update(
            node.attr for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load))
    fields = {f.name for f in dataclasses.fields(SimParams)}
    assert len(fields) >= 60, "the walk must find the known knobs"
    assert not sorted(fields - read), (
        f"SimParams fields nothing reads: {sorted(fields - read)}")


# The knobs a §5.3 stage price is computed from.
STAGE_KNOBS = frozenset({
    "rnic_wqe_process_us", "rnic_doorbell_us", "rnic_completion_us",
    "rnic_ack_us", "rnic_dma_setup_us", "rnic_dma_bytes_per_us",
    "rnic_ud_header_bytes", "link_bandwidth_bytes_per_us",
    "link_propagation_us", "switch_latency_us",
})


def test_stage_knobs_are_read_only_by_the_price_list():
    """One price list: every stage duration is computed in
    ``hw/params.py`` (``SimParams.prices``), and both executors and
    ``explain()`` read the result.  A stage knob read anywhere else
    under ``src/repro`` is a second copy of the cost model."""
    import repro

    root = pathlib.Path(repro.__file__).parent
    readers = []
    for path in sorted(root.rglob("*.py")):
        rel = path.relative_to(root).as_posix()
        if rel == "hw/params.py":
            continue
        readers.extend(
            f"{rel}:{node.lineno} .{node.attr}"
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load) and node.attr in STAGE_KNOBS)
    assert not readers, (
        "stage knobs read outside hw/params.py (read params.prices "
        f"instead): {readers}")


# The price list's stage members: what a stage of a timeline costs.
STAGE_PRICES = frozenset({"doorbell", "occupancy", "ser", "prop", "ack",
                          "completion"})
# Where they are read: the price list itself, the one timeline, and the
# generator path, which waits each stage as it walks the hardware (its
# traced spans are pinned to the timeline by
# tests/test_verbs.py::test_generator_stage_spans_follow_the_timeline).
STAGE_PRICE_READERS = frozenset({
    "hw/params.py", "verbs/timeline.py",
    "verbs/qp.py", "verbs/device.py", "hw/rnic.py", "hw/fabric.py",
})


def test_stage_order_has_one_source():
    """One timeline per opcode: the order of an op's stages is written
    in ``verbs/timeline.py`` alone.  ``explain()`` and the fast path's
    commit read it and no stage price of their own; nothing but the
    price list, the timeline and the generator path reads a stage price
    off ``prices``."""
    import repro

    root = pathlib.Path(repro.__file__).parent
    readers = []
    for path in sorted(root.rglob("*.py")):
        rel = path.relative_to(root).as_posix()
        if rel in STAGE_PRICE_READERS:
            continue
        readers.extend(
            f"{rel}:{node.lineno} .{node.attr}"
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load) and node.attr in STAGE_PRICES)
    assert not readers, (
        "stage prices read outside the timeline (read "
        f"repro.verbs.timeline.timeline instead): {readers}")
    assert "verbs/fastpath.py" not in STAGE_PRICE_READERS
    timeline = ast.parse((root / "verbs/timeline.py").read_text())
    (explain,) = [node for node in timeline.body
                  if isinstance(node, ast.FunctionDef)
                  and node.name == "explain"]
    assert not [node.attr for node in ast.walk(explain)
                if isinstance(node, ast.Attribute)
                and node.attr in STAGE_PRICES], "explain() maps timeline()"


# ------------------------------------------------ trace determinism --


def _traced(seed, chaos=False):
    """The shared mixed workload traced from boot.  Callers hold the
    returned record: a collected cluster closes its pollers' generators,
    whose ``finally`` would end their open wait spans mid-comparison."""
    from tests import ab

    return ab.run(ab.mixed_traffic, "traced", seed=seed, chaos=chaos)


def _tracer(record):
    return record.run.clusters[0].sim.tracer


def test_trace_jsonl_byte_identical_across_runs():
    """Two same-seed traced runs export byte-identical JSONL."""
    from repro.obs import to_jsonl

    run_a, run_b = _traced(7), _traced(7)
    assert run_a.outcomes == run_b.outcomes
    assert to_jsonl(_tracer(run_a)) == to_jsonl(_tracer(run_b))


def test_trace_jsonl_byte_identical_under_faults():
    """Trace determinism survives an active seeded FaultPlan: drops,
    retries, and late spans land identically in both runs."""
    from repro.obs import to_jsonl

    run_a, run_b = _traced(11, chaos=True), _traced(11, chaos=True)
    jsonl_a, jsonl_b = to_jsonl(_tracer(run_a)), to_jsonl(_tracer(run_b))
    assert "dropped" in jsonl_a or "err:" in jsonl_a  # faults visible
    assert jsonl_a == jsonl_b


def test_trace_chrome_export_deterministic():
    import json

    from repro.obs import to_chrome_trace

    run_a, run_b = _traced(7), _traced(7)
    dump = lambda r: json.dumps(to_chrome_trace(_tracer(r)),
                                separators=(",", ":"))
    assert dump(run_a) == dump(run_b)


def test_trace_metrics_summary_deterministic():
    """Two same-seed traced runs derive identical op-latency
    histograms from their spans."""
    def op_latency(record):
        hists = snapshot(record.run.clusters[0]).op_latency
        return {name: (h.counts, h.count, h.total, h.min, h.max)
                for name, h in hists.items()}

    run_a, run_b = _traced(7), _traced(7)
    latency_a = op_latency(run_a)
    assert latency_a["op.lt_write"][1] > 0
    assert latency_a == op_latency(run_b)


def test_trace_different_seeds_differ():
    from repro.obs import to_jsonl

    run_a, run_b = _traced(7), _traced(8)
    assert to_jsonl(_tracer(run_a)) != to_jsonl(_tracer(run_b))


# --------------------------------------------- engine stress property --


@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_property_random_process_graphs_keep_time_monotone(data):
    """Random fork/join/timeout graphs: the clock never goes backwards
    and every spawned process completes."""
    sim = Simulator()
    observations = []
    spawned = []

    def worker(depth):
        steps = data.draw(st.integers(min_value=1, max_value=4))
        for _ in range(steps):
            observations.append(sim.now)
            choice = data.draw(st.integers(min_value=0, max_value=2))
            if choice == 0 or depth >= 3:
                yield sim.timeout(data.draw(
                    st.floats(min_value=0, max_value=5,
                              allow_nan=False)))
            elif choice == 1:
                child = sim.process(worker(depth + 1))
                spawned.append(child)
                yield child
            else:
                children = [sim.process(worker(depth + 1))
                            for _ in range(2)]
                spawned.extend(children)
                yield sim.all_of(children)
        observations.append(sim.now)

    root = sim.process(worker(0))
    spawned.append(root)
    sim.run()
    assert all(b >= a for a, b in zip(observations, observations[1:]))
    assert all(proc.processed for proc in spawned)


@given(delays=st.lists(
    st.floats(min_value=0, max_value=100, allow_nan=False),
    min_size=1, max_size=50,
))
@settings(max_examples=50, deadline=None)
def test_property_timeouts_fire_in_sorted_order(delays):
    sim = Simulator()
    fired = []

    def waiter(delay):
        yield sim.timeout(delay)
        fired.append(delay)

    for delay in delays:
        sim.process(waiter(delay))
    sim.run()
    assert fired == sorted(delays)
