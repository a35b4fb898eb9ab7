"""Determinism and robustness properties of the whole stack.

A discrete-event simulation must be exactly reproducible: same inputs,
same event order, same timestamps, same data.  These tests pin that
down end-to-end, plus stress the engine with randomized process graphs.
"""

import ast
import importlib
import itertools
import pathlib
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import Cluster
from repro.core import LiteContext, lite_boot, rpc_server_loop
from repro.sim import Simulator
from repro.workloads import generate_corpus


def _lite_rpc_trace(seed: int):
    """A mixed workload; returns (timestamps, replies)."""
    cluster = Cluster(3)
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

    cluster.run_process(driver())
    return trace


def test_identical_seeds_produce_identical_traces():
    """Same seed -> byte-identical data; timestamps match to <0.5%
    (global object-id counters change wire-message digit counts between
    runs, which is the only tolerated drift)."""
    trace_a = _lite_rpc_trace(7)
    trace_b = _lite_rpc_trace(7)
    assert [d for _t, d in trace_a] == [d for _t, d in trace_b]
    for (ta, _), (tb, _) in zip(trace_a, trace_b):
        assert tb == pytest.approx(ta, rel=5e-3)


def test_different_seeds_differ():
    times_a = [t for t, _d in _lite_rpc_trace(7)]
    times_b = [t for t, _d in _lite_rpc_trace(8)]
    assert times_a != times_b


def test_empty_fault_plan_is_zero_cost():
    """An installed-but-empty FaultPlan must not perturb the event
    stream: timestamps and data stay byte-identical.

    Uses the KV store (its wire messages carry no global object-id
    counters, so runs are *exactly* reproducible in-process — see the
    §7 note in docs/INTERNALS.md for why the RPC trace above is not).
    """
    from repro.apps.kvstore import LiteKVClient, LiteKVServer
    from repro.determinism import reset_global_counters
    from repro.fault import FaultInjector, FaultPlan

    def run_once(inject: bool):
        # Pin the global object-id counters so both runs see identical
        # wire-message digit counts regardless of what ran before.
        reset_global_counters()
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

    trace_plain, now_plain = run_once(False)
    trace_inj, now_inj = run_once(True)
    assert trace_plain == trace_inj  # timestamps exactly equal
    assert now_plain == now_inj


def test_full_app_run_is_deterministic():
    from repro.apps.mapreduce import LiteMR

    corpus = generate_corpus(24, 100, vocab_size=200, seed=3)

    def run_once():
        cluster = Cluster(3)
        kernels = lite_boot(cluster)
        engine = LiteMR(kernels, total_threads=4)
        result = cluster.run_process(engine.run(corpus))
        return engine.phase_times["total"], result

    t1, r1 = run_once()
    t2, r2 = run_once()
    assert r1 == r2                       # identical answers, always
    assert t2 == pytest.approx(t1, rel=5e-3)  # timing drift < 0.5%


def test_reset_global_counters_rewinds_job_names():
    """The job name travels in control messages, so the tenth job of a
    process (``mrjob10``) would cost a byte more on the wire than the
    first nine unless the reset rewinds the apps' job counters too."""
    from repro.apps.dsm.graphdsm import LiteGraphDsm
    from repro.apps.graph.litegraph import LiteGraph
    from repro.apps.mapreduce import LiteMR
    from repro.determinism import reset_global_counters

    corpus = generate_corpus(8, 40, vocab_size=50, seed=3)

    def run_once():
        reset_global_counters()
        cluster = Cluster(3)
        kernels = lite_boot(cluster)
        engine = LiteMR(kernels, total_threads=4)
        cluster.run_process(engine.run(corpus))
        return engine.job, cluster.sim.now

    runs = [run_once() for _ in range(10)]
    assert set(runs) == {runs[0]}  # same name, same final instant
    LiteGraph._job_counter = LiteGraphDsm._job_counter = 7
    reset_global_counters()
    assert LiteGraph._job_counter == LiteGraphDsm._job_counter == 0


def _declared_counters():
    """Every process-global id counter ``src/repro`` declares, as
    (module, class or None, attribute, import-time value): module- and
    class-level ``itertools.count(...)`` assignments, plus class-level
    int attributes named like one (``_next_id``, ``*_counter``)."""
    import repro

    def count_start(value):
        func = getattr(value, "func", None)
        if getattr(func, "attr", getattr(func, "id", None)) != "count":
            return None
        args = value.args + [kw.value for kw in value.keywords]
        return itertools.count(ast.literal_eval(args[0]) if args else 0)

    root = pathlib.Path(repro.__file__).parent
    found = []
    for path in sorted(root.rglob("*.py")):
        parts = ("repro",) + path.relative_to(root).with_suffix("").parts
        module = ".".join(part for part in parts if part != "__init__")
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
                initial = count_start(value)
                if (initial is None and cls is not None
                        and isinstance(value, ast.Constant)
                        and type(value.value) is int
                        and re.search(r"(_next_id|_counter)$", name)):
                    initial = value.value
                if initial is not None:
                    found.append((module, cls, name, initial))
    return found


def test_reset_global_counters_rewinds_every_declared_counter():
    """ROADMAP 6b: a counter that escapes ``reset_global_counters()``
    shifts id digit counts — and so wire timing — between two clusters
    of one process.  Disturb every counter the source declares, reset,
    and require each back at its import-time value."""
    from repro.determinism import reset_global_counters

    counters = _declared_counters()
    assert len(counters) >= 19, "the walk must find the known counters"
    owners = []
    for module, cls, name, initial in counters:
        owner = importlib.import_module(module)
        if cls is not None:
            owner = getattr(owner, cls)
        owners.append(owner)
        if isinstance(initial, int):
            setattr(owner, name, getattr(owner, name) + 7)
        else:
            next(getattr(owner, name))
    reset_global_counters()
    escaped = [
        f"{module}:{cls + '.' if cls else ''}{name}"
        for owner, (module, cls, name, initial) in zip(owners, counters)
        if repr(getattr(owner, name)) != repr(initial)]
    assert not escaped, (
        f"not rewound by reset_global_counters(): {escaped}")


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
    """Two same-seed traced runs export byte-identical JSONL (the
    global object-id counters are reset per run, so even wire-message
    digit counts match exactly)."""
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
    run_a, run_b = _traced(7), _traced(7)
    summary_a = _tracer(run_a).metrics.summary()
    assert "span.op.lt_write" in summary_a["counters"]
    assert summary_a == _tracer(run_b).metrics.summary()


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
