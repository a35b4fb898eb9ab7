"""Per-layer metrics: every ``src/repro`` package measured from outside.

Four passes, none of them used for end-to-end numbers:

- *counter pass* — tracing off; deltas of the public counter surfaces
  over the timed region.  Also the wall-clock base of every ratio.
- *no-fast-path pass* — ``sim.fastpath_enabled = False``; must reproduce
  the counter pass's simulated results exactly, and its wall time over
  the counter pass's is ``verbs.fp_speedup_x``.
- *profile pass* — cProfile around the timed region, self time
  attributed to the ``src/repro`` package that owns each function.
- *sim-trace pass* — ``repro.obs.install_tracer`` (which forces the
  generator path); simulated us per op by section-5.3 stage.

Layers are the ``src/repro`` packages plus ``driver`` for perfbench's
own code.
"""

from __future__ import annotations

import cProfile
import os
import pstats
from types import SimpleNamespace

from repro.obs import aggregate_breakdown, install_tracer, write_jsonl
from repro.obs.export import ReplayTrace
from repro.stats import snapshot
from repro.verbs.fastpath import fp_stats

from harness import BenchError, percentile, require_same_sim, run_pass
from workloads import WORKLOADS

LAYERS = ("sim", "hw", "verbs", "core", "cluster", "recovery", "fault",
          "net", "apps", "workloads", "obs", "driver")

MODULES = ("sim.engine", "sim.resources", "hw.rnic", "hw.fabric",
           "hw.caches", "hw.memory", "verbs.fastpath", "verbs.qp",
           "core.api", "core.rdma", "core.rpc", "core.kernel")

# metric stem -> (module, function names summed)
ENTRIES = {
    "sim.run": ("sim.engine", ("run",)),
    "core.lt_write": ("core.api", ("lt_write",)),
    "core.lt_read": ("core.api", ("lt_read",)),
    "core.lt_rpc": ("core.api", ("lt_rpc",)),
    "core.lt_malloc": ("core.api", ("lt_malloc",)),
    "verbs.post_send": ("verbs.qp", ("post_send", "post_send_batch")),
    "verbs.try_fast": ("verbs.fastpath", ("try_fast_post", "try_fast_chain",
                                          "try_fast_post_vec")),
    "verbs.reg_mr": ("verbs.device", ("reg_mr",)),
}

# repro.obs.report category -> stage metric.  "nested op" and "other"
# (spans outside the section-5.3 vocabulary) fold into stage.uncovered
# so the stages still sum to the mean op latency.
STAGES = {
    "user-kernel crossings": "stage.syscall",
    "kernel metadata lookup": "stage.kernel_lookup",
    "post / QP window": "stage.post",
    "doorbell": "stage.doorbell",
    "transport (ack/order)": "stage.transport",
    "RNIC processing": "stage.rnic_proc",
    "DMA": "stage.dma",
    "wire serialization": "stage.wire",
    "propagation + switch": "stage.prop_switch",
    "completion": "stage.completion",
    "cpu compute": "stage.cpu",
    "reply wait / poll": "stage.wait",
    "RPC kernel stacks": "stage.rpc_stacks",
    "control-plane RPC": "stage.ctrl",
    "uncovered / wait": "stage.uncovered",
    "nested op": "stage.uncovered",
    "other": "stage.uncovered",
}

SEGMENTS = tuple(segment for workload in WORKLOADS.values()
                 for segment in workload.segments)

# Spans written per cluster after the sim-trace pass (the rest stay in
# memory only: a full micro_1c trace is ~140 MB of JSONL).
SPAN_SAMPLE = 20_000

# Paper anchors quoted in tools/collect_results.py PAPER_NOTES.  Every
# other simulated number here is unvalidated against hardware.
PAPER_LT_WRITE_US = 1.7
PAPER_LT_RPC_US = 6.95


def per_layer_units() -> dict:
    """Every per-layer metric name -> unit (0 is reported when idle)."""
    units = {}
    for layer in LAYERS:
        units[f"{layer}.self_s"] = "s"
        units[f"{layer}.calls"] = "count"
    for module in MODULES:
        units[f"{module}.self_s"] = "s"
    for stem in ENTRIES:
        units[f"{stem}.cum_s"] = "s"
        units[f"{stem}.calls"] = "count"
    units["driver.profile_overhead_x"] = "x"
    for name in ("fp_attempts", "fp_commits", "fp_mismodels",
                 "fp_table_builds"):
        units[f"verbs.{name}"] = "count"
    units["verbs.fp_commit_ratio"] = "ratio"
    units["verbs.fp_plan_hit_ratio"] = "ratio"
    units["verbs.fp_speedup_x"] = "x"
    for name in ("key_cache", "pte_cache", "qp_cache"):
        units[f"hw.{name}_hit_ratio"] = "ratio"
    units["hw.wqe_count"] = "count"
    units["hw.dma_bytes"] = "B"
    units["hw.tx_bytes"] = "B"
    units["hw.cpu_busy_us"] = "sim_us"
    units["hw.fabric_dropped"] = "count"
    units["sim.seq"] = "count"
    for name in ("lite_reads", "lite_writes", "rpcs_served", "rpc_retries"):
        units[f"core.{name}"] = "count"
    for name in ("pool_hits", "pool_misses", "pool_expiries"):
        units[f"cluster.{name}"] = "count"
    units["cluster.ttfo_hit_p50_us"] = "sim_us"
    units["cluster.ttfo_cold_p50_us"] = "sim_us"
    units["recovery.promotions"] = "count"
    units["recovery.rejoins"] = "count"
    units["recovery.unavail_p99_us"] = "sim_us"
    units["recovery.promotion_p99_us"] = "sim_us"
    units["apps.kv_onesided_get_ratio"] = "ratio"
    units["apps.kv_rpc_lookups"] = "count"
    units["apps.kv_validation_retries"] = "count"
    units["apps.mr_total_sim_us"] = "sim_us"
    units["apps.graph_total_sim_us"] = "sim_us"
    units["apps.log_commits_per_sim_ms"] = "1/sim_ms"
    for segment in SEGMENTS:
        units[f"seg.{segment}.host_us_per_op"] = "us"
    for stage in sorted(set(STAGES.values())):
        units[stage] = "sim_us"
    units["obs.tracer_overhead_x"] = "x"
    units["core.paper_err_pct.lt_write"] = "%"
    units["core.paper_err_pct.lt_rpc"] = "%"
    units["driver.fail_frac"] = "frac"
    return units


def per_layer(workload, inputs, out_dir: str):
    """Run the traced passes; returns (metrics, detail, counter pass)."""
    metrics = dict.fromkeys(per_layer_units(), 0)
    bases = {}
    run_pass(workload, inputs)  # warm-up

    raw = {}
    base = run_pass(
        workload, inputs,
        before=lambda state: raw.update(before=_raw_counters(state)),
        after=lambda state: raw.update(after=_raw_counters(state)))
    _counter_metrics(metrics, bases, raw, base)
    if hasattr(workload, "paper_probe"):
        write_us = (base.rec.segments["w64"]["sim_us"]
                    / base.rec.segments["w64"]["ops"])
        rpc_us = workload.paper_probe(base.state)
        metrics["core.paper_err_pct.lt_write"] = \
            100.0 * (write_us - PAPER_LT_WRITE_US) / PAPER_LT_WRITE_US
        metrics["core.paper_err_pct.lt_rpc"] = \
            100.0 * (rpc_us - PAPER_LT_RPC_US) / PAPER_LT_RPC_US
        bases["core.paper_err_pct.lt_write"] = (
            f"simulated {write_us:.4f} us vs paper ~{PAPER_LT_WRITE_US} us")
        bases["core.paper_err_pct.lt_rpc"] = (
            f"simulated {rpc_us:.4f} us (8 B -> 4 KB) vs paper "
            f"{PAPER_LT_RPC_US} us")
    base.release()

    slow = run_pass(workload, inputs, fastpath=False)
    require_same_sim(workload, base, slow, "no-fast-path pass")
    metrics["verbs.fp_speedup_x"] = slow.wall_s / base.wall_s
    bases["verbs.fp_speedup_x"] = (
        f"{slow.wall_s:.4f} s without / {base.wall_s:.4f} s with the fast "
        f"path, simulated results identical")
    del slow

    profiler = cProfile.Profile()
    profiled = run_pass(workload, inputs,
                        before=lambda state: profiler.enable(),
                        after=lambda state: profiler.disable())
    require_same_sim(workload, base, profiled, "profile pass")
    _profile_metrics(metrics, bases, pstats.Stats(profiler).stats)
    detail = {"ratio_bases": bases, "profiled_wall_s": profiled.wall_s}
    metrics["driver.profile_overhead_x"] = profiled.wall_s / base.wall_s
    bases["driver.profile_overhead_x"] = (
        f"{profiled.wall_s:.4f} s profiled / {base.wall_s:.4f} s plain")
    del profiled, profiler

    tracers = []
    traced = run_pass(
        workload, inputs,
        before=lambda state: tracers.extend(
            install_tracer(cluster) for cluster in state.clusters))
    require_same_sim(workload, base, traced, "sim-trace pass")
    metrics["obs.tracer_overhead_x"] = traced.wall_s / base.wall_s
    bases["obs.tracer_overhead_x"] = (
        f"{traced.wall_s:.4f} s traced / {base.wall_s:.4f} s untraced, "
        f"simulated results identical")
    traced.release()
    _stage_metrics(metrics, bases, tracers)
    # Spans stay in memory until the pass has ended.
    os.makedirs(out_dir, exist_ok=True)
    for index, tracer in enumerate(tracers):
        write_jsonl(
            SimpleNamespace(spans=tracer.spans[:SPAN_SAMPLE]),
            os.path.join(out_dir,
                         f"{workload.name}.cluster{index}.spans.jsonl"))
    return metrics, detail, base


# ------------------------------------------------------------ counter pass --

def _raw_counters(state) -> dict:
    """Summed public counters of every cluster a workload built."""
    out = {"key": [0, 0], "pte": [0, 0], "qp": [0, 0], "wqe": 0, "dma": 0,
           "tx": 0, "cpu": 0.0, "dropped": 0, "seq": 0, "reads": 0,
           "writes": 0, "served": 0, "retried": 0, "kv_onesided": 0,
           "kv_lookups": 0, "kv_retries": 0}
    for cluster in state.clusters:
        snap = snapshot(cluster)
        for node in snap.nodes.values():
            out["key"][0] += node.key_cache_hits
            out["key"][1] += node.key_cache_misses
            out["pte"][0] += node.pte_cache_hits
            out["pte"][1] += node.pte_cache_misses
            out["qp"][0] += node.qp_cache_hits
            out["qp"][1] += node.qp_cache_misses
            out["wqe"] += node.wqe_count
            out["dma"] += node.dma_bytes
            out["tx"] += node.tx_bytes
            out["cpu"] += node.total_cpu
            out["reads"] += node.lite_reads
            out["writes"] += node.lite_writes
            out["served"] += node.lite_rpcs_served
        out["dropped"] += cluster.fabric.dropped_transfers
        out["seq"] += cluster.sim._seq
        for node in cluster.nodes:
            if node.lite is not None and node.lite.booted:
                out["retried"] += node.lite.rpc.calls_retried
    for client in getattr(state, "kv_clients", ()):
        out["kv_onesided"] += client.onesided_gets
        out["kv_lookups"] += client.rpc_lookups
        out["kv_retries"] += client.validation_retries
    out["fp"] = {name: getattr(fp_stats, name) for name in fp_stats.__slots__}
    return out


def _ratio(hits: int, total: int, idle: float) -> float:
    return hits / total if total else idle


def _counter_metrics(metrics, bases, raw, base) -> None:
    before, after = raw["before"], raw["after"]

    def delta(key):
        return after[key] - before[key]

    fp = {name: after["fp"][name] - before["fp"][name]
          for name in after["fp"]}
    attempts = fp["attempts"] + fp["vec_attempts"] + fp["chain_attempts"]
    commits = fp["commits"] + fp["vec_commits"] + fp["chain_commits"]
    plans = fp["plan_hits"] + fp["plan_builds"]
    metrics["verbs.fp_attempts"] = attempts
    metrics["verbs.fp_commits"] = commits
    metrics["verbs.fp_commit_ratio"] = _ratio(commits, attempts, 0.0)
    bases["verbs.fp_commit_ratio"] = f"{commits} commits / {attempts} attempts"
    metrics["verbs.fp_mismodels"] = fp["mismodels"]
    metrics["verbs.fp_plan_hit_ratio"] = _ratio(fp["plan_hits"], plans, 0.0)
    bases["verbs.fp_plan_hit_ratio"] = (
        f"{fp['plan_hits']} hits / {plans} plan lookups")
    metrics["verbs.fp_table_builds"] = fp["table_builds"]

    for cache in ("key", "pte", "qp"):
        hits = after[cache][0] - before[cache][0]
        total = hits + after[cache][1] - before[cache][1]
        metrics[f"hw.{cache}_cache_hit_ratio"] = _ratio(hits, total, 1.0)
        bases[f"hw.{cache}_cache_hit_ratio"] = f"{hits} hits / {total} lookups"
    metrics["hw.wqe_count"] = delta("wqe")
    metrics["hw.dma_bytes"] = delta("dma")
    metrics["hw.tx_bytes"] = delta("tx")
    metrics["hw.cpu_busy_us"] = delta("cpu")
    metrics["hw.fabric_dropped"] = delta("dropped")
    # Enqueue counter *including* fast-path padding: not a work count.
    metrics["sim.seq"] = delta("seq")
    metrics["core.lite_reads"] = delta("reads")
    metrics["core.lite_writes"] = delta("writes")
    metrics["core.rpcs_served"] = delta("served")
    metrics["core.rpc_retries"] = delta("retried")

    rec = base.rec
    extra = rec.extra
    if "churn" in extra:
        stats = extra["churn"]
        metrics["cluster.pool_hits"] = stats.hits
        metrics["cluster.pool_misses"] = stats.misses
        metrics["cluster.pool_expiries"] = stats.expiries
        metrics["cluster.ttfo_hit_p50_us"] = stats.median_ttfo("hit") or 0
        metrics["cluster.ttfo_cold_p50_us"] = stats.median_ttfo("cold") or 0
    if "recovery" in extra:
        recovery = extra["recovery"]
        metrics["recovery.promotions"] = recovery.promotions
        metrics["recovery.rejoins"] = recovery.rejoins
        for key, samples in (
                ("recovery.unavail_p99_us", recovery.unavailability_samples),
                ("recovery.promotion_p99_us", recovery.promotion_samples)):
            if samples:
                metrics[key] = percentile(sorted(samples), 99.0)
                bases[key] = f"{len(samples)} samples"
    onesided, lookups = delta("kv_onesided"), delta("kv_lookups")
    metrics["apps.kv_onesided_get_ratio"] = \
        _ratio(onesided, onesided + lookups, 0.0)
    bases["apps.kv_onesided_get_ratio"] = (
        f"{onesided} one-sided GETs / {onesided + lookups} GET paths")
    metrics["apps.kv_rpc_lookups"] = lookups
    metrics["apps.kv_validation_retries"] = delta("kv_retries")
    metrics["apps.mr_total_sim_us"] = extra.get("mr_total_us", 0)
    metrics["apps.graph_total_sim_us"] = extra.get("graph_total_us", 0)
    if "litelog" in rec.segments:
        log = rec.segments["litelog"]
        metrics["apps.log_commits_per_sim_ms"] = \
            log["ops"] / (log["sim_us"] / 1000.0)
    for name, seg in rec.segments.items():
        metrics[f"seg.{name}.host_us_per_op"] = \
            1e6 * seg["wall_s"] / seg["ops"]
    metrics["driver.fail_frac"] = rec.failed / rec.ops
    bases["driver.fail_frac"] = f"{rec.failed} failed / {rec.ops} attempted"


# ------------------------------------------------------------ profile pass --

_REPRO = os.sep + os.path.join("src", "repro") + os.sep
_HERE = os.path.dirname(os.path.abspath(__file__)) + os.sep


def _module_of(func):
    """'sim.engine'-style module of a profiled function, 'driver' for
    perfbench's own files, None for builtins, stdlib and loose modules
    (their time is charged to whoever called them)."""
    filename = func[0]
    if filename.startswith(_HERE):
        return "driver"
    cut = filename.rfind(_REPRO)
    if cut < 0:
        return None
    parts = filename[cut + len(_REPRO):-len(".py")].split(os.sep)
    if len(parts) < 2 or parts[0] not in LAYERS:
        return None
    return ".".join(parts[:2])


def _profile_metrics(metrics, bases, stats) -> None:
    """Attribute every profiled second to exactly one layer.

    ``stats`` maps func -> (cc, nc, tt, ct, callers); ``callers`` maps
    each caller to the (cc, nc, tt, ct) it caused.  A function outside
    any layer (builtin, stdlib) hands its self time to its callers'
    layers along those edges, recursively, so the shares sum to 1.
    """
    module_of = {func: _module_of(func) for func in stats}
    memo = {}

    def share_of(func, trail):
        """Layer -> fraction of ``func``'s self time it should carry."""
        module = module_of.get(func)
        if module is not None:
            return {module.split(".")[0]: 1.0}
        if func in memo:
            return memo[func]
        callers = stats[func][4] if func in stats else {}
        weights = {}
        total = 0.0
        if func not in trail:
            for caller, edge in callers.items():
                weight = edge[2] if edge[2] > 0 else 0.0
                if caller == func or weight == 0.0:
                    continue
                total += weight
                for layer, part in share_of(caller, trail | {func}).items():
                    weights[layer] = weights.get(layer, 0.0) + weight * part
        if total == 0.0:
            # A root (the profiler hook itself) or a stdlib cycle.
            result = {"driver": 1.0}
        else:
            result = {layer: w / total for layer, w in weights.items()}
        if not trail:
            memo[func] = result
        return result

    self_s = dict.fromkeys(LAYERS, 0.0)
    calls = dict.fromkeys(LAYERS, 0)
    module_s = dict.fromkeys(MODULES, 0.0)
    for func, (_cc, nc, tt, _ct, _callers) in stats.items():
        module = module_of[func]
        if module is not None:
            layer = module.split(".")[0]
            self_s[layer] += tt
            calls[layer] += nc
            if module in module_s:
                module_s[module] += tt
        else:
            for layer, part in share_of(func, frozenset()).items():
                self_s[layer] += tt * part
    total = sum(self_s.values())
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = self_s[layer]
        metrics[f"{layer}.calls"] = calls[layer]
        bases[f"{layer}.self_s"] = (
            f"{100.0 * self_s[layer] / total:.1f}% of {total:.4f} s profiled")
    for module, seconds in module_s.items():
        metrics[f"{module}.self_s"] = seconds
    for stem, (module, names) in ENTRIES.items():
        for func, (_cc, nc, _tt, ct, _callers) in stats.items():
            if module_of[func] == module and func[2] in names:
                metrics[f"{stem}.cum_s"] += ct
                metrics[f"{stem}.calls"] += nc


# ---------------------------------------------------------- sim-trace pass --

class _OpTrace(ReplayTrace):
    """A finished trace as ``aggregate_breakdown`` wants it, with the
    children index built once instead of once per op, and — for native
    Verbs runs, which open no ``op.*`` span — every parentless span
    standing in as an op."""

    def __init__(self, spans):
        super().__init__(spans)
        self._index = ReplayTrace.children_index(self)
        self._roots = [s for s in spans if s.name.startswith("op.")] or [
            s for s in spans
            if s.parent is None and s.end is not None and s.end > s.start]

    def children_index(self):
        return self._index

    def op_roots(self):
        return self._roots


def _stage_metrics(metrics, bases, tracers) -> None:
    totals = {}
    n_ops = 0
    for tracer in tracers:
        breakdown, count = aggregate_breakdown(_OpTrace(tracer.spans))
        for category, mean_us in breakdown.items():
            stage = STAGES.get(category, "stage.uncovered")
            totals[stage] = totals.get(stage, 0.0) + mean_us * count
        n_ops += count
    if not n_ops:
        raise BenchError("sim-trace pass recorded no op spans")
    for stage, total_us in totals.items():
        metrics[stage] = total_us / n_ops
        bases[stage] = f"mean over {n_ops} traced top-level ops"
