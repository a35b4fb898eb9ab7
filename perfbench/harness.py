"""Pass runner and end-to-end metrics.

A *pass* is one fresh build of a workload's cluster(s) (clocked as
set-up) followed by its timed region.  The end-to-end run makes one
discarded warm-up pass and then at least five timed passes; every
host-time metric is the median over the timed passes, and every
simulated-time metric must repeat bit-for-bit across them.
"""

from __future__ import annotations

import gc
import math
import os
import platform
import random
import resource
import statistics
import time

from repro.determinism import reset_global_counters
from repro.verbs.fastpath import fp_stats

from workloads import (
    DEFAULT_SEED,
    FROZEN_DIGESTS,
    WORKLOADS_VERSION,
    Recorder,
    input_digest,
)

MIN_PASSES = 5
MAX_PASSES = 9

# name -> unit.  BENCHMARK.json repeats these with direction and bound;
# selfcheck --smoke fails when the two disagree.  "sim_us" / "sim_ms" are
# simulated time (what the modelled hardware would take); plain "s" and
# "us" are always host time (what the simulator takes to run).
END_TO_END = {
    "setup_s": "s",
    "host_ops_per_s": "1/s",
    "peak_rss_mb": "MB",
    "sim_p50_us": "sim_us",
    "sim_p99_us": "sim_us",
    "sim_ops_per_ms": "1/sim_ms",
    "ok_frac": "frac",
}


class BenchError(Exception):
    """The benchmark cannot produce a trustworthy result."""


class Pass:
    """Timings and observations of one pass."""

    def __init__(self, setup_s: float, wall_s: float, rec: Recorder, state):
        self.setup_s = setup_s
        self.wall_s = wall_s
        self.rec = rec
        self.state = state
        self.sim_us = sum(seg["sim_us"] for seg in rec.segments.values())

    def release(self) -> None:
        """Drop the clusters so the next build does not pay for them."""
        self.state = None
        self.rec.extra.clear()

    def sim_fingerprint(self):
        """Everything simulated that must not vary between passes."""
        rec = self.rec
        return (
            rec.ops, rec.retries, sorted(rec.failures.items()),
            [(name, seg["ops"], seg["sim_us"])
             for name, seg in rec.segments.items()],
            rec.lat,
        )


def run_pass(workload, inputs, fastpath: bool = True, before=None,
             after=None) -> Pass:
    """Build, then run the timed region between ``before(state)`` and
    ``after(state)`` hooks (profiler, tracer, counter snapshots)."""
    gc.collect()
    reset_global_counters()
    fp_stats.reset()
    start = time.perf_counter()
    state = workload.build(inputs, fastpath)
    setup_s = time.perf_counter() - start
    # A seeded idle phase, so no result hangs on how the first op
    # happens to align with pollers and other periodic processes.
    for cluster in state.clusters:
        cluster.run_process(_idle(cluster.sim, inputs["phase_us"]))
    rec = Recorder()
    if before is not None:
        before(state)
    start = time.perf_counter()
    workload.run(state, inputs, rec)
    wall_s = time.perf_counter() - start
    if after is not None:
        after(state)
    workload.check(state, inputs, rec)
    if fp_stats.mismodels:
        raise BenchError(
            f"{workload.name}: verbs.fp_mismodels = {fp_stats.mismodels} "
            f"(the fast path committed a timeline the engine contradicted)")
    return Pass(setup_s, wall_s, rec, state)


def _idle(sim, delay_us: float):
    yield sim.timeout(delay_us)


def require_same_sim(workload, reference: Pass, other: Pass, what: str):
    """Hard error unless two passes agree on every simulated value."""
    if reference.sim_fingerprint() != other.sim_fingerprint():
        raise BenchError(
            f"{workload.name}: simulated results of the {what} differ from "
            f"the first pass (ops {reference.rec.ops} vs {other.rec.ops}, "
            f"sim_us {reference.sim_us!r} vs {other.sim_us!r})")


def prepare_inputs(workload, seed: int, scale: float):
    """Generate inputs; enforce the frozen digest at the default seed."""
    inputs = workload.make_inputs(seed, scale)
    inputs["phase_us"] = random.Random(seed).uniform(0.0, 5.0)
    digest = input_digest(inputs)
    if seed == DEFAULT_SEED and scale == 1.0:
        if digest != FROZEN_DIGESTS[workload.name]:
            raise BenchError(
                f"{workload.name}: workload changed — bump WORKLOADS_VERSION "
                f"(input digest {digest}, frozen "
                f"{FROZEN_DIGESTS[workload.name]})")
    else:
        print(f"input digest {workload.name} seed={seed} scale={scale}: "
              f"{digest} (not checked: only seed {DEFAULT_SEED} at scale 1 "
              f"is frozen)")
    return inputs, digest


def tail_percentile(n_samples: int) -> float:
    """99, or the highest percentile with >= 10 samples beyond it."""
    if n_samples >= 1000:
        return 99.0
    return max(50.0, 100.0 * (1.0 - 10.0 / n_samples))


def percentile(ordered, pct: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return ordered[max(1, math.ceil(pct / 100.0 * len(ordered))) - 1]


def end_to_end(workload, inputs, seconds: float):
    """Warm-up + timed passes; returns (metrics, detail, last pass)."""
    run_pass(workload, inputs)  # warm-up: allocator and import cold start
    passes = []
    began = time.perf_counter()
    while len(passes) < MIN_PASSES or (
            time.perf_counter() - began < seconds
            and len(passes) < MAX_PASSES):
        current = run_pass(workload, inputs)
        if passes:
            require_same_sim(workload, passes[0], current,
                             f"timed pass {len(passes) + 1}")
        passes.append(current)
        current.release()

    first = passes[0]
    rec = first.rec
    if not rec.lat:
        raise BenchError(f"{workload.name}: no latency samples")
    ordered = sorted(rec.lat)
    tail = tail_percentile(len(ordered))
    setups = [p.setup_s for p in passes]
    rates = [p.rec.ops / p.wall_s for p in passes]
    metrics = {
        "setup_s": statistics.median(setups),
        "host_ops_per_s": statistics.median(rates),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "sim_p50_us": percentile(ordered, 50.0),
        "sim_p99_us": percentile(ordered, tail),
        "sim_ops_per_ms": rec.ops / (first.sim_us / 1000.0),
        "ok_frac": 1.0 - rec.failed / rec.ops,
    }
    detail = {
        "passes": len(passes),
        "per_pass": {"setup_s": setups, "host_ops_per_s": rates,
                     "timed_wall_s": [p.wall_s for p in passes]},
        "ops_per_pass": rec.ops,
        "sim_us_per_pass": first.sim_us,
        "latency_samples": len(ordered),
        "tail_percentile": tail,
        "retries": rec.retries,
        "failed_checks": dict(rec.failures),
        "segments": {name: dict(seg) for name, seg in rec.segments.items()},
    }
    return metrics, detail, first


def provenance(seed: int, scale: float, digest: str) -> dict:
    """Where and on what a result record was measured."""
    return {
        "host_cpus": os.cpu_count(),
        "python": platform.python_version(),
        "git_sha": _git_sha(),
        "workloads_version": WORKLOADS_VERSION,
        "seed": seed,
        "scale": scale,
        "input_digest": digest,
    }


def _git_sha() -> str:
    """HEAD's sha, read from .git without starting a process."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    try:
        with open(os.path.join(root, ".git", "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        with open(os.path.join(root, ".git", head[5:])) as fh:
            return fh.read().strip()
    except OSError:
        return "unknown"
