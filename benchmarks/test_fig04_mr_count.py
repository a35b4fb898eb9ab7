"""Figure 4: RDMA write latency vs number of (L)MRs.

Each (L)MR is 4 KB; each write is 64 B to a randomly-chosen region.
Native Verbs degrades once the MR count exceeds the RNIC's key-cache
SRAM (~100 records) because every operation must fetch the MR record
from host memory; LITE uses one global physical MR, so its latency is
flat no matter how many LMRs exist.
"""

import random

from repro.cluster import Cluster
from repro.core import LiteContext, lite_boot
from repro.sweep import run_sweep
from repro.verbs import Access

from .common import latency_of, verbs_pair, verbs_write_op
from .figures import Figure, crossover, knee_between, ratio_between, within

MR_COUNTS = [10, 100, 1_000, 10_000, 100_000]
WRITE_SIZE = 64
MR_BYTES = 4096


def verbs_latency(n_mrs: int) -> float:
    state = verbs_pair(mr_bytes=4096)
    cluster = state["cluster"]
    remote = cluster[1]

    mrs = []

    def register():
        for _ in range(n_mrs):
            mr = yield from remote.device.reg_mr(
                state["pd_b"], MR_BYTES, Access.ALL
            )
            mrs.append(mr)

    cluster.run_process(register())
    rng = random.Random(4)

    def op():
        return verbs_write_op(state, WRITE_SIZE,
                              mr=mrs[rng.randrange(len(mrs))])

    return latency_of(cluster, op, count=400, warmup=20)


def lite_latency(n_lmrs: int, seed: int = 4, count: int = 400,
                 use_global_mr: bool = True):
    """Mean 64 B LT_write latency to a random one of ``n_lmrs`` 4 KB LMRs
    on node 2, and the mean LT_malloc latency that made them (µs)."""
    cluster = Cluster(2)
    kernels = lite_boot(cluster, use_global_mr=use_global_mr)
    ctx = LiteContext(kernels[0], "bench1")
    sim = cluster.sim
    handles = []
    malloc_times = []

    def setup():
        for _ in range(n_lmrs):
            start = sim.now
            lh = yield from ctx.lt_malloc(MR_BYTES, nodes=2)
            malloc_times.append(sim.now - start)
            handles.append(lh)

    cluster.run_process(setup())
    rng = random.Random(seed)
    payload = b"x" * WRITE_SIZE

    def op():
        lh = handles[rng.randrange(len(handles))]
        yield from ctx.lt_write(lh, 0, payload)

    latency = latency_of(cluster, op, count=count, warmup=20)
    return latency, sum(malloc_times) / len(malloc_times)


def fig04_point(point):
    count, system = point
    return lite_latency(count)[0] if system == "lite" else verbs_latency(count)


def run_fig04(jobs):
    points = [(count, system)
              for count in MR_COUNTS for system in ("lite", "verbs")]
    values = dict(zip(points, run_sweep(fig04_point, points, jobs=jobs)))
    return [
        (count, values[(count, "lite")], values[(count, "verbs")])
        for count in MR_COUNTS
    ]


FIG04 = Figure(
    "fig04", "Figure 4: 64B write latency vs #(L)MRs (us)",
    ["#MRs", "LITE_write", "Verbs write"], run_fig04,
    note="paper: Verbs rises past ~100 MRs; LITE flat",
    claim="Verbs ~1 us at 10 MRs rising to ~3.5 us past 100 MRs; LITE flat "
          "~1.7 us.",
    checks={
        "LITE flat: < 15% swing across 4 decades of LMR count":
            within("LITE_write", 1.15),
        "Verbs degrades >= 2x from 10 to 100,000 MRs":
            ratio_between((100_000, "Verbs write"), (10, "Verbs write"), lo=2.0),
        "Verbs within 1.5x of its 10-MR latency through 100 MRs, "
        "and >= 2x by 1,000":
            knee_between("Verbs write", 100, 1_000, flat=1.5, rise=2.0),
        "crossover: Verbs wins at 10 MRs, LITE at 100,000":
            crossover("LITE_write", "Verbs write"),
    },
)
