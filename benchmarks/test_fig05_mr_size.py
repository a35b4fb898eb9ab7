"""Figure 5: RDMA write throughput vs total (L)MR size.

One region per run; random-offset writes of 64 B and 1 KB.  Native
Verbs thrashes the RNIC's PTE cache once the registered region exceeds
its reach (~4 MB), collapsing throughput; LITE's physical-address
global MR needs no PTEs, so throughput is flat up to 1 GB.
"""

import random

from repro.sweep import run_sweep
from repro.verbs import Access

from .common import lite_lmr, throughput_run, verbs_pair, verbs_write_op
from .figures import Figure, ratio_between, within

MB = 1 << 20
SIZES = [1 * MB, 4 * MB, 16 * MB, 64 * MB, 256 * MB, 1024 * MB]
DURATION_US = 800.0
WORKERS = 24


def fig05_point(point):
    """Write rate of 24 loops of random-offset writes into one region."""
    total_size, write_size, system = point
    rng = random.Random(5)
    span = total_size - write_size
    if system == "lite":
        cluster, ctx, lh = lite_lmr(total_size)
        payload = b"y" * write_size

        def op():
            return ctx.lt_write(lh, rng.randrange(span), payload)
    else:
        state = verbs_pair(mr_bytes=4096)
        cluster = state["cluster"]
        mr = cluster.run_process(
            cluster[1].device.reg_mr(state["pd_b"], total_size, Access.ALL)
        )

        def op():
            return verbs_write_op(state, write_size, rng.randrange(span), mr=mr)

    return throughput_run(cluster, [op] * WORKERS, duration_us=DURATION_US)


def run_fig05(jobs):
    points = [(size, write_size, system)
              for size in SIZES
              for write_size in (1024, 64)
              for system in ("lite", "verbs")]
    values = dict(zip(points, run_sweep(fig05_point, points, jobs=jobs)))
    return [
        (
            size // MB,
            values[(size, 1024, "lite")],
            values[(size, 1024, "verbs")],
            values[(size, 64, "lite")],
            values[(size, 64, "verbs")],
        )
        for size in SIZES
    ]


FIG05 = Figure(
    "fig05", "Figure 5: write throughput vs total (L)MR size (requests/us)",
    ["size_MB", "LITE-1K", "Verbs-1K", "LITE-64B", "Verbs-64B"], run_fig05,
    note="paper: Verbs collapses past 4 MB (PTE thrash); LITE flat",
    claim="Verbs ~5 req/us collapsing to ~1 past 4 MB (PTE thrash); LITE "
          "flat.",
    checks={
        "LITE-64B flat within 20% across three decades":
            within("LITE-64B", 1.2),
        "Verbs-64B collapses >= 2.5x from 1 MB to 1 GB":
            ratio_between((1, "Verbs-64B"), (1024, "Verbs-64B"), lo=2.5),
        "Verbs-1K collapses >= 2x from 1 MB to 1 GB":
            ratio_between((1, "Verbs-1K"), (1024, "Verbs-1K"), lo=2.0),
        "at 1 GB LITE-64B clearly wins (> 1.5x Verbs)":
            ratio_between((1024, "LITE-64B"), (1024, "Verbs-64B"), lo=1.5),
    },
)
