"""Figure 8: (de)registration / (un)map latency vs region size.

Verbs ``ibv_reg_mr`` walks and pins every page (cost linear in size);
deregistration unpins them.  LITE's LT_map/LT_unmap only touch kernel
metadata — no pinning — so they are flat and orders of magnitude
cheaper for large regions.
"""

from repro.core import Permission
from repro.verbs import Access

from .common import lite_pair, verbs_pair
from .figures import Figure, ratio_between

KB = 1024
SIZES = [1 * KB, 4 * KB, 16 * KB, 64 * KB, 256 * KB, 1024 * KB]


def _mean_costs(cluster, acquire, release):
    """Mean µs of ``acquire()`` and of ``release(handle)`` over 20 rounds."""
    sim = cluster.sim
    samples = ([], [])

    def driver():
        for _ in range(20):
            start = sim.now
            handle = yield from acquire()
            samples[0].append(sim.now - start)
            start = sim.now
            yield from release(handle)
            samples[1].append(sim.now - start)

    cluster.run_process(driver())
    return [sum(costs) / len(costs) for costs in samples]


def verbs_register_costs(size: int):
    state = verbs_pair(mr_bytes=4096)
    device = state["cluster"][0].device
    return _mean_costs(state["cluster"],
                       lambda: device.reg_mr(state["pd_a"], size, Access.ALL),
                       device.dereg_mr)


def lite_map_costs(size: int):
    cluster, _kernels, contexts = lite_pair()
    ctx = contexts[0]
    # The paper's Fig 8 maps a *local* LMR.
    cluster.run_process(ctx.lt_malloc(size, name=f"fig8-{size}"))
    return _mean_costs(
        cluster, lambda: ctx.lt_map(f"fig8-{size}", Permission.full()),
        ctx.lt_unmap)


def run_fig08(_jobs):
    rows = []
    for size in SIZES:
        reg, dereg = verbs_register_costs(size)
        lt_map, lt_unmap = lite_map_costs(size)
        rows.append((size // KB, reg, dereg, lt_unmap, lt_map))
    return rows


FIG08 = Figure(
    "fig08", "Figure 8: (de)register / (un)map latency vs size (us)",
    ["size_KB", "Verbs register", "Verbs deregister", "LITE_unmap",
     "LITE_map"],
    run_fig08,
    note="paper: register/deregister grow with pages; map/unmap flat",
    claim="Register/deregister linear in pages (ms at 1 MB); LT_map/unmap "
          "flat microseconds.",
    checks={
        # 1 KB -> 1 MB is 256x the pages.
        "Verbs register grows >= 30x from 1 KB to 1 MB":
            ratio_between((1024, "Verbs register"), (1, "Verbs register"),
                          lo=30),
        "Verbs deregister grows >= 10x from 1 KB to 1 MB":
            ratio_between((1024, "Verbs deregister"), (1, "Verbs deregister"),
                          lo=10),
        "LITE map flat (< 2x) from 1 KB to 1 MB":
            ratio_between((1024, "LITE_map"), (1, "LITE_map"), hi=2),
        "LITE unmap flat (< 2x) from 1 KB to 1 MB":
            ratio_between((1024, "LITE_unmap"), (1, "LITE_unmap"), hi=2),
        "at 1 MB LITE map >= 10x faster than Verbs register":
            ratio_between((1024, "Verbs register"), (1024, "LITE_map"), lo=10),
    },
)
