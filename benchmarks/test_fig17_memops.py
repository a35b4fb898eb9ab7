"""Figure 17: LITE memory-op latency vs size (LT_malloc/memset/memcpy).

LT_memcpy(local) moves data between two LMRs co-located on one node
(a local memcpy at the executor); LT_memcpy crosses machines.
LT_memset sends a command, not the data — so it beats writing the
pattern over the wire as sizes grow.  LT_malloc is near-flat.
A raw Verbs write line gives the wire-cost reference.
"""

from .common import latency_of, lite_pair, verbs_pair, verbs_write_op
from .figures import Figure, ratio_between

KB = 1024
SIZES = [1 * KB, 4 * KB, 16 * KB, 64 * KB, 256 * KB, 1024 * KB]


def run_fig17(_jobs):
    cluster, kernels, contexts = lite_pair(n_nodes=3)
    ctx = contexts[0]

    def setup():
        src2 = yield from ctx.lt_malloc(2 << 20, nodes=2)
        dst3 = yield from ctx.lt_malloc(2 << 20, nodes=3)
        dst2 = yield from ctx.lt_malloc(2 << 20, nodes=2)
        return src2, dst3, dst2

    src2, dst3, dst2 = cluster.run_process(setup())
    verbs_state = verbs_pair(mr_bytes=2 << 20)
    scratch = []

    def malloc_op(size):
        scratch.append((yield from ctx.lt_malloc(size, nodes=2)))

    rows = []
    for size in SIZES:
        verbs_write = latency_of(
            verbs_state["cluster"],
            lambda s=size: verbs_write_op(verbs_state, s),
            count=40, warmup=5,
        )
        lite_ops = [
            lambda s=size: ctx.lt_memcpy(src2, 0, dst3, 0, s),  # remote
            lambda s=size: ctx.lt_memcpy(src2, 0, dst2, 0, s),  # local
            lambda s=size: ctx.lt_memset(src2, 0, 0xAB, s),
            lambda s=size: malloc_op(s),
        ]
        rows.append((size // KB, verbs_write, *(
            latency_of(cluster, op, count=40, warmup=5) for op in lite_ops)))
    return rows


FIG17 = Figure(
    "fig17", "Figure 17: LITE memory-op latency vs size (us)",
    ["size_KB", "Verbs write", "LT_memcpy", "LT_memcpy(local)", "LT_memset",
     "LT_malloc"],
    run_fig17,
    claim="LT_malloc flat; memset < memcpy; local memcpy cheapest; remote "
          "memcpy ~= write + RPC.",
    checks={
        "LT_malloc stays near-flat (< 4x from 1 KB to 1 MB)":
            ratio_between((1024, "LT_malloc"), (1, "LT_malloc"), hi=4),
        "LT_memset at 1 MB is far cheaper (< 0.6x) than shipping the pattern":
            ratio_between((1024, "LT_memset"), (1024, "Verbs write"), hi=0.6),
        "local memcpy beats cross-machine memcpy at every size": lambda t: all(
            r["LT_memcpy(local)"] < r["LT_memcpy"] for r in t),
        "remote memcpy costs more than a raw write at 1 MB (adds the RPC)":
            lambda t: t[1024]["LT_memcpy"] > t[1024]["Verbs write"],
    },
)
