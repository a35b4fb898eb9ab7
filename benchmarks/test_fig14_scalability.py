"""Figure 14: LITE one-sided and RPC throughput vs cluster size (2-8).

Every node runs 8 threads doing 64 B LT_writes (or 64 B -> 8 B LT_RPCs)
to all other nodes.  With K×N shared QPs and per-node RNICs, aggregate
throughput scales near-linearly with node count.
"""

import itertools

from repro.core import LiteContext, Permission, rpc_server_loop
from repro.sweep import run_sweep

from .common import lite_pair, settle, throughput_run
from .figures import Figure, monotone, ratio_between

THREADS_PER_NODE = 8
DURATION_US = 1000.0


def write_scalability(n_nodes: int) -> float:
    cluster, kernels, contexts = lite_pair(n_nodes=n_nodes)

    def setup():
        # One world-writable buffer per node; everyone maps the rest.
        for kernel, ctx in zip(kernels, contexts):
            yield from ctx.lt_malloc(
                1 << 16, name=f"buf{kernel.lite_id}",
                default_perm=Permission.READ | Permission.WRITE,
            )
        handles = {}
        for ctx in contexts:
            maps = {}
            for kernel in kernels:
                if kernel.lite_id != ctx.lite_id:
                    maps[kernel.lite_id] = yield from ctx.lt_map(
                        f"buf{kernel.lite_id}"
                    )
            handles[ctx.lite_id] = maps
        return handles

    handles = cluster.run_process(setup())
    payload = b"w" * 64

    def writer(ctx, thread):
        # Each thread cycles through the peers' buffers from its own start.
        targets = list(handles[ctx.lite_id].values())
        turn = itertools.count(thread)

        def op():
            index = next(turn)
            return ctx.lt_write(targets[index % len(targets)],
                                ((index + 1) * 64) % 4096, payload)

        return op

    ops = [writer(ctx, thread)
           for ctx in contexts for thread in range(THREADS_PER_NODE)]
    return throughput_run(cluster, ops, duration_us=DURATION_US, warmup_us=0.0)


def rpc_scalability(n_nodes: int) -> float:
    cluster, kernels, contexts = lite_pair(n_nodes=n_nodes)
    for kernel in kernels:
        for index in range(THREADS_PER_NODE):
            server = LiteContext(kernel, f"srv{kernel.lite_id}-{index}")
            cluster.sim.process(
                rpc_server_loop(server, 1, lambda _in: b"r" * 8))
    settle(cluster)

    def caller(ctx, thread):
        peers = [k.lite_id for k in kernels if k.lite_id != ctx.lite_id]
        turn = itertools.count(thread)
        return lambda: ctx.lt_rpc(peers[next(turn) % len(peers)], 1,
                                  b"q" * 64, max_reply=64)

    ops = [caller(ctx, thread)
           for ctx in contexts for thread in range(THREADS_PER_NODE)]
    return throughput_run(cluster, ops, duration_us=DURATION_US, warmup_us=0.0)


def fig14_point(point):
    n_nodes, mode = point
    fn = write_scalability if mode == "write" else rpc_scalability
    return fn(n_nodes)


def run_fig14(jobs):
    points = [(n_nodes, mode)
              for n_nodes in (2, 4, 6, 8) for mode in ("write", "rpc")]
    values = dict(zip(points, run_sweep(fig14_point, points, jobs=jobs)))
    return [
        (n_nodes, values[(n_nodes, "write")], values[(n_nodes, "rpc")])
        for n_nodes in (2, 4, 6, 8)
    ]


FIG14 = Figure(
    "fig14", "Figure 14: aggregate throughput vs cluster size (requests/us)",
    ["nodes", "LT_write", "LT_RPC"], run_fig14,
    note="8 threads/node, 64B writes / 64B->8B RPCs",
    claim="Near-linear scaling of LT_write and LT_RPC to 8 nodes.",
    checks={
        "LT_write near-linear: > 3x from 2 to 8 nodes":
            ratio_between((8, "LT_write"), (2, "LT_write"), lo=3.0),
        "LT_RPC near-linear: > 3x from 2 to 8 nodes":
            ratio_between((8, "LT_RPC"), (2, "LT_RPC"), lo=3.0),
        "LT_write grows monotonically with nodes": monotone("LT_write"),
        "LT_RPC grows monotonically with nodes": monotone("LT_RPC"),
    },
)
