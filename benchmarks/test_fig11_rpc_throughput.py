"""Figure 11: RPC throughput (GB/s of returned data) vs return size.

1 and 16 concurrent client/server pairs, 8 B inputs.  LITE's shared
rings and write-imm path keep up with or beat HERD; FaSST's inline
handler execution in the master poller caps its throughput.
"""

from repro.cluster import Cluster
from repro.core import LiteContext, rpc_server_loop

from .common import (fasst_pairs, herd_clients, lite_pair, settle,
                     throughput_run)
from .figures import Figure

RETURN_SIZES = [64, 512, 1024, 2048, 4096]
INPUT = b"i" * 8
DURATION_US = 1500.0


def _gbps(cluster, calls, size: int) -> float:
    """GB/s of ``size``-byte replies while one loop per entry of ``calls``
    keeps calling for the whole window."""
    rate = throughput_run(cluster, calls, duration_us=DURATION_US,
                          warmup_us=0.0)
    return rate * size / 1000.0


def lite_throughput(size: int, n_clients: int) -> float:
    cluster, kernels, _ = lite_pair()
    # 16 concurrent server threads drain the same function id.
    for index in range(max(n_clients, 1)):
        server = LiteContext(kernels[1], f"srv{index}")
        cluster.sim.process(rpc_server_loop(server, 1, lambda _in: b"r" * size))
    clients = [LiteContext(kernels[0], f"cli{i}") for i in range(n_clients)]
    settle(cluster)
    return _gbps(cluster, [
        lambda ctx=ctx: ctx.lt_rpc(2, 1, INPUT, max_reply=size + 64)
        for ctx in clients], size)


def herd_throughput(size: int, n_clients: int) -> float:
    cluster = Cluster(2)
    clients = herd_clients(cluster, max(1, min(n_clients, 8)), n_clients,
                           lambda _in: b"r" * size)
    return _gbps(cluster, [lambda client=client: client.call(INPUT)
                           for client in clients], size)


def fasst_throughput(size: int, n_clients: int) -> float:
    # FaSST runs one endpoint (QP + master) per thread; requests from
    # client i go to server endpoint i.
    cluster = Cluster(2)
    pairs = fasst_pairs(cluster, n_clients, lambda _in: b"r" * size)
    return _gbps(cluster, [lambda a=a, b=b: a.call(b, INPUT)
                           for a, b in pairs], size)


def run_fig11(_jobs):
    rows = []
    for size in RETURN_SIZES:
        rows.append(
            (
                size,
                lite_throughput(size, 16),
                herd_throughput(size, 16),
                fasst_throughput(size, 16),
                lite_throughput(size, 1),
                herd_throughput(size, 1),
                fasst_throughput(size, 1),
            )
        )
    return rows


FIG11 = Figure(
    "fig11", "Figure 11: RPC throughput vs return size (GB/s of returned data)",
    ["ret_B", "LITE-16", "HERD-16", "FaSST-16", "LITE-1", "HERD-1", "FaSST-1"],
    run_fig11,
    claim="LITE >= HERD > FaSST at 16 clients and large returns.",
    checks={
        "LITE-16 >= 0.9x HERD-16 at 4 KB returns": lambda t: (
            t[4096]["LITE-16"] >= 0.9 * t[4096]["HERD-16"]),
        "HERD-16 beats FaSST-16 at 4 KB returns":
            lambda t: t[4096]["HERD-16"] > t[4096]["FaSST-16"],
        "16 LITE clients beat 1 at 4 KB returns":
            lambda t: t[4096]["LITE-16"] > t[4096]["LITE-1"],
        "LITE-16 approaches the link ceiling (> 2.5 GB/s) at 4 KB":
            lambda t: t[4096]["LITE-16"] > 2.5,
    },
)
