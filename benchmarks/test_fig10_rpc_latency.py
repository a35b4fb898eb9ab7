"""Figure 10: RPC latency vs return size (8 B input).

Lines: LITE_RPC (user), LITE_RPC KL, 2×Verbs-writes lower bound (FaRM
messaging), HERD (write + UD send), FaSST (2× UD send).  Expected
shape: HERD lowest for small returns (raw region polling); LITE within
~1 µs of the 2-write lower bound; FaSST worst at 4 KB.
Also reproduces §5.3's latency breakdown of the 8 B → 4 KB LT_RPC.
"""

from repro.baselines import connect_farm_pair
from repro.cluster import Cluster
from repro.core import LiteContext, rpc_server_loop

from .common import fasst_pairs, herd_clients, latency_of, lite_pair, settle
from .figures import Figure

RETURN_SIZES = [8, 64, 512, 4096]
INPUT = b"k" * 8
REPLIES = {size: b"r" * size for size in RETURN_SIZES}


def _latencies(cluster, current, op_for):
    """Mean latency per return size: the server replies with
    ``REPLIES[current[0]]``; ``op_for(size)`` is the client's call."""
    out = {}
    for size in RETURN_SIZES:
        current[0] = size
        out[size] = latency_of(cluster, op_for(size), count=150, warmup=20)
    return out


def lite_rpc_latency(kernel_level: bool):
    cluster, kernels, _ = lite_pair()
    server = LiteContext(kernels[1], "srv")
    client = LiteContext(kernels[0], "cli", kernel_level=kernel_level)
    current = [8]
    cluster.sim.process(
        rpc_server_loop(server, 1, lambda _in: REPLIES[current[0]])
    )
    settle(cluster)
    return _latencies(cluster, current, lambda size: lambda: client.lt_rpc(
        2, 1, INPUT, max_reply=size + 64))


def farm_two_writes():
    cluster = Cluster(2)
    a, b = cluster.run_process(connect_farm_pair(cluster[0], cluster[1]))
    current = [8]

    def server():
        while True:
            _msg = yield from b.recv()
            yield from b.send(REPLIES[current[0]])

    cluster.sim.process(server())
    return _latencies(cluster, current, lambda _size: lambda: a.rpc(INPUT))


def herd_latency():
    cluster = Cluster(2)
    current = [8]
    [client] = herd_clients(cluster, 1, 1, lambda _in: REPLIES[current[0]])
    return _latencies(cluster, current, lambda _size: lambda: client.call(INPUT))


def fasst_latency():
    cluster = Cluster(2)
    current = [8]
    [(a, b)] = fasst_pairs(cluster, 1, lambda _in: REPLIES[current[0]])
    return _latencies(cluster, current, lambda _size: lambda: a.call(b, INPUT))


def run_fig10(_jobs):
    lite = lite_rpc_latency(kernel_level=False)
    lite_kl = lite_rpc_latency(kernel_level=True)
    farm = farm_two_writes()
    herd = herd_latency()
    fasst = fasst_latency()
    return [
        (size, lite[size], lite_kl[size], farm[size], herd[size], fasst[size])
        for size in RETURN_SIZES
    ]


FIG10 = Figure(
    "fig10", "Figure 10: RPC latency vs return size (us), 8B input",
    ["ret_B", "LITE_RPC", "LITE_RPC KL", "2 Verbs writes", "HERD", "FaSST"],
    run_fig10,
    claim="~5-7 us RPCs; HERD lowest for small returns; LITE tracks the "
          "2-write bound; an 8B->4KB LT_RPC takes 6.95 us.",
    checks={
        "KL within a fraction of a microsecond below user-level at every size":
            lambda t: all(0 < r["LITE_RPC"] - r["LITE_RPC KL"] < 1.0
                          for r in t),
        "LITE tracks the 2-write lower bound within 1.5 us at every size":
            lambda t: all(abs(r["LITE_RPC"] - r["2 Verbs writes"]) < 1.5
                          for r in t),
        "HERD's raw polling is fastest at 8 B returns":
            lambda t: t[8]["HERD"] <= t[8]["LITE_RPC"],
        "FaSST is the slowest mechanism at 4 KB (two full-MTU UD sends)":
            lambda t: t[4096]["FaSST"] >= max(
                t[4096]["LITE_RPC"], t[4096]["2 Verbs writes"],
                t[4096]["HERD"]) - 0.2,
        "the 8B->4KB LT_RPC lands in the 4.5-9.5 us envelope of §5.3":
            lambda t: 4.5 < t[4096]["LITE_RPC"] < 9.5,
    },
)
