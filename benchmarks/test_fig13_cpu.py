"""Figure 13 + §5.3 CPU comparison: CPU time under the Facebook workload.

Two experiments:

1. §5.3 micro: 1000 RPCs/s from 8 threads for one second — total CPU
   seconds for LITE vs HERD vs FaSST.  HERD/FaSST burn whole cores in
   client/server busy-poll loops; LITE shares one kernel poller per
   node and lets user threads sleep (adaptive model).

2. Figure 13 macro: Facebook inter-arrival distribution with an
   amplification factor of 1x..8x; average CPU µs per request.
   Lighter load (bigger factor) widens LITE's advantage.
"""

from repro.cluster import Cluster
from repro.core import LiteContext, rpc_server_loop
from repro.workloads import FacebookKV

from .common import fasst_pairs, herd_clients, lite_pair, settle
from .figures import Figure

N_THREADS = 8
REQUESTS_PER_THREAD = 40
KEY = b"key-1234"


def _cpu_per_request(cluster, calls, amplification: float) -> float:
    """Busy CPU µs per request over N_THREADS open-loop request threads,
    thread ``i`` issuing ``calls[i]()`` after each Facebook
    inter-arrival gap."""
    sim = cluster.sim
    workload = FacebookKV(seed=7, mean_inter_arrival_us=1000.0)
    arrivals = [
        [workload.inter_arrival(amplification) for _ in range(REQUESTS_PER_THREAD)]
        for _ in range(N_THREADS)
    ]

    def thread(index):
        for gap in arrivals[index]:
            yield sim.timeout(gap)
            yield from calls[index]()

    def driver():
        yield sim.all_of([sim.process(thread(i)) for i in range(N_THREADS)])

    for node in cluster.nodes:
        node.cpu.reset_accounting()
    cluster.run_process(driver())
    busy = sum(node.cpu.total_busy() for node in cluster.nodes)
    return busy / (N_THREADS * REQUESTS_PER_THREAD)


def _handler():
    """The servers' reply: a Facebook-sized value picked by input length."""
    workload = FacebookKV(seed=99)
    sizes = [workload.value_size() for _ in range(64)]
    return lambda d: b"v" * sizes[len(d) % 64]


def lite_cpu(amplification: float) -> float:
    cluster, kernels, _ = lite_pair()
    handler = _handler()
    for index in range(N_THREADS):
        server = LiteContext(kernels[1], f"s{index}")
        cluster.sim.process(rpc_server_loop(server, 1, handler))
    clients = [LiteContext(kernels[0], f"c{i}") for i in range(N_THREADS)]
    settle(cluster)
    calls = [lambda ctx=ctx: ctx.lt_rpc(2, 1, KEY, max_reply=4200)
             for ctx in clients]
    return _cpu_per_request(cluster, calls, amplification)


def herd_cpu(amplification: float) -> float:
    cluster = Cluster(2)
    clients = herd_clients(cluster, N_THREADS, N_THREADS, _handler())
    calls = [lambda client=client: client.call(KEY) for client in clients]
    return _cpu_per_request(cluster, calls, amplification)


def fasst_cpu(amplification: float) -> float:
    cluster = Cluster(2)
    pairs = fasst_pairs(cluster, N_THREADS, _handler())
    calls = [lambda a=a, b=b: a.call(b, KEY) for a, b in pairs]
    return _cpu_per_request(cluster, calls, amplification)


def run_fig13(_jobs):
    rows = []
    for amplification in (1, 2, 4, 8):
        rows.append(
            (
                f"{amplification}x",
                herd_cpu(amplification),
                fasst_cpu(amplification),
                lite_cpu(amplification),
            )
        )
    return rows


FIG13 = Figure(
    "fig13", "Figure 13: CPU time per request, Facebook arrivals (us/request)",
    ["inter-arrival", "HERD", "FaSST", "LITE"], run_fig13,
    note="client+server busy time summed; lighter load to the right",
    claim="LITE uses ~half the CPU of HERD/FaSST (4.3 vs 8.7/8.8 s), and its "
          "advantage grows at light load.",
    checks={
        "LITE < 0.75x HERD's CPU at every load":
            lambda t: all(r["LITE"] < 0.75 * r["HERD"] for r in t),
        "LITE < 0.75x FaSST's CPU at every load":
            lambda t: all(r["LITE"] < 0.75 * r["FaSST"] for r in t),
        # Adaptive sleep: the LITE/HERD ratio at 8x is smaller than at 1x.
        "LITE's advantage over HERD widens as load lightens": lambda t: (
            t["8x"]["LITE"] / t["8x"]["HERD"]
            <= t["1x"]["LITE"] / t["1x"]["HERD"] * 1.05),
    },
)
