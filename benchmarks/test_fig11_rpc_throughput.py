"""Figure 11: RPC throughput (GB/s of returned data) vs return size.

1 and 16 concurrent client/server pairs, 8 B inputs.  LITE's shared
rings and write-imm path keep up with or beat HERD; FaSST's inline
handler execution in the master poller caps its throughput.
"""

import pytest

from repro.baselines import FasstEndpoint, HerdServer
from repro.cluster import Cluster
from repro.core import LiteContext, rpc_server_loop

from .common import lite_pair, print_table

RETURN_SIZES = [64, 512, 1024, 2048, 4096]
INPUT = b"i" * 8
DURATION_US = 1500.0


def _measure(cluster, make_worker, n_clients: int) -> float:
    """Run n_clients call loops; returns completed calls per us."""
    sim = cluster.sim
    counted = [0]
    stop_at = [0.0]

    def worker(call_op):
        while sim.now < stop_at[0]:
            yield from call_op()
            counted[0] += 1

    def driver():
        stop_at[0] = sim.now + DURATION_US
        procs = [sim.process(worker(make_worker(i))) for i in range(n_clients)]
        yield sim.all_of(procs)

    cluster.run_process(driver())
    return counted[0] / DURATION_US


def lite_throughput(size: int, n_clients: int) -> float:
    cluster, kernels, _ = lite_pair()
    # 16 concurrent server threads drain the same function id.
    for index in range(max(n_clients, 1)):
        server = LiteContext(kernels[1], f"srv{index}")
        cluster.sim.process(rpc_server_loop(server, 1, lambda _in: b"r" * size))
    clients = [LiteContext(kernels[0], f"cli{i}") for i in range(n_clients)]
    cluster.run_process(_settle(cluster))

    def make_worker(index):
        ctx = clients[index]

        def op():
            yield from ctx.lt_rpc(2, 1, INPUT, max_reply=size + 64)

        return op

    rate = _measure(cluster, make_worker, n_clients)
    return rate * size / 1000.0


def _settle(cluster):
    yield cluster.sim.timeout(5)


def herd_throughput(size: int, n_clients: int) -> float:
    cluster = Cluster(2)
    holder = {"clients": []}

    def setup():
        server = HerdServer(cluster[1], n_threads=max(1, min(n_clients, 8)))
        yield from server.build(lambda _in: b"r" * size)
        for _ in range(n_clients):
            client = yield from server.connect_client(cluster[0])
            holder["clients"].append(client)

    cluster.run_process(setup())

    def make_worker(index):
        client = holder["clients"][index]

        def op():
            yield from client.call(INPUT)

        return op

    rate = _measure(cluster, make_worker, n_clients)
    return rate * size / 1000.0


def fasst_throughput(size: int, n_clients: int) -> float:
    cluster = Cluster(2)
    holder = {}

    def setup():
        # FaSST runs one endpoint (QP + master) per thread; requests
        # from client i go to server endpoint i.
        holder["pairs"] = []
        for _ in range(n_clients):
            a = FasstEndpoint(cluster[0])
            b = FasstEndpoint(cluster[1], handler=lambda _in: b"r" * size)
            yield from a.build()
            yield from b.build()
            holder["pairs"].append((a, b))

    cluster.run_process(setup())

    def make_worker(index):
        a, b = holder["pairs"][index]

        def op():
            yield from a.call(b, INPUT)

        return op

    rate = _measure(cluster, make_worker, n_clients)
    return rate * size / 1000.0


def run_fig11():
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


@pytest.mark.benchmark(group="fig11")
def test_fig11_rpc_throughput(benchmark):
    rows = benchmark.pedantic(run_fig11, rounds=1, iterations=1)
    print_table(
        "Figure 11: RPC throughput vs return size (GB/s of returned data)",
        ["ret_B", "LITE-16", "HERD-16", "FaSST-16", "LITE-1", "HERD-1",
         "FaSST-1"],
        rows,
    )
    big = rows[-1]
    _size, lite16, herd16, fasst16, lite1, herd1, fasst1 = big
    # At 16 clients and 4 KB returns LITE >= HERD >= FaSST (paper).
    assert lite16 >= 0.9 * herd16
    assert herd16 > fasst16
    # 16 clients always beat 1 client.
    assert lite16 > lite1
    # Large returns approach the link ceiling for LITE.
    assert lite16 > 2.5
