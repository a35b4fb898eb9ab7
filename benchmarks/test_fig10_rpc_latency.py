"""Figure 10: RPC latency vs return size (8 B input).

Lines: LITE_RPC (user), LITE_RPC KL, 2×Verbs-writes lower bound (FaRM
messaging), HERD (write + UD send), FaSST (2× UD send).  Expected
shape: HERD lowest for small returns (raw region polling); LITE within
~1 µs of the 2-write lower bound; FaSST worst at 4 KB.
Also reproduces §5.3's latency breakdown of the 8 B → 4 KB LT_RPC.
"""

import pytest

from repro.baselines import FasstEndpoint, HerdServer, connect_farm_pair
from repro.cluster import Cluster
from repro.core import LiteContext, rpc_server_loop

from .common import latency_of, lite_pair, print_table

RETURN_SIZES = [8, 64, 512, 4096]
INPUT = b"k" * 8


def lite_rpc_latency(kernel_level: bool):
    cluster, kernels, _ = lite_pair()
    server = LiteContext(kernels[1], "srv")
    client = LiteContext(kernels[0], "cli", kernel_level=kernel_level)
    replies = {size: b"r" * size for size in RETURN_SIZES}
    size_box = {"value": 8}
    cluster.sim.process(
        rpc_server_loop(server, 1, lambda _in: replies[size_box["value"]])
    )
    cluster.run_process(_idle(cluster, 5))
    out = {}
    for size in RETURN_SIZES:
        size_box["value"] = size

        def op():
            yield from client.lt_rpc(2, 1, INPUT, max_reply=size + 64)

        out[size] = latency_of(cluster, op, count=150, warmup=20)
    return out


def _idle(cluster, us):
    yield cluster.sim.timeout(us)


def farm_two_writes():
    cluster = Cluster(2)
    holder = {}

    def setup():
        a, b = yield from connect_farm_pair(cluster[0], cluster[1])
        holder["a"], holder["b"] = a, b

    cluster.run_process(setup())
    a, b = holder["a"], holder["b"]
    replies = {size: b"r" * size for size in RETURN_SIZES}
    size_box = {"value": 8}

    def server():
        while True:
            _msg = yield from b.recv()
            yield from b.send(replies[size_box["value"]])

    cluster.sim.process(server())
    out = {}
    for size in RETURN_SIZES:
        size_box["value"] = size

        def op():
            yield from a.rpc(INPUT)

        out[size] = latency_of(cluster, op, count=150, warmup=20)
    return out


def herd_latency():
    cluster = Cluster(2)
    holder = {}
    size_box = {"value": 8}
    replies = {size: b"r" * size for size in RETURN_SIZES}

    def setup():
        server = HerdServer(cluster[1], n_threads=1)
        yield from server.build(lambda _in: replies[size_box["value"]])
        holder["client"] = yield from server.connect_client(cluster[0])

    cluster.run_process(setup())
    client = holder["client"]
    out = {}
    for size in RETURN_SIZES:
        size_box["value"] = size

        def op():
            yield from client.call(INPUT)

        out[size] = latency_of(cluster, op, count=150, warmup=20)
    return out


def fasst_latency():
    cluster = Cluster(2)
    holder = {}
    size_box = {"value": 8}
    replies = {size: b"r" * size for size in RETURN_SIZES}

    def setup():
        a = FasstEndpoint(cluster[0])
        b = FasstEndpoint(cluster[1],
                          handler=lambda _in: replies[size_box["value"]])
        yield from a.build()
        yield from b.build()
        holder["a"], holder["b"] = a, b

    cluster.run_process(setup())
    a, b = holder["a"], holder["b"]
    out = {}
    for size in RETURN_SIZES:
        size_box["value"] = size

        def op():
            yield from a.call(b, INPUT)

        out[size] = latency_of(cluster, op, count=150, warmup=20)
    return out


def run_fig10():
    lite = lite_rpc_latency(kernel_level=False)
    lite_kl = lite_rpc_latency(kernel_level=True)
    farm = farm_two_writes()
    herd = herd_latency()
    fasst = fasst_latency()
    return [
        (size, lite[size], lite_kl[size], farm[size], herd[size], fasst[size])
        for size in RETURN_SIZES
    ]


@pytest.mark.benchmark(group="fig10")
def test_fig10_rpc_latency(benchmark):
    rows = benchmark.pedantic(run_fig10, rounds=1, iterations=1)
    print_table(
        "Figure 10: RPC latency vs return size (us), 8B input",
        ["ret_B", "LITE_RPC", "LITE_RPC KL", "2 Verbs writes", "HERD",
         "FaSST"],
        rows,
    )
    by_size = {row[0]: row for row in rows}
    for size, lite, lite_kl, farm, herd, fasst in rows:
        # KL within a fraction of a microsecond below user-level.
        assert 0 < lite - lite_kl < 1.0
        # LITE tracks the 2-write lower bound within ~1.5 us.
        assert abs(lite - farm) < 1.5
    # HERD's raw polling is fastest at small returns.
    assert by_size[8][4] <= by_size[8][1]
    # FaSST is the slowest mechanism at 4 KB (two full-MTU UD sends).
    row4k = by_size[4096]
    assert row4k[5] >= max(row4k[1], row4k[3], row4k[4]) - 0.2
    # §5.3: the 8B->4KB LT_RPC lands in the ~5-9 us envelope.
    assert 4.5 < row4k[1] < 9.5
