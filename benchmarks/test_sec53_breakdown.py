"""§5.3: latency breakdown of one LT_RPC (8 B input -> 4 KB reply).

The paper reports ~6.95 µs total, with metadata handling < 0.3 µs,
LT_recvRPC/LT_replyRPC kernel stacks 0.3/0.2 µs, and 0.17 µs of
user-kernel crossings.  We instrument the same stages.
"""

import pytest

from repro.core import LiteContext, rpc_server_loop
from repro.hw.params import DEFAULT_PARAMS

from .common import lite_pair, print_table


def _rpc_total():
    """Mean LT_RPC latency (8 B -> 4 KB)."""
    cluster, kernels, _ = lite_pair()
    client = LiteContext(kernels[0], "cli")
    server = LiteContext(kernels[1], "srv")
    cluster.sim.process(rpc_server_loop(server, 1, lambda _in: b"r" * 4096))
    sim = cluster.sim

    def settle():
        yield sim.timeout(5)

    cluster.run_process(settle())
    samples = []

    def driver():
        for _ in range(20):
            yield from client.lt_rpc(2, 1, b"k" * 8, max_reply=4200)
        for _ in range(100):
            start = sim.now
            yield from client.lt_rpc(2, 1, b"k" * 8, max_reply=4200)
            samples.append(sim.now - start)

    cluster.run_process(driver())
    return sum(samples) / len(samples)


def run_sec53():
    params = DEFAULT_PARAMS
    total = _rpc_total()
    crossings = params.lite_syscall_enter_us + params.lite_sharedpage_return_us
    metadata = params.lite_metadata_us
    recv_stack = params.lite_recv_stack_us + 8 / params.memcpy_bytes_per_us
    reply_stack = params.lite_reply_stack_us
    network = total - crossings - metadata - recv_stack - reply_stack
    return [
        ("total LT_RPC (8B -> 4KB)", total),
        ("metadata (map+perm check)", metadata),
        ("LT_recvRPC kernel stack", recv_stack),
        ("LT_replyRPC kernel stack", reply_stack),
        ("user-kernel crossings", crossings),
        ("network + poll + wire", network),
    ]


@pytest.mark.benchmark(group="sec53")
def test_sec53_rpc_breakdown(benchmark):
    rows = benchmark.pedantic(run_sec53, rounds=1, iterations=1)
    print_table(
        "Sec 5.3: LT_RPC latency breakdown (us)",
        ["stage", "time"],
        rows,
        note="paper: 6.95 total; <0.3 metadata; 0.3/0.2 stacks; 0.17 crossings",
    )
    values = dict(rows)
    total = values["total LT_RPC (8B -> 4KB)"]
    # The envelope of the paper's 6.95 us measurement.
    assert 4.0 < total < 9.5
    assert values["metadata (map+perm check)"] < 0.3
    assert values["user-kernel crossings"] < 0.25
    assert values["LT_recvRPC kernel stack"] <= 0.35
    assert values["LT_replyRPC kernel stack"] <= 0.25
    # The wire/poll share dominates, as in the paper's accounting.
    assert values["network + poll + wire"] > 0.5 * total
