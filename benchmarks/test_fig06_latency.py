"""Figure 6: write latency vs request size (8 B – 32 KB).

Lines: TCP/IP (qperf on IPoIB), LITE_write user-level, LITE_write
kernel-level (KL), native Verbs write.  LITE-KL should be nearly
indistinguishable from raw Verbs; user-level LITE adds only the
optimized crossing overhead (§5.2); TCP/IP sits an order of magnitude
above all RDMA lines.
"""

from repro.cluster import Cluster
from repro.core import LiteContext

from .common import (latency_of, lite_pair, tcp_connection, verbs_pair,
                     verbs_write_op)
from .figures import Figure

SIZES = [8, 64, 512, 4096, 32768]


def _by_size(cluster, op_for, **kwargs):
    """Mean latency of ``op_for(size)()`` at every size (µs)."""
    return {size: latency_of(cluster, op_for(size), **kwargs) for size in SIZES}


def verbs_latencies():
    state = verbs_pair(mr_bytes=1 << 20)
    return _by_size(state["cluster"],
                    lambda size: lambda: verbs_write_op(state, size))


def lite_latencies(kernel_level: bool):
    cluster, kernels, _ = lite_pair()
    ctx = LiteContext(kernels[0], "lat", kernel_level=kernel_level)
    lh = cluster.run_process(ctx.lt_malloc(1 << 20, nodes=2))

    def write(size):
        payload = b"z" * size
        return lambda: ctx.lt_write(lh, 0, payload)

    return _by_size(cluster, write)


def tcp_latencies():
    def echo(conn):
        while True:
            yield from conn.recv_msg()
            yield from conn.send_msg(b"k")

    def round_trip(size):
        payload = b"t" * size

        def op():
            # One-way data + tiny ack, halved: matches qperf's one-way
            # latency reporting convention.
            yield from conn.send_msg(payload)
            yield from conn.recv_msg()

        return op

    cluster = Cluster(2)
    conn = tcp_connection(cluster, 6000, echo)
    rtts = _by_size(cluster, round_trip, count=60, warmup=5)
    return {size: rtt / 2 for size, rtt in rtts.items()}


def run_fig06(_jobs):
    tcp = tcp_latencies()
    user = lite_latencies(kernel_level=False)
    kernel = lite_latencies(kernel_level=True)
    verbs = verbs_latencies()
    return [
        (size, tcp[size], user[size], kernel[size], verbs[size])
        for size in SIZES
    ]


FIG06 = Figure(
    "fig06", "Figure 6: write latency vs size (us)",
    ["size_B", "TCP/IP", "LITE_write", "LITE_write KL", "Verbs write"],
    run_fig06,
    claim="TCP ~20-30 us; Verbs lowest; LITE-KL ~= Verbs; LITE-user + a "
          "fraction of a us.",
    checks={
        # The gap narrows at 32 KB where serialization dominates (paper: ~2x).
        "TCP/IP > 8x Verbs up to 512 B and > 1.5x above": lambda t: all(
            r["TCP/IP"] > (8 if r["size_B"] <= 512 else 1.5) * r["Verbs write"]
            for r in t),
        "kernel-level LITE within 0.8 us of raw Verbs at every size":
            lambda t: all(abs(r["LITE_write KL"] - r["Verbs write"]) < 0.8
                          for r in t),
        "user-level adds well under a microsecond over KL (§5.2)":
            lambda t: all(0 < r["LITE_write"] - r["LITE_write KL"] < 1.0
                          for r in t),
    },
)
