"""Figure 7: write throughput (GB/s) vs size, at 1 and 8 threads.

Lines: LITE-8, Verbs-8, RDMA-CM-8, Verbs-1, RDMA-CM-1, LITE-1, TCP/IP
(single-stream qperf tcp_bw).  All RDMA lines approach the 40 Gbps link
ceiling (~4 GB/s delivered) at 64 KB with 8-way parallelism; TCP stays
well below it.
"""

from repro.cluster import Cluster
from repro.net import rdma_cm_connect

from .common import (lite_lmr, tcp_connection, throughput_run, verbs_pair,
                     verbs_write_op)
from .figures import Figure, ratio_between

KB = 1024
SIZES = [1 * KB, 4 * KB, 16 * KB, 64 * KB]
DURATION_US = 2000.0


def gbps(cluster, op, workers: int, size: int) -> float:
    """GB/s of ``size``-byte writes from ``workers`` loops of ``op()``."""
    rate = throughput_run(cluster, [op] * workers, duration_us=DURATION_US)
    return rate * size / 1000.0  # bytes/us -> GB/s


def verbs_tput(size: int, workers: int) -> float:
    state = verbs_pair(mr_bytes=1 << 20)
    return gbps(state["cluster"], lambda: verbs_write_op(state, size), workers,
                size)


def rdma_cm_tput(size: int, workers: int) -> float:
    cluster = Cluster(2)
    chan, _chan_b = cluster.run_process(
        rdma_cm_connect(cluster[0], cluster[1], buffer_bytes=1 << 20)
    )

    def op():
        yield from chan.write(0, 0, size)

    return gbps(cluster, op, workers, size)


def lite_tput(size: int, workers: int) -> float:
    cluster, ctx, lh = lite_lmr(1 << 20)
    payload = b"w" * size

    def op():
        yield from ctx.lt_write(lh, 0, payload)

    return gbps(cluster, op, workers, size)


def tcp_tput(size: int) -> float:
    def sink(conn):
        while True:
            yield from conn.recv_msg()

    cluster = Cluster(2)
    conn = tcp_connection(cluster, 6100, sink)
    payload = b"t" * size

    def op():
        yield from conn.send_msg(payload)

    return gbps(cluster, op, 1, size)


def run_fig07(_jobs):
    rows = []
    for size in SIZES:
        rows.append(
            (
                size // KB,
                lite_tput(size, 8),
                verbs_tput(size, 8),
                rdma_cm_tput(size, 8),
                lite_tput(size, 1),
                verbs_tput(size, 1),
                rdma_cm_tput(size, 1),
                tcp_tput(size),
            )
        )
    return rows


FIG07 = Figure(
    "fig07", "Figure 7: write throughput vs size (GB/s)",
    ["size_KB", "LITE-8", "Verbs-8", "CM-8", "LITE-1", "Verbs-1", "CM-1",
     "TCP/IP"],
    run_fig07,
    note="link ceiling = 5 GB/s raw, ~4 GB/s delivered at 64 KB",
    claim="All RDMA lines approach link rate at 64 KB x8; LITE ~= Verbs; TCP "
          "below.",
    checks={
        "all 8-way RDMA lines near the link ceiling (> 3 GB/s) at 64 KB":
            lambda t: all(t[64][line] > 3.0
                          for line in ("LITE-8", "Verbs-8", "CM-8")),
        "LITE-8 within 10% of Verbs-8 at 64 KB":
            ratio_between((64, "LITE-8"), (64, "Verbs-8"), lo=0.9),
        "single-stream TCP stays well below the RDMA ceiling (< 0.75x Verbs-8)":
            ratio_between((64, "TCP/IP"), (64, "Verbs-8"), hi=0.75),
        "single-thread LITE converges upward from 1 KB to 64 KB":
            lambda t: t[1]["LITE-1"] < t[64]["LITE-1"],
    },
)
