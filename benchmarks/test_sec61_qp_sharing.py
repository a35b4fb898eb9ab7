"""§6.1: queue-pair counts — LITE's K×N sharing vs per-process schemes.

The paper's accounting, per node, for N nodes and T threads per node:

- native Verbs (no sharing):      2 × N × T     QPs
- FaRM (per-app sharing, q=4):    2 × N × T / q QPs
- LITE (kernel-wide sharing):     K × N         QPs (1 <= K <= 4)

Verified against the live LITE instances (actual created QPs) plus the
arithmetic table for the paper's example scales.
"""

from .common import lite_pair
from .figures import Figure


def run_sec61(_jobs):
    rows = []
    n_threads = 8
    farm_q = 4
    for n_nodes in (2, 4, 8):
        cluster, kernels, _ = lite_pair(n_nodes=n_nodes)
        lite_actual = kernels[0].total_qps()
        k = cluster.params.lite_qp_factor_k
        rows.append(
            (
                n_nodes,
                2 * n_nodes * n_threads,
                2 * n_nodes * n_threads // farm_q,
                k * (n_nodes - 1),
                lite_actual,
            )
        )
    return rows


SEC61 = Figure(
    "sec61", "Sec 6.1: QPs per node (N nodes, 8 threads, FaRM q=4, LITE K=2)",
    ["nodes", "Verbs 2NT", "FaRM 2NT/q", "LITE K(N-1) expect", "LITE actual"],
    run_sec61,
    claim="Verbs needs 2NT QPs per node and FaRM 2NT/q; LITE shares K x N.",
    checks={
        "live LITE kernels create exactly K(N-1) QPs": lambda t: all(
            r["LITE actual"] == r["LITE K(N-1) expect"] for r in t),
        "LITE < FaRM < Verbs at every node count": lambda t: all(
            r["LITE actual"] < r["FaRM 2NT/q"] < r["Verbs 2NT"] for r in t),
        "the LITE advantage grows with threads: > 8x fewer QPs than Verbs "
        "at 8 nodes": lambda t: t[8]["Verbs 2NT"] / t[8]["LITE actual"] > 8,
    },
)
