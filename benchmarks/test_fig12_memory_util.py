"""Figure 12: RPC receive-memory utilization under the Facebook workload.

Send-based RPC must pre-post receive buffers sized for the largest
message; with 1–4 size-classed receive queues utilization improves but
stays poor for the Facebook value-size mixture.  LITE's write-imm ring
consumes payload + a 20 B header, so it sits near 100 %.

Key and value messages are scored separately, as in the paper's figure.
"""

from repro.baselines import LiteRingReceiver, memory_utilization
from repro.workloads import FacebookKV

from .figures import Figure, monotone, ratio_between

N_MESSAGES = 20_000
MAX_MESSAGE = 4096


def run_fig12(_jobs):
    workload = FacebookKV(seed=12, max_value=MAX_MESSAGE)
    key_sizes = [workload.key_size() for _ in range(N_MESSAGES)]
    value_sizes = [workload.value_size() for _ in range(N_MESSAGES)]

    rows = []
    for queues in (1, 2, 3, 4):
        rows.append(
            (
                f"{queues}RQ",
                100.0 * memory_utilization(key_sizes, queues, MAX_MESSAGE),
                100.0 * memory_utilization(value_sizes, queues, MAX_MESSAGE),
            )
        )
    key_ring = LiteRingReceiver(header_bytes=20)
    value_ring = LiteRingReceiver(header_bytes=20)
    for size in key_sizes:
        key_ring.deliver(size)
    for size in value_sizes:
        value_ring.deliver(size)
    rows.append(
        ("LITE", 100.0 * key_ring.utilization(), 100.0 * value_ring.utilization())
    )
    return rows


RQS = ["1RQ", "2RQ", "3RQ", "4RQ"]

FIG12 = Figure(
    "fig12", "Figure 12: RPC memory utilization, Facebook KV distribution (%)",
    ["scheme", "key msgs", "value msgs"], run_fig12,
    claim="LITE near-full utilization vs <= 50% for 1-4 RQ send/recv.",
    checks={
        "more receive queues monotonically improve key utilization":
            monotone("key msgs", RQS),
        "more receive queues monotonically improve value utilization":
            monotone("value msgs", RQS),
        "LITE > 1.15x 4RQ for keys":
            ratio_between(("LITE", "key msgs"), ("4RQ", "key msgs"), lo=1.15),
        "LITE > 1.15x 4RQ for values":
            ratio_between(("LITE", "value msgs"), ("4RQ", "value msgs"),
                          lo=1.15),
        "LITE key utilization > 55% (keys are tiny: header-bound)":
            lambda t: t["LITE"]["key msgs"] > 55.0,
        "LITE value utilization > 85%":
            lambda t: t["LITE"]["value msgs"] > 85.0,
        "single-queue send/recv wastes most key memory (< 10%)":
            lambda t: t["1RQ"]["key msgs"] < 10.0,
    },
)
