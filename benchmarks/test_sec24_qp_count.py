"""§2.4 third axis: RDMA performance vs the number of active QPs.

RNICs keep per-QP connection state in SRAM; cycling traffic over many
QPs thrashes that cache and degrades latency (the effect FaRM reported
and FaSST's UD design dodges).  LITE needs only K×N QPs regardless of
how many applications/threads run, so it never enters this regime.
"""

import random

from .common import latency_of, lite_lmr, verbs_pair, verbs_write_op
from .figures import Figure, ratio_between

QP_COUNTS = [4, 64, 256, 1024]
VERBS = "Verbs (per-thread QPs)"


def verbs_latency_with_qps(n_qps: int) -> float:
    state = verbs_pair(mr_bytes=1 << 20)
    cluster = state["cluster"]
    a, b = cluster[0], cluster[1]
    qps = [state["qa"]]
    for _ in range(n_qps - 1):
        qa = a.device.create_qp(state["pd_a"], "RC", send_cq=None)
        qb = b.device.create_qp(state["pd_b"], "RC", send_cq=None)
        a.device.connect(qa, qb)
        qps.append(qa)
    rng = random.Random(24)

    def op():
        return verbs_write_op(state, 64, qp=qps[rng.randrange(len(qps))])

    return latency_of(cluster, op, count=400, warmup=50)


def lite_latency_with_many_threads() -> float:
    """LITE: any number of threads share the same K QPs — one number."""
    cluster, ctx, lh = lite_lmr(1 << 16)
    payload = b"q" * 64

    def op():
        yield from ctx.lt_write(lh, 0, payload)

    return latency_of(cluster, op, count=400, warmup=50)


def run_sec24(_jobs):
    lite = lite_latency_with_many_threads()
    rows = []
    for count in QP_COUNTS:
        rows.append((count, lite, verbs_latency_with_qps(count)))
    return rows


SEC24_QP = Figure(
    "sec24-qp", "Sec 2.4: 64B write latency vs active QPs (us)",
    ["#QPs", "LITE (KxN shared)", "Verbs (per-thread QPs)"], run_sec24,
    note="QP-state SRAM holds ~256 entries; LITE never exceeds KxN",
    claim="RDMA latency degrades once active QPs overflow the RNIC's "
          "QP-state SRAM; LITE's KxN shared QPs never reach that regime.",
    checks={
        "within SRAM reach Verbs is fine (64 QPs < 1.3x 4 QPs)":
            ratio_between((64, VERBS), (4, VERBS), hi=1.3),
        "beyond it per-QP state thrashes: 1024 QPs >= 1.4x 4 QPs":
            ratio_between((1024, VERBS), (4, VERBS), lo=1.4),
        "LITE's shared-QP latency beats Verbs at 1024 QPs":
            lambda t: t[1024]["LITE (KxN shared)"] < t[1024][VERBS],
    },
)
