"""Figure 16: QoS timeline under the synthetic high/low-priority mix.

Scaled 1000:1 in time (ms of simulation per second of paper run):
20 low-priority threads run throughout (4 KB/8 KB reads and writes);
at t=2 ms, 20 high-priority threads join (4 KB ops); at t=12 ms high
threads pause and 8 of them resume at t=14 ms.  Sampled in 1 ms buckets.

Expected shape (paper):
- No QoS: high-priority gets only ~half the bandwidth while active.
- SW-Pri: high-priority near its no-contention rate AND best aggregate.
- HW-Sep: protects high-priority, but its reserved QPs idle when the
  high class is quiet, so aggregate bandwidth is the worst.
"""

from repro.core import PRIORITY_HIGH, PRIORITY_LOW, LiteContext, Permission

from .figures import Figure
from .test_fig15_qos_apps import qos_cluster

RUNTIME_US = 20_000.0
BUCKET_US = 1_000.0
HIGH_START = 2_000.0
HIGH_PAUSE = 12_000.0
HIGH_RESUME = 14_000.0


def run_mode(mode):
    cluster, kernels, _ = qos_cluster(mode, background=False, n_nodes=2)
    sim = cluster.sim
    n_buckets = int(RUNTIME_US / BUCKET_US)
    high_bytes = [0.0] * n_buckets
    total_bytes = [0.0] * n_buckets
    creator = LiteContext(kernels[0], "creator")
    cluster.run_process(creator.lt_malloc(
        1 << 20, name="qos-target", nodes=2,
        default_perm=Permission.READ | Permission.WRITE,
    ))
    start_time = sim.now

    def record(size, priority):
        bucket = int((sim.now - start_time) / BUCKET_US)
        if 0 <= bucket < n_buckets:
            total_bytes[bucket] += size
            if priority == PRIORITY_HIGH:
                high_bytes[bucket] += size

    def low_thread(index):
        ctx = LiteContext(kernels[0], f"low{index}", priority=PRIORITY_LOW)
        lh = yield from ctx.lt_map("qos-target")
        size = 8192 if index % 4 < 2 else 4096
        do_write = index % 2 == 0
        payload = b"l" * size
        while sim.now - start_time < RUNTIME_US:
            if do_write:
                yield from ctx.lt_write(lh, 0, payload)
            else:
                yield from ctx.lt_read(lh, 0, size)
            record(size, PRIORITY_LOW)

    def high_thread(index):
        ctx = LiteContext(kernels[0], f"high{index}", priority=PRIORITY_HIGH)
        lh = yield from ctx.lt_map("qos-target")
        payload = b"h" * 4096
        yield sim.timeout(HIGH_START)
        while sim.now - start_time < HIGH_PAUSE:
            if index % 2 == 0:
                yield from ctx.lt_write(lh, 4096, payload)
            else:
                yield from ctx.lt_read(lh, 4096, 4096)
            record(4096, PRIORITY_HIGH)
        if index < 8:
            yield sim.timeout(HIGH_RESUME - (sim.now - start_time))
            while sim.now - start_time < RUNTIME_US - 2_000.0:
                yield from ctx.lt_write(lh, 4096, payload)
                record(4096, PRIORITY_HIGH)

    def driver():
        procs = [sim.process(low_thread(i)) for i in range(20)]
        procs += [sim.process(high_thread(i)) for i in range(20)]
        yield sim.all_of(procs)

    cluster.run_process(driver())
    # GB/s per bucket.
    high_series = [b / BUCKET_US / 1000.0 for b in high_bytes]
    total_series = [b / BUCKET_US / 1000.0 for b in total_bytes]
    return high_series, total_series


def run_fig16(_jobs):
    series = {mode or "none": run_mode(mode)
              for mode in (None, "hw-sep", "sw-pri")}
    return [
        (bucket, *(series[mode][line][bucket]
                   for mode in ("sw-pri", "hw-sep", "none") for line in (1, 0)))
        for bucket in range(len(series["none"][0]))
    ]


def _mean(t, header, lo, hi):
    chunk = t.col(header)[lo:hi]
    return sum(chunk) / len(chunk)


CONTENDED = (4, 11)  # buckets where both classes are active

FIG16 = Figure(
    "fig16", "Figure 16: QoS timeline (GB/s per 1ms bucket)",
    ["ms", "SWPri-Tot", "SWPri-Hi", "HWSep-Tot", "HWSep-Hi", "NoQoS-Tot",
     "NoQoS-Hi"],
    run_fig16,
    claim="SW-Pri gives high priority its protection and the best aggregate; "
          "HW-Sep wastes reserved capacity while high is idle; no QoS halves "
          "high priority.",
    checks={
        "without QoS high priority gets roughly half (< 0.62x) under contention":
            lambda t: (_mean(t, "NoQoS-Hi", *CONTENDED)
                       < 0.62 * _mean(t, "NoQoS-Tot", *CONTENDED)),
        "SW-Pri hands high priority most (> 0.75x) of the bandwidth":
            lambda t: (_mean(t, "SWPri-Hi", *CONTENDED)
                       > 0.75 * _mean(t, "SWPri-Tot", *CONTENDED)),
        "SW-Pri high priority > 1.3x its no-QoS share":
            lambda t: (_mean(t, "SWPri-Hi", *CONTENDED)
                       > 1.3 * _mean(t, "NoQoS-Hi", *CONTENDED)),
        "HW-Sep also protects high priority (> 1.2x no QoS)":
            lambda t: (_mean(t, "HWSep-Hi", *CONTENDED)
                       > 1.2 * _mean(t, "NoQoS-Hi", *CONTENDED)),
        "HW-Sep wastes reserved capacity while high is idle (0-2 ms)":
            lambda t: (_mean(t, "HWSep-Tot", 0, 2)
                       < 0.8 * _mean(t, "SWPri-Tot", 0, 2)),
        "SW-Pri aggregate beats HW-Sep's over the run":
            lambda t: sum(t.col("SWPri-Tot")) > sum(t.col("HWSep-Tot")),
    },
)
