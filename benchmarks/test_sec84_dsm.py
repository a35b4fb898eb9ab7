"""§8.4: LITE-DSM operation latencies on four nodes.

The paper reports: 4 KB random/sequential reads 12.6/17.2 µs; sync
begin (acquire) 9.2 µs; commit of 10 dirty 4 KB pages 74.3 µs.  The
same four micro-operations are measured here.
"""

import random

from repro.apps.dsm import LiteDsm, PAGE_SIZE
from repro.core import lite_boot
from repro.cluster import Cluster

from .figures import Figure, ratio_between

N_PAGES = 256


def run_sec84(_jobs):
    cluster = Cluster(4)
    kernels = lite_boot(cluster)
    dsm = LiteDsm(kernels, "bench", N_PAGES * PAGE_SIZE)
    cluster.run_process(dsm.build())
    sim = cluster.sim
    node = dsm.nodes[0]
    rng = random.Random(84)

    def seed_data():
        writer = dsm.nodes[1]
        yield from writer.acquire(0, N_PAGES * PAGE_SIZE)
        for page in range(0, N_PAGES, 16):
            yield from writer.write(page * PAGE_SIZE, bytes([page % 256]) * 64)
        yield from writer.release()

    cluster.run_process(seed_data())

    def reads(reader, pages):
        samples = []
        for page in pages:
            start = sim.now
            yield from reader.read(page * PAGE_SIZE, PAGE_SIZE)
            samples.append(sim.now - start)
        return sum(samples) / len(samples)

    # -- 4 KB random reads (cold pages, remote homes) -------------------
    pages = [p for p in range(N_PAGES) if p % 4 != 0]
    rng.shuffle(pages)
    random_read = cluster.run_process(reads(node, pages[:40]))
    # -- 4 KB sequential reads (fresh region) ----------------------------
    sequential_read = cluster.run_process(reads(dsm.nodes[2], range(40)))

    # -- sync begin (acquire 10 pages) ------------------------------------
    def sync_begin():
        samples = []
        for round_index in range(20):
            base = (round_index % 8) * 10 * PAGE_SIZE
            start = sim.now
            yield from node.acquire(base, 10 * PAGE_SIZE)
            samples.append(sim.now - start)
            yield from node.release()
        return sum(samples) / len(samples)

    # -- sync commit with 10 dirty pages -----------------------------------
    def sync_commit():
        samples = []
        for round_index in range(20):
            base = (round_index % 8) * 10 * PAGE_SIZE
            yield from node.acquire(base, 10 * PAGE_SIZE)
            for page in range(10):
                yield from node.write(base + page * PAGE_SIZE, b"d" * PAGE_SIZE)
            start = sim.now
            yield from node.release()
            samples.append(sim.now - start)
        return sum(samples) / len(samples)

    return [("random 4KB read", random_read),
            ("sequential 4KB read", sequential_read),
            ("sync begin (10 pages)", cluster.run_process(sync_begin())),
            ("sync commit (10 dirty pages)", cluster.run_process(sync_commit()))]


SEC84 = Figure(
    "sec84", "Sec 8.4: LITE-DSM latencies, 4 nodes (us)",
    ["operation", "latency"], run_sec84,
    note="paper: reads 12.6/17.2; sync begin 9.2; commit 10 pages 74.3",
    claim="4 KB reads take 12.6/17.2 us, sync begin 9.2 us and the commit of "
          "10 dirty pages 74.3 us.",
    checks={
        "random 4 KB read in 8-25 us":
            lambda t: 8.0 < t["random 4KB read"]["latency"] < 25.0,
        "sequential 4 KB read in 8-25 us":
            lambda t: 8.0 < t["sequential 4KB read"]["latency"] < 25.0,
        "sync begin (10 pages) in 4-20 us":
            lambda t: 4.0 < t["sync begin (10 pages)"]["latency"] < 20.0,
        "sync commit (10 dirty pages) in 15-120 us":
            lambda t: 15.0 < t["sync commit (10 dirty pages)"]["latency"] < 120.0,
        # Paper: 9.2 vs 74.3.
        "a 10-page commit costs > 2.5x an acquire": ratio_between(
            ("sync commit (10 dirty pages)", "latency"),
            ("sync begin (10 pages)", "latency"), lo=2.5),
    },
)
