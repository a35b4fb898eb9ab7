"""Ablations of LITE's design choices (DESIGN.md §6).

1. Global physical MR vs per-LMR virtual MRs — removing the §4.1 trick
   reintroduces the Figure 4 key-cache degradation (and re-adds
   pinning cost to LT_malloc).
2. Chunked LMRs vs one huge contiguous region — the <2 % overhead
   claim of §4.1.
3. Shared-page syscall optimization vs naive syscalls (§5.2:
   0.9 µs -> 0.17 µs of crossings per RPC).
4. Adaptive busy-check-then-sleep vs always-busy client waits (§5.2) —
   CPU per request at light load.
5. The K factor in K×N QP sharing (§6.1: 1 <= K <= 4 is the sweet
   spot).
"""

import random

from repro.core import LiteContext, rpc_server_loop
from repro.hw import SimParams

from .common import latency_of, lite_lmr, lite_pair, settle, throughput_run
from .figures import Figure, ratio_between
from .test_fig04_mr_count import lite_latency


# ------------------------------------------------------------------ 1 --

def run_ablation_global_mr(_jobs):
    rows = []
    for n_lmrs in (10, 1000, 10000):
        glob, glob_malloc = lite_latency(n_lmrs, seed=2, count=300)
        per_mr, per_malloc = lite_latency(n_lmrs, seed=2, count=300,
                                          use_global_mr=False)
        rows.append((n_lmrs, glob, per_mr, glob_malloc, per_malloc))
    return rows


ABLATION1 = Figure(
    "ablation1", "Ablation 1: global physical MR vs per-LMR MRs (64B write, us)",
    ["#LMRs", "global-MR write", "per-MR write", "global-MR malloc",
     "per-MR malloc"],
    run_ablation_global_mr,
    claim="One global physical MR keeps LT_write flat in the LMR count "
          "(§4.1); per-LMR MRs bring back Fig 4's key-cache degradation and "
          "pin pages at LT_malloc.",
    checks={
        "with the global MR latency is flat (< 1.1x from 10 to 10K LMRs)":
            ratio_between((10000, "global-MR write"), (10, "global-MR write"),
                          hi=1.1),
        "without it the key-cache degradation returns (> 1.5x global at 10K)":
            ratio_between((10000, "per-MR write"), (10000, "global-MR write"),
                          lo=1.5),
        "per-MR writes degrade > 1.5x from 10 to 10K LMRs":
            ratio_between((10000, "per-MR write"), (10, "per-MR write"), lo=1.5),
        "per-MR mode also pays pinning at LT_malloc time":
            lambda t: t[10]["per-MR malloc"] > t[10]["global-MR malloc"],
    },
)


# ------------------------------------------------------------------ 2 --

def run_ablation_chunking(_jobs):
    rows = []
    for chunk_mb, label in ((4, "4MB chunks"), (128, "contiguous")):
        params = SimParams(lite_chunk_bytes=chunk_mb << 20)
        cluster, ctx, lh = lite_lmr(128 << 20, params)
        rng = random.Random(3)
        payload = b"c" * 1024

        def op():
            yield from ctx.lt_write(lh, rng.randrange((128 << 20) - 1024), payload)

        rate = throughput_run(cluster, [op] * 16, duration_us=800.0)
        rows.append((label, len(lh.mapping.chunks), rate))
    return rows


ABLATION2 = Figure(
    "ablation2",
    "Ablation 2: chunked vs contiguous 128MB LMR (1KB writes, req/us)",
    ["layout", "chunks", "throughput"], run_ablation_chunking,
    note="paper §4.1: chunking costs < 2%",
    claim="Building an LMR from 4 MB chunks instead of one contiguous "
          "region costs < 2% (§4.1).",
    checks={
        "a 128 MB LMR is 32 chunks of 4 MB, or 1 contiguous region":
            lambda t: t["4MB chunks"]["chunks"] == 32
            and t["contiguous"]["chunks"] == 1,
        "chunking costs < 2% of throughput": lambda t: (
            abs(t["4MB chunks"]["throughput"] - t["contiguous"]["throughput"])
            / t["contiguous"]["throughput"] < 0.02),
    },
)


# ------------------------------------------------------------------ 3 --

def _rpc_pair(params=None, busy_server=False):
    """Client context "c" on node 1 and an RPC server "s" on node 2 that
    replies 64 B (busy-waiting for requests if ``busy_server``)."""
    cluster, kernels, _ = lite_pair(params=params)
    client = LiteContext(kernels[0], "c")
    server = LiteContext(kernels[1], "s")
    if busy_server:
        def busy_waiter(event):
            value = yield from server.kernel.node.cpu.busy_wait(
                event, tag=server._tag)
            return value

        server._waiter = lambda: busy_waiter
    cluster.sim.process(rpc_server_loop(server, 1, lambda d: b"r" * 64))
    settle(cluster)
    return cluster, client, server


def _rpc_latency_with(params):
    cluster, client, _server = _rpc_pair(params)

    def op():
        yield from client.lt_rpc(2, 1, b"q" * 8, max_reply=128)

    return latency_of(cluster, op, count=150, warmup=20)


def run_ablation_syscall(_jobs):
    optimized = _rpc_latency_with(SimParams())
    # Naive path (§5.2): 3 syscalls / 6 crossings ~= 0.9 us per RPC,
    # charged as 0.45 us on entry and return.
    naive = _rpc_latency_with(
        SimParams(lite_syscall_enter_us=0.45, lite_sharedpage_return_us=0.45)
    )
    return [("optimized (shared page)", optimized), ("naive syscalls", naive)]


ABLATION3 = Figure(
    "ablation3", "Ablation 3: syscall model, 8B->64B LT_RPC latency (us)",
    ["model", "latency"], run_ablation_syscall,
    note="paper §5.2: 0.9us naive vs 0.17us optimized crossings",
    claim="The shared-page syscall path cuts an RPC's user-kernel crossings "
          "from 0.9 us to 0.17 us (§5.2).",
    checks={
        # The client avoids ~0.73 us of crossings; the server's recv/reply
        # path avoids roughly as much again on the critical path.
        "naive syscalls add 0.5-2.2 us per RPC": lambda t: (
            0.5 < t["naive syscalls"]["latency"]
            - t["optimized (shared page)"]["latency"] < 2.2),
    },
)


# ------------------------------------------------------------------ 4 --

def run_ablation_adaptive(_jobs):
    """Server-side waits dominate at light load: the server thread sits
    in LT_recvRPC for most of each inter-arrival gap."""
    out = []
    for mode in ("adaptive", "busy"):
        cluster, client, server = _rpc_pair(busy_server=mode == "busy")
        server_cpu = server.kernel.node.cpu
        sim = cluster.sim
        server_cpu.reset_accounting()
        n_requests = 50

        def driver():
            rng = random.Random(4)
            for _ in range(n_requests):
                # Light load: ~500 us between requests.
                yield sim.timeout(400 + rng.random() * 200)
                yield from client.lt_rpc(2, 1, b"q" * 8, max_reply=128)

        cluster.run_process(driver())
        per_request = server_cpu.busy_time.get(server._tag, 0.0) / n_requests
        out.append((mode, per_request))
    return out


ABLATION4 = Figure(
    "ablation4", "Ablation 4: server wait model, CPU us per request at light load",
    ["wait model", "server-thread CPU / request"], run_ablation_adaptive,
    note="adaptive sleeps after a 10us busy window; busy spins the gap",
    claim="Busy-checking briefly and then sleeping spares the CPU that "
          "always-busy waits burn at light load (§5.2).",
    checks={
        # Adaptive charges ~window+wakeup (~12 us); busy burns the whole
        # ~500 us inter-arrival gap.
        "adaptive waits cost < 0.1x the CPU of busy waits": ratio_between(
            ("adaptive", "server-thread CPU / request"),
            ("busy", "server-thread CPU / request"), hi=0.1),
    },
)


# ------------------------------------------------------------------ 5 --

def run_ablation_k_factor(_jobs):
    rows = []
    for k in (1, 2, 4, 8):
        # Small per-QP windows so the QP count is the lever (real QPs
        # bound outstanding WRs; huge windows would mask K entirely).
        params = SimParams(lite_qp_factor_k=k, lite_qp_window=4)
        cluster, ctx, lh = lite_lmr(1 << 16, params)
        payload = b"k" * 64

        def op():
            yield from ctx.lt_write(lh, 0, payload)

        rate = throughput_run(cluster, [op] * 32, duration_us=800.0)
        rows.append((k, rate))
    return rows


ABLATION5 = Figure(
    "ablation5",
    "Ablation 5: K in KxN QP sharing (64B write tput, req/us, 32 thr)",
    ["K", "throughput"], run_ablation_k_factor,
    note="paper §6.1: 1 <= K <= 4 gives best performance",
    claim="1 <= K <= 4 shared QPs per peer gives the best performance (§6.1).",
    checks={
        "going from K=1 to K=2 helps (more windows in flight)":
            lambda t: t[2]["throughput"] >= t[1]["throughput"],
        "past the sweet spot more QPs stop helping (K=8 < 1.1x K=4)":
            ratio_between((8, "throughput"), (4, "throughput"), hi=1.10),
    },
)
