"""The six frozen perfbench workloads.

Each workload is three functions over plain data:

- ``make_inputs(seed, scale)`` builds the whole input schedule (keys,
  sizes, op order, corpus, edge list ...) from the seed alone.  It is
  the only place a random number is drawn; the simulator receives
  generated inputs only.
- ``build(inputs, fastpath)`` builds fresh cluster(s), boots LITE and
  registers/preloads the working set through the public control-plane
  API.  Its host wall time is the ``setup_s`` metric.
- ``run(state, inputs, rec)`` is the timed region; ``check`` runs after
  the clock stops and holds the heavier output checks.

Sizes were tuned once for the 2-core reference host (timed region
>= 1.2 s, set-up >= 0.3 s) and are frozen under ``WORKLOADS_VERSION``.
Changing a size, a generator or an op order changes the input digest
and must bump the version: results are comparable only within one.
"""

from __future__ import annotations

import hashlib
import inspect
import random
import struct
import time
from collections import Counter
from contextlib import contextmanager
from types import SimpleNamespace

from repro.apps.graph import LiteGraph, PartitionedGraph, pagerank_reference
from repro.apps.kvstore import LiteKVClient, LiteKVServer
from repro.apps.litelog import LiteLog, LogWriter
from repro.apps.mapreduce import LiteMR
from repro.cluster import Cluster
from repro.core import LiteContext, LiteError, lite_boot, rpc_server_loop
from repro.fault import FaultInjector, FaultPlan
from repro.recovery import RecoveryManager
from repro.verbs import Access, Opcode, SendWR, Sge
from repro.workloads import (
    FacebookKV,
    ZipfSampler,
    generate_corpus,
    powerlaw_graph,
    run_churn,
)

WORKLOADS_VERSION = 1
DEFAULT_SEED = 11

# SHA-256 of each workload's generated inputs at DEFAULT_SEED, scale 1.
FROZEN_DIGESTS = {
    "micro_1c": "ff65815151541a5201d24b0c558160f955eebc26a60e30bd7acb79da05f31b6a",
    "rpc_fanin": "393298f92b21aebd299ef5664f136327012c8a9a3e769dcb2c2b99a34b8c25e3",
    "kv_etc_4c": "f49501f36ffb48522c44c488514e28093d443d1ae76c3f853a627c5a10dfd0a8",
    "verbs_mr_thrash": "85b5dd820b603f5f7b8be599645ef3959f4c13fae82c7cd006efef03f4cf0856",
    "apps_batch": "3aaf345ae1ad00fe94797eb93a91c788e3fb6a94a26929a826e680f2a5f02b76",
    "churn_recovery": "45a67ace97ea78ea4f6919322202feba40542f905083ee5b57f1d3e4d918963b",
}

KB = 1024
MB = 1024 * 1024

_FUNC_ECHO = 1


class Recorder:
    """What one pass observed.

    ``ops`` counts application-level operations attempted, ``lat`` holds
    one simulated latency (us) per timed op, ``failures`` counts failed
    checks by name, ``segments`` the per-segment host and simulated
    time.  ``extra`` carries workload-specific counter surfaces
    (ChurnStats, RecoveryManager ...) to the traced passes.
    """

    def __init__(self):
        self.ops = 0
        self.lat = []
        self.retries = 0
        self.failures = Counter()
        self.segments = {}
        self.extra = {}

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    def fail(self, check: str, count: int = 1) -> None:
        self.failures[check] += count

    @contextmanager
    def segment(self, name: str, sim):
        """Clock one named segment (host wall and simulated time)."""
        ops_before = self.ops
        sim_before = sim.now
        start = time.perf_counter()
        yield
        wall = time.perf_counter() - start
        self.segments[name] = {
            "ops": self.ops - ops_before,
            "wall_s": wall,
            "sim_us": sim.now - sim_before,
        }


def _cluster(n_nodes: int, fastpath: bool) -> Cluster:
    cluster = Cluster(n_nodes)
    if not fastpath:
        cluster.sim.fastpath_enabled = False
    return cluster


def _scaled(count: int, scale: float, floor: int = 1) -> int:
    return max(floor, int(count * scale))


def _working_set(ctx, count: int, nodes=None):
    """lt_malloc ``count`` 4 KB LMRs (generator): the resident working
    set every LITE workload registers during set-up."""
    for _ in range(count):
        yield from ctx.lt_malloc(4 * KB, nodes=nodes)


class Workload:
    """Shared shape of the six workloads (see the module docstring)."""

    @staticmethod
    def check(state, inputs: dict, rec: Recorder) -> None:
        """Output checks too heavy for the timed region; default none."""


# ---------------------------------------------------------------- micro_1c --

class Micro1c(Workload):
    name = "micro_1c"
    loop = "closed, 1 client"
    segments = ("w64", "r64", "w4k", "r4k", "w1m", "r1m", "rpc512")

    @staticmethod
    def make_inputs(seed: int, scale: float) -> dict:
        rng = random.Random(seed)
        n64 = _scaled(6500, scale, 20)
        n4k = _scaled(5500, scale, 20)
        n1m = _scaled(3500, scale, 16)
        nrpc = _scaled(3000, scale, 20)
        # Schedules are (offset, tag); the tag picks payload and size.
        w64 = [(rng.randrange(MB // 64) * 64, rng.randrange(256))
               for _ in range(n64)]
        w4k = [(rng.randrange(MB // (4 * KB)) * 4 * KB, rng.randrange(256))
               for _ in range(n4k)]
        w1m = [(rng.randrange(8) * MB, rng.randrange(8)) for _ in range(n1m)]
        return {
            "w64": w64,
            # Reads revisit written locations so every byte is checkable.
            "r64": [w64[rng.randrange(n64)][0] for _ in range(n64)],
            "w4k": w4k,
            "r4k": [w4k[rng.randrange(n4k)][0] for _ in range(n4k)],
            "w1m": w1m,
            "r1m": [w1m[rng.randrange(n1m)][0] for _ in range(n1m)],
            "rpc512": [rng.randrange(16) for _ in range(nrpc)],
            "working_set": _scaled(1600, scale, 8),
        }

    @staticmethod
    def build(inputs: dict, fastpath: bool):
        cluster = _cluster(2, fastpath)
        kernels = lite_boot(cluster)
        ctx = LiteContext(kernels[0], "bench", kernel_level=True)
        client = LiteContext(kernels[0], "cli")
        server = LiteContext(kernels[1], "srv")
        reply_4k = b"p" * (4 * KB)
        # Echo, except the 8 B paper-anchor probe, which asks for 4 KB.
        cluster.sim.process(rpc_server_loop(
            server, _FUNC_ECHO,
            lambda data: reply_4k if len(data) == 8 else data))
        state = SimpleNamespace(clusters=[cluster], ctx=ctx, client=client)

        def setup():
            state.small = yield from ctx.lt_malloc(1 * MB, nodes=2)
            state.big = yield from ctx.lt_malloc(8 * MB, nodes=2)
            yield from _working_set(ctx, inputs["working_set"], nodes=2)
            # First call binds the RPC ring: lazy set-up, not steady state.
            yield from client.lt_rpc(2, _FUNC_ECHO, b"w" * 512, max_reply=1024)

        cluster.run_process(setup())
        return state

    @staticmethod
    def run(state, inputs: dict, rec: Recorder) -> None:
        cluster = state.clusters[0]
        sim = cluster.sim
        ctx, lat = state.ctx, rec.lat
        shadow = {}

        def writes(lh, schedule, payloads):
            for offset, tag in schedule:
                data = payloads[tag]
                start = sim.now
                yield from ctx.lt_write(lh, offset, data)
                lat.append(sim.now - start)
                shadow[(lh, offset)] = data

        def reads(lh, schedule, name, full_every):
            bad = 0
            for index, offset in enumerate(schedule):
                want = shadow[(lh, offset)]
                start = sim.now
                data = yield from ctx.lt_read(lh, offset, len(want))
                lat.append(sim.now - start)
                if index % full_every:
                    # A 1 MB compare costs as much as the op: check the
                    # ends, compare in full every full_every-th read.
                    ok = (len(data) == len(want) and data[:64] == want[:64]
                          and data[-64:] == want[-64:])
                else:
                    ok = data == want
                bad += not ok
            if bad:
                rec.fail(f"read_back_{name}", bad)

        def rpcs(schedule, payloads):
            bad = 0
            for tag in schedule:
                data = payloads[tag]
                start = sim.now
                reply = yield from state.client.lt_rpc(
                    2, _FUNC_ECHO, data, max_reply=1024)
                lat.append(sim.now - start)
                bad += reply != data
            if bad:
                rec.fail("rpc_echo", bad)

        def payloads(size, first, count=256):
            return [bytes((first + tag & 0xFF,)) * size
                    for tag in range(count)]

        small, big = state.small, state.big
        plan = (
            ("w64", writes(small, inputs["w64"], payloads(64, 0))),
            ("r64", reads(small, inputs["r64"], "r64", 1)),
            ("w4k", writes(small, inputs["w4k"], payloads(4 * KB, 7))),
            ("r4k", reads(small, inputs["r4k"], "r4k", 1)),
            # Exactly 1 MB at 1 MB-aligned offsets: anything else defeats
            # the simulator's whole-block aliasing and turns the segment
            # into a host memcpy benchmark.
            ("w1m", writes(big, inputs["w1m"], payloads(MB, 1, 8))),
            ("r1m", reads(big, inputs["r1m"], "r1m", 8)),
            ("rpc512", rpcs(inputs["rpc512"], payloads(512, 65, 16))),
        )
        for name, driver in plan:
            with rec.segment(name, sim):
                cluster.run_process(driver)
                rec.ops += len(inputs[name])

    @staticmethod
    def paper_probe(state) -> float:
        """Mean simulated us of an 8 B -> 4 KB LT_RPC (Fig 10's point)."""
        cluster = state.clusters[0]
        sim = cluster.sim
        samples = []

        def probe():
            for _ in range(60):
                start = sim.now
                yield from state.client.lt_rpc(
                    2, _FUNC_ECHO, b"k" * 8, max_reply=4 * KB + 64)
                samples.append(sim.now - start)

        cluster.run_process(probe())
        return sum(samples[10:]) / len(samples[10:])


# --------------------------------------------------------------- rpc_fanin --

def _etc_sizes(seed: int, count: int, max_value: int):
    return FacebookKV(seed=seed, max_value=max_value).request_sizes(count)


class RpcFanin(Workload):
    name = "rpc_fanin"
    loop = "closed, 14 clients"
    segments = ("fanin",)
    N_CLIENTS = 14

    @classmethod
    def make_inputs(cls, seed: int, scale: float) -> dict:
        rng = random.Random(seed)
        calls = _scaled(330, scale, 6)
        sizes = _etc_sizes(seed, cls.N_CLIENTS * calls, 4 * KB)
        return {
            "calls": [
                [(sizes[client * calls + index], rng.randrange(1, 256))
                 for index in range(calls)]
                for client in range(cls.N_CLIENTS)
            ],
            "working_set": _scaled(100, scale, 2),
        }

    @classmethod
    def build(cls, inputs: dict, fastpath: bool):
        cluster = _cluster(8, fastpath)
        kernels = lite_boot(cluster)
        server = LiteContext(kernels[0], "srv")

        def handler(request: bytes) -> bytes:
            size, tag = struct.unpack_from("<IB", request)
            return bytes((tag,)) * size

        for _ in range(4):
            cluster.sim.process(rpc_server_loop(server, _FUNC_ECHO, handler))
        clients = [
            LiteContext(kernels[1 + index // 2], f"cli{index}")
            for index in range(cls.N_CLIENTS)
        ]

        def warm(ctx):
            # Client buffers live on the server node: remote lt_malloc.
            yield from _working_set(ctx, inputs["working_set"], nodes=1)
            yield from ctx.lt_rpc(1, _FUNC_ECHO, _fanin_request(8, 1),
                                  max_reply=4 * KB + 64)

        def setup():
            yield cluster.sim.all_of(
                [cluster.sim.process(warm(ctx)) for ctx in clients])

        cluster.run_process(setup())
        return SimpleNamespace(clusters=[cluster], clients=clients)

    @staticmethod
    def run(state, inputs: dict, rec: Recorder) -> None:
        cluster = state.clusters[0]
        sim = cluster.sim
        lat = rec.lat
        bad = [0]

        def client(ctx, calls):
            for size, tag in calls:
                request = _fanin_request(size, tag)
                start = sim.now
                reply = yield from ctx.lt_rpc(
                    1, _FUNC_ECHO, request, max_reply=4 * KB + 64)
                lat.append(sim.now - start)
                if len(reply) != size or reply.count(tag) != size:
                    bad[0] += 1

        def driver():
            yield sim.all_of([
                sim.process(client(ctx, calls))
                for ctx, calls in zip(state.clients, inputs["calls"])
            ])

        with rec.segment("fanin", sim):
            cluster.run_process(driver())
            rec.ops += sum(len(calls) for calls in inputs["calls"])
        if bad[0]:
            rec.fail("rpc_reply_bytes", bad[0])


def _fanin_request(size: int, tag: int) -> bytes:
    return struct.pack("<IB", size, tag).ljust(64, b"\x00")


# --------------------------------------------------------------- kv_etc_4c --

class KvEtc4c(Workload):
    name = "kv_etc_4c"
    loop = "closed, 4 clients"
    segments = ("read_heavy", "write_heavy")
    N_CLIENTS = 4
    N_KEYS = 2000

    @classmethod
    def make_inputs(cls, seed: int, scale: float) -> dict:
        rng = random.Random(seed)
        n_keys = _scaled(cls.N_KEYS, scale, 40) // 4 * 4
        sampler = FacebookKV(seed=seed)
        keys = []
        for index in range(n_keys):
            stem = f"k{index:06d}"
            keys.append(stem.ljust(max(len(stem), sampler.key_size()), "x"))
        zipf = ZipfSampler(n_keys, s=0.99, rng=random.Random(seed + 1))

        def schedule(count: int, put_share: float):
            ops = []
            for _ in range(count):
                ops.append((rng.random() < put_share, zipf.sample()))
            return ops

        reads = _scaled(1000, scale, 10)
        writes = _scaled(350, scale, 10)
        return {
            "keys": keys,
            # ETC body size by (key, version); every value also carries
            # the 8 B (key, version) stamp the GET check decodes.
            "sizes": _etc_sizes(seed + 2, 4096, 2 * KB - 8),
            "read_heavy": [schedule(reads, 0.05)
                           for _ in range(cls.N_CLIENTS)],
            "write_heavy": [schedule(writes, 0.50)
                            for _ in range(cls.N_CLIENTS)],
        }

    @classmethod
    def build(cls, inputs: dict, fastpath: bool):
        cluster = _cluster(4, fastpath)
        kernels = lite_boot(cluster)
        servers = [LiteKVServer(kernels[index], index, log_bytes=8 * MB)
                   for index in range(2)]
        clients = [
            LiteKVClient(kernels[2 + index // 2], servers, f"kvc{index}")
            for index in range(cls.N_CLIENTS)
        ]
        keys = [key.encode() for key in inputs["keys"]]
        # shadow[key index] = [last committed version, last issued version]
        shadow = [[0, 0] for _ in keys]
        state = SimpleNamespace(clusters=[cluster], servers=servers,
                                kv_clients=clients, keys=keys, shadow=shadow)

        def preload(index, client):
            # Key k is only ever written by client k % 4, so its
            # versions are totally ordered.
            for key_index in range(index, len(keys), cls.N_CLIENTS):
                yield from _kv_put(state, inputs, client, key_index)

        def setup():
            for server in servers:
                yield from server.start(n_server_threads=2)
            yield cluster.sim.all_of([
                cluster.sim.process(preload(index, client))
                for index, client in enumerate(clients)
            ])

        cluster.run_process(setup())
        return state

    @classmethod
    def run(cls, state, inputs: dict, rec: Recorder) -> None:
        cluster = state.clusters[0]
        sim = cluster.sim
        lat = rec.lat
        n_clients = cls.N_CLIENTS

        def client(index, kv, ops):
            for is_put, key_index in ops:
                start = sim.now
                if is_put:
                    own = key_index - key_index % n_clients + index
                    yield from _kv_put(state, inputs, kv, own)
                else:
                    yield from _kv_get(state, inputs, kv, key_index, rec)
                lat.append(sim.now - start)

        for name in cls.segments:
            def driver():
                yield sim.all_of([
                    sim.process(client(index, kv, ops))
                    for index, (kv, ops) in enumerate(
                        zip(state.kv_clients, inputs[name]))
                ])

            with rec.segment(name, sim):
                cluster.run_process(driver())
                rec.ops += sum(len(ops) for ops in inputs[name])


def _kv_value(inputs: dict, key_index: int, version: int) -> bytes:
    sizes = inputs["sizes"]
    size = sizes[(key_index * 31 + version) % len(sizes)]
    stamp = struct.pack("<II", key_index, version)
    return stamp + bytes((version & 0xFF,)) * size


def _kv_put(state, inputs, client, key_index: int):
    slot = state.shadow[key_index]
    slot[1] += 1
    version = slot[1]
    yield from client.put(state.keys[key_index],
                          _kv_value(inputs, key_index, version))
    slot[0] = version


def _kv_get(state, inputs, client, key_index: int, rec: Recorder):
    """GET checked against the shadow: the value must be byte-exact for
    some version between the last one committed before the GET started
    and the last one issued before it returned."""
    slot = state.shadow[key_index]
    committed = slot[0]
    value = None
    for _ in range(3):
        value = yield from client.get(state.keys[key_index])
        if value is not None:
            break
        rec.retries += 1  # torn twice in a row under a racing PUT
    if value is None or len(value) < 8:
        rec.fail("kv_get_missing")
        return
    got_key, version = struct.unpack_from("<II", value)
    if (got_key != key_index or not committed <= version <= slot[1]
            or value != _kv_value(inputs, key_index, version)):
        rec.fail("kv_get_bytes")


# --------------------------------------------------------- verbs_mr_thrash --

class VerbsMrThrash(Workload):
    name = "verbs_mr_thrash"
    loop = "closed, 1 client"
    segments = ("reg", "hot", "thrash")
    HOT_MRS = 50

    @classmethod
    def make_inputs(cls, seed: int, scale: float) -> dict:
        rng = random.Random(seed)
        thrash_mrs = _scaled(60_000, scale, 500)

        def schedule(count: int, n_mrs: int):
            """(is_read, mr, tag): reads revisit an earlier write."""
            ops, written = [], []
            for index in range(count):
                if index & 1 and written:
                    ops.append((True, written[rng.randrange(len(written))], 0))
                else:
                    mr = rng.randrange(n_mrs)
                    written.append(mr)
                    ops.append((False, mr, rng.randrange(1, 256)))
            return ops

        return {
            "thrash_mrs": thrash_mrs,
            "reg": _scaled(10_000, scale, 10),
            "hot": schedule(_scaled(9000, scale, 20), cls.HOT_MRS),
            "thrash": schedule(_scaled(9000, scale, 20), thrash_mrs),
        }

    @classmethod
    def build(cls, inputs: dict, fastpath: bool):
        cluster = _cluster(2, fastpath)
        a, b = cluster[0], cluster[1]
        state = SimpleNamespace(clusters=[cluster], mrs=[])

        def setup():
            pd_a, pd_b = a.device.alloc_pd(), b.device.alloc_pd()
            state.pd_a = pd_a
            state.local = yield from a.device.reg_mr(pd_a, 4 * KB, Access.ALL)
            state.qp = a.device.create_qp(pd_a, "RC")
            peer = b.device.create_qp(pd_b, "RC")
            a.device.connect(state.qp, peer)
            for _ in range(cls.HOT_MRS + inputs["thrash_mrs"]):
                state.mrs.append(
                    (yield from b.device.reg_mr(pd_b, 4 * KB, Access.ALL)))

        cluster.run_process(setup())
        return state

    @classmethod
    def run(cls, state, inputs: dict, rec: Recorder) -> None:
        cluster = state.clusters[0]
        sim = cluster.sim
        device = cluster[0].device
        qp, local, lat = state.qp, state.local, rec.lat

        def reg(count):
            for _ in range(count):
                start = sim.now
                mr = yield from device.reg_mr(state.pd_a, 4 * KB, Access.ALL)
                lat.append(sim.now - start)
                start = sim.now
                yield from device.dereg_mr(mr)
                lat.append(sim.now - start)

        payloads = [bytes((tag,)) * 64 for tag in range(256)]

        def rdma(ops, mrs):
            shadow = {}
            bad_wc = bad_bytes = 0
            for is_read, index, tag in ops:
                mr = mrs[index]
                if is_read:
                    want = shadow[index]
                    wr = SendWR(Opcode.READ, sgl=[Sge(local, 0, len(want))],
                                remote_addr=mr.base_addr, rkey=mr.rkey)
                else:
                    shadow[index] = data = payloads[tag]
                    wr = SendWR(Opcode.WRITE, inline_data=data,
                                remote_addr=mr.base_addr, rkey=mr.rkey)
                start = sim.now
                yield qp.post_send(wr)
                done = qp.send_cq.poll(1)
                lat.append(sim.now - start)
                if len(done) != 1 or not done[0].ok:
                    bad_wc += 1
                elif is_read and local.read(0, len(want)) != want:
                    bad_bytes += 1
            if bad_wc:
                rec.fail("verbs_completion", bad_wc)
            if bad_bytes:
                rec.fail("verbs_read_back", bad_bytes)

        hot = state.mrs[:cls.HOT_MRS]
        thrash = state.mrs[cls.HOT_MRS:]
        plan = (
            ("reg", reg(inputs["reg"]), 2 * inputs["reg"]),
            ("hot", rdma(inputs["hot"], hot), len(inputs["hot"])),
            ("thrash", rdma(inputs["thrash"], thrash), len(inputs["thrash"])),
        )
        for name, driver, ops in plan:
            with rec.segment(name, sim):
                cluster.run_process(driver)
                rec.ops += ops


# -------------------------------------------------------------- apps_batch --

class AppsBatch(Workload):
    name = "apps_batch"
    loop = "closed, 6 log writers; MR and PageRank are batch jobs"
    segments = ("litelog", "wordcount", "pagerank")
    LOG_THREADS = 6
    ITERATIONS = 10

    @classmethod
    def make_inputs(cls, seed: int, scale: float) -> dict:
        n_docs = _scaled(2048, scale, 16)
        n_vertices = _scaled(20_000, scale, 200)
        corpus = generate_corpus(n_docs, 500, vocab_size=2000, seed=seed)
        edges = powerlaw_graph(n_vertices, 8, seed=seed)
        words = Counter()
        for document in corpus:
            words.update(document.split())
        return {
            "commits": _scaled(260, scale, 4),
            "preload": _scaled(1500, scale, 4),
            "corpus": corpus,
            "n_vertices": n_vertices,
            "edges": edges,
            # Reference outputs, computed once per process, not per pass
            # ("_" keys are derived data and stay out of the digest).
            "_words": words,
            "_ranks": pagerank_reference(
                PartitionedGraph(n_vertices, edges, 4), cls.ITERATIONS),
        }

    @classmethod
    def build(cls, inputs: dict, fastpath: bool):
        state = SimpleNamespace()
        # reset_global_counters() does not rewind these two.  The job
        # name travels in control messages, so the tenth job built in a
        # process ("mrjob10") would cost a byte more on the wire than
        # the first nine and break the bit-identical-passes rule.
        LiteMR._job_counter = 0
        LiteGraph._job_counter = 0
        # LITE-Log: 2 writer nodes x 3 threads; node 3 hosts the log
        # and runs no log code.
        log_cluster = _cluster(3, fastpath)
        kernels = lite_boot(log_cluster)
        owner = LiteContext(kernels[0], "log-owner")
        state.writers = []

        def log_setup():
            state.log = yield from LiteLog.create(
                owner, "perfbench", 4 * MB, home_node=3)
            for index in range(cls.LOG_THREADS):
                ctx = LiteContext(kernels[index % 2], f"logw{index}")
                log = yield from LiteLog.open(ctx, "perfbench")
                state.writers.append(LogWriter(log, writer_id=index + 1))
            # An existing log: verify() later walks these too.
            seed_writer = LogWriter(state.log, writer_id=0)
            for index in range(inputs["preload"]):
                seed_writer.append(struct.pack("<QQ", 0, index))
                yield from seed_writer.commit()

        log_cluster.run_process(log_setup())

        mr_cluster = _cluster(5, fastpath)
        state.mr = LiteMR(lite_boot(mr_cluster), total_threads=8)

        graph_cluster = _cluster(4, fastpath)
        state.graph = PartitionedGraph(inputs["n_vertices"], inputs["edges"], 4)
        state.engine = LiteGraph(lite_boot(graph_cluster), state.graph,
                                 threads_per_node=4)
        state.clusters = [log_cluster, mr_cluster, graph_cluster]
        return state

    @classmethod
    def run(cls, state, inputs: dict, rec: Recorder) -> None:
        log_cluster, mr_cluster, graph_cluster = state.clusters
        sim = log_cluster.sim
        lat = rec.lat
        commits = inputs["commits"]

        def writer(log_writer):
            for index in range(commits):
                # One 16 B entry per transaction.
                log_writer.append(struct.pack(
                    "<II", log_writer.writer_id, index).ljust(16, b"e"))
                start = sim.now
                yield from log_writer.commit()
                lat.append(sim.now - start)

        def log_driver():
            yield sim.all_of(
                [sim.process(writer(w)) for w in state.writers])
            state.verified = yield from state.log.verify()

        with rec.segment("litelog", sim):
            log_cluster.run_process(log_driver())
            rec.ops += commits * cls.LOG_THREADS
        with rec.segment("wordcount", mr_cluster.sim):
            state.counts = mr_cluster.run_process(
                state.mr.run(inputs["corpus"]))
            rec.ops += len(inputs["corpus"])
        with rec.segment("pagerank", graph_cluster.sim):
            state.ranks = graph_cluster.run_process(
                state.engine.run(cls.ITERATIONS))
            rec.ops += inputs["n_vertices"] * cls.ITERATIONS
        rec.extra["mr_total_us"] = state.mr.phase_times["total"]
        rec.extra["graph_total_us"] = state.engine.elapsed_us

    @classmethod
    def check(cls, state, inputs: dict, rec: Recorder) -> None:
        total = inputs["preload"] + inputs["commits"] * cls.LOG_THREADS
        if state.verified != (total, total):
            rec.fail("litelog_verify")
        if state.counts != inputs["_words"]:
            rec.fail("wordcount_counter")
        worst = max(abs(a - b)
                    for a, b in zip(state.ranks, inputs["_ranks"]))
        if not worst < 1e-12:
            rec.fail("pagerank_reference")


# ---------------------------------------------------------- churn_recovery --

class ChurnRecovery(Workload):
    name = "churn_recovery"
    loop = "open (seeded arrivals, 10 us mean gap) then closed, 1 client"
    segments = ("churn", "crash")
    N_LMRS = 8
    LMR_BYTES = 32 * KB
    SETTLE_US = 14_000.0

    @classmethod
    def make_inputs(cls, seed: int, scale: float) -> dict:
        rng = random.Random(seed)
        ops = []
        written = []
        for index in range(_scaled(3000, scale, 80)):
            if index & 1 and written:
                ops.append((True,) + written[rng.randrange(len(written))]
                           + (0,))
            else:
                spot = (rng.randrange(cls.N_LMRS),
                        rng.randrange(cls.LMR_BYTES // 64) * 64)
                written.append(spot)
                ops.append((False,) + spot + (rng.randrange(1, 256),))
        return {
            "sessions": _scaled(2600, scale, 40),
            "churn_seed": seed,
            # run_churn draws the arrival gaps itself from churn_seed:
            # its source is the rest of this workload's input schedule.
            "churn_source": inspect.getsource(run_churn),
            "crash_ops": ops,
            "crash_at_us": 4000.0 + rng.uniform(-250.0, 250.0),
            "restart_after_us": 5000.0,
            "working_set": _scaled(1700, scale, 8),
        }

    @classmethod
    def build(cls, inputs: dict, fastpath: bool):
        churn_cluster = _cluster(2, fastpath)
        state = SimpleNamespace(churn_kernels=lite_boot(churn_cluster))
        cluster = _cluster(3, fastpath)
        state.kernels = lite_boot(cluster)
        state.ctx = LiteContext(state.kernels[0], "bench", kernel_level=True)
        state.lmrs = []

        def setup():
            # Primaries on LITE 2 (the node that crashes); backups land
            # on LITE 1 and 3, so a copy survives.
            for _ in range(cls.N_LMRS):
                state.lmrs.append((yield from state.ctx.lt_malloc(
                    cls.LMR_BYTES, nodes=2, replicas=2)))
            yield from _working_set(state.ctx, inputs["working_set"], nodes=3)

        cluster.run_process(setup())
        state.clusters = [churn_cluster, cluster]
        return state

    @classmethod
    def run(cls, state, inputs: dict, rec: Recorder) -> None:
        churn_cluster, cluster = state.clusters
        with rec.segment("churn", churn_cluster.sim):
            stats = run_churn(
                churn_cluster, state.churn_kernels,
                n_clients=inputs["sessions"], seed=inputs["churn_seed"],
                ops_per_client=4, mean_gap_us=10.0, abandon_every=5,
            )
            rec.ops += stats.ops_ok + stats.ops_failed
        # Time-to-first-op, clocked from each session's arrival.
        rec.lat.extend(stats.ttfo["hit"])
        rec.lat.extend(stats.ttfo["cold"])
        if stats.ops_failed:
            rec.fail("churn_op_status", stats.ops_failed)
        rec.extra["churn"] = stats

        sim = cluster.sim
        ctx, lmrs, lat = state.ctx, state.lmrs, rec.lat
        # Faults are armed relative to the segment start so set-up
        # length cannot move the crash inside or outside the run.
        crash_at = sim.now + inputs["crash_at_us"]
        plan = FaultPlan().crash(
            1, crash_at, restart_at_us=crash_at + inputs["restart_after_us"])
        injector = FaultInjector(cluster, plan).install()
        injector.arm_lite(state.kernels, keepalive_interval_us=500.0,
                          miss_limit=2)
        recovery = RecoveryManager(
            cluster, state.kernels, lease_ttl_us=1500.0,
            renew_interval_us=400.0, sweep_interval_us=300.0,
        ).arm()
        state.committed = committed = {}
        payloads = [bytes((tag,)) * 64 for tag in range(256)]
        settle_at = sim.now + cls.SETTLE_US

        def driver():
            exhausted = bad = 0
            for is_read, index, offset, tag in inputs["crash_ops"]:
                lh = lmrs[index]
                want = committed.get((index, offset))
                if is_read and want is None:
                    exhausted += 1  # its write never committed
                    continue
                data = None if is_read else payloads[tag]
                start = sim.now
                for attempt in range(8):
                    try:
                        if is_read:
                            data = yield from ctx.lt_read(
                                lh, offset, len(want))
                        else:
                            yield from ctx.lt_write(lh, offset, data)
                        break
                    except LiteError:
                        rec.retries += 1
                        yield sim.timeout(300.0 * (attempt + 1))
                else:
                    exhausted += 1
                    continue
                lat.append(sim.now - start)
                if is_read:
                    bad += data != want
                else:
                    committed[(index, offset)] = data
                yield sim.timeout(10.0)
            # Settle past the restart: rejoin + resync are in the timing.
            if sim.now < settle_at:
                yield sim.timeout(settle_at - sim.now)
            recovery.stop()
            if exhausted:
                rec.fail("crash_retries_exhausted", exhausted)
            if bad:
                rec.fail("crash_read_back", bad)

        with rec.segment("crash", sim):
            cluster.run_process(driver())
            rec.ops += len(inputs["crash_ops"])
        rec.extra["recovery"] = recovery

    @staticmethod
    def check(state, inputs: dict, rec: Recorder) -> None:
        """Zero committed-write loss: every acked write reads back."""
        cluster = state.clusters[1]
        lost = [0]

        def audit():
            for (index, offset), data in sorted(state.committed.items()):
                got = yield from state.ctx.lt_read(
                    state.lmrs[index], offset, len(data))
                lost[0] += got != data

        cluster.run_process(audit())
        if lost[0]:
            rec.fail("crash_committed_write_lost", lost[0])
        recovery = rec.extra["recovery"]
        if recovery.promotions < 1 or recovery.rejoins < 1:
            rec.fail("crash_never_failed_over")


WORKLOADS = {
    workload.name: workload
    for workload in (Micro1c, RpcFanin, KvEtc4c, VerbsMrThrash, AppsBatch,
                     ChurnRecovery)
}


def input_digest(inputs) -> str:
    """SHA-256 over a canonical walk of a generated input schedule."""
    sha = hashlib.sha256()

    def feed(value) -> None:
        if isinstance(value, dict):
            for key in sorted(value):
                if not key.startswith("_"):
                    sha.update(b"k" + key.encode())
                    feed(value[key])
        elif isinstance(value, (list, tuple)):
            sha.update(b"[%d" % len(value))
            for item in value:
                feed(item)
        elif isinstance(value, bytes):
            sha.update(b"b%d:" % len(value) + value)
        else:  # int, float, bool, str: repr round-trips exactly
            sha.update(repr(value).encode() + b";")

    feed(inputs)
    return sha.hexdigest()
