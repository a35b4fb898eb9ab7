"""The native Verbs entry of the run-to-completion commit.

``QueuePair.post_send`` tries the one commit of ``verbs/fastpath.py``
from the WR's own start hop (docs/INTERNALS.md §13).  Nothing here boots
LITE: every op is a raw ``qp.post_send`` on a two-node cluster, run once
with the fast path on and once with ``REPRO_NO_FASTPATH=1``; the two runs
must agree on every simulated instant, the cluster snapshot, the exact
SRAM-cache contents and counters, CQE order and every byte moved.
"""

import dataclasses
import hashlib
import os
import random

import pytest

from repro.cluster import Cluster
from repro.determinism import reset_global_counters
from repro.fault import FaultInjector, FaultPlan
from repro.hw.caches import LruCache
from repro.hw.params import KB, MB
from repro.stats import snapshot
from repro.verbs import Access, Opcode, SendWR, Sge
from repro.verbs.fastpath import fp_stats

LOCAL_BYTES = 128 * KB


class _Mode:
    """``REPRO_NO_FASTPATH`` toggle around one run (the simulator reads
    the variable at construction) with the global id counters rewound,
    exposing the run's ``fp_stats`` deltas afterwards."""

    def __init__(self, fastpath: bool):
        self.fastpath = fastpath

    def __enter__(self):
        self.saved = os.environ.get("REPRO_NO_FASTPATH")
        if self.fastpath:
            os.environ.pop("REPRO_NO_FASTPATH", None)
        else:
            os.environ["REPRO_NO_FASTPATH"] = "1"
        reset_global_counters()
        self.before = {n: getattr(fp_stats, n) for n in fp_stats.__slots__}
        return self

    def __exit__(self, *exc):
        self.delta = {n: getattr(fp_stats, n) - self.before[n]
                      for n in fp_stats.__slots__}
        if self.saved is None:
            os.environ.pop("REPRO_NO_FASTPATH", None)
        else:
            os.environ["REPRO_NO_FASTPATH"] = self.saved


def _sram_state(cluster):
    """Exact contents (in LRU order) and counters of every SRAM cache."""
    out = []
    for node in cluster.nodes:
        for cache in (node.rnic.qp_cache, node.rnic.key_cache,
                      node.rnic.pte_cache):
            stats = cache.stats
            out.append((node.node_id, cache.name, list(cache._entries),
                        stats.hits, stats.misses, stats.evictions,
                        stats.installs))
    return out


def _build(n_mrs: int, region_bytes: int, tiny_sram: bool):
    """Two nodes, two RC QPs a→b (the second without a send CQ), one
    local MR, ``n_mrs`` 4 KB remote MRs and one big remote region."""
    cluster = Cluster(2)
    a, b = cluster[0], cluster[1]
    if tiny_sram:
        for node in (a, b):
            node.rnic.resize_caches(key_entries=8, pte_entries=24,
                                    qp_entries=1)
    world = {"cluster": cluster}

    def setup():
        pd_a, pd_b = a.device.alloc_pd(), b.device.alloc_pd()
        world["local"] = yield from a.device.reg_mr(pd_a, LOCAL_BYTES,
                                                    Access.ALL)
        qps = []
        for send_cq in ("auto", None):
            qp = a.device.create_qp(pd_a, "RC", send_cq=send_cq)
            a.device.connect(qp, b.device.create_qp(pd_b, "RC"))
            qps.append(qp)
        world["qps"] = qps
        world["small"] = []
        for _ in range(n_mrs):
            world["small"].append(
                (yield from b.device.reg_mr(pd_b, 4 * KB, Access.ALL)))
        world["big"] = yield from b.device.reg_mr(pd_b, region_bytes,
                                                  Access.ALL)

    cluster.run_process(setup())
    return world


def _random_wr(rng, world, index: int):
    """One random one-sided WR and a ``read_back()`` for its READ bytes."""
    size = max(1, min(64 * KB, int(2 ** rng.uniform(0.0, 16.0))))
    if size <= 4 * KB and rng.random() < 0.6:
        mr = world["small"][rng.randrange(len(world["small"]))]
    else:
        mr = world["big"]
    addr = mr.base_addr + rng.randrange(0, mr.size - size + 1)
    local, loff = world["local"], rng.randrange(0, LOCAL_BYTES - size + 1)
    signaled = rng.random() < 0.7
    kind = rng.randrange(4)
    if kind == 0:
        wr = SendWR(Opcode.WRITE, inline_data=bytes([index & 0xFF]) * size,
                    remote_addr=addr, rkey=mr.rkey, signaled=signaled)
    elif kind == 1:
        local.write(loff, bytes([(index * 7) & 0xFF]) * size)
        wr = SendWR(Opcode.WRITE, sgl=[Sge(local, loff, size)],
                    remote_addr=addr, rkey=mr.rkey, signaled=signaled)
    elif kind == 2:
        wr = SendWR(Opcode.READ, sgl=[Sge(local, loff, size)],
                    remote_addr=addr, rkey=mr.rkey, signaled=signaled)
        return wr, lambda: local.read(loff, size)
    else:
        wr = SendWR(Opcode.READ, read_length=size, remote_addr=addr,
                    rkey=mr.rkey, signaled=signaled)
        return wr, lambda: wr.return_data
    return wr, None


def _run_native(seed, fastpath, poster, faults, n_mrs, region_bytes,
                tiny_sram=False, ops=120):
    with _Mode(fastpath) as mode:
        world = _build(n_mrs, region_bytes, tiny_sram)
        cluster = world["cluster"]
        sim = cluster.sim
        if faults:
            # A flapping link on the requester across the op window (the
            # injector counts the start from install, the end from 0),
            # optionally with uniform loss: any loss rule hooks the
            # fabric, which keeps every op on the generator path.
            plan = FaultPlan().link_flap(
                cluster[0].node_id, 120.0, sim.now + 900.0, 15.0, 70.0)
            if faults == "loss":
                plan.packet_loss(0.03)
            FaultInjector(cluster, plan, seed=seed).install()
        rng = random.Random(seed)
        qps = world["qps"]
        log = []

        def finish(index, start, read_back):
            def on_done(event):
                data = read_back() if read_back is not None else None
                log.append((index, sim.now - start, event._value,
                            None if data is None
                            else hashlib.sha1(data).hexdigest()))
            return on_done

        def harvest():
            cq = qps[0].send_cq
            for wc in cq.poll(64):
                log.append(("cqe", wc.wr_id, wc.opcode, wc.status,
                            wc.byte_len, wc.completed_at))
            for qp in qps:
                if qp.state == "ERROR":
                    qp.reset()

        def closed_loop():
            for index in range(ops):
                wr, read_back = _random_wr(rng, world, index)
                proc = qps[rng.randrange(2)].post_send(wr)
                proc.callbacks.append(finish(index, sim.now, read_back))
                yield proc
                harvest()

        def bursts():
            # 1-5 posts on either QP before yielding; then wait for all
            # of them, or only for the first (the rest stay in flight
            # under the next burst).
            index = 0
            while index < ops:
                procs = []
                for _ in range(rng.randrange(1, 6)):
                    wr, read_back = _random_wr(rng, world, index)
                    proc = qps[rng.randrange(2)].post_send(wr)
                    proc.callbacks.append(finish(index, sim.now, read_back))
                    procs.append(proc)
                    index += 1
                yield procs[0] if rng.random() < 0.3 else sim.all_of(procs)
                harvest()
                if rng.random() < 0.5:
                    yield sim.timeout(rng.choice((0.0, 0.3, 25.0)))

        cluster.run_process(closed_loop() if poster == "closed" else bursts())
        sim.run()  # drain tails (and the fault plan) before comparing
        harvest()
        memory = hashlib.sha1()
        for mr in [world["local"], world["big"]] + world["small"]:
            memory.update(mr.read(0, mr.size))
        result = (sim.now, log, dataclasses.asdict(snapshot(cluster)),
                  _sram_state(cluster), memory.hexdigest(),
                  [qp.posted_sends for qp in qps])
    return result, mode.delta


def _assert_identical(fast, slow):
    names = ("final time", "per-op latencies / outcomes / CQE order / bytes",
             "cluster snapshot", "SRAM contents and counters",
             "memory contents", "posted_sends")
    for name, got, want in zip(names, fast, slow):
        assert got == want, f"{name} diverged"


# ---------------------------------------------------------------------------
# Randomized A/B
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("poster", ["closed", "bursts"])
@pytest.mark.parametrize("n_mrs,region_bytes", [
    (40, 1 * MB), (40, 8 * MB), (300, 1 * MB), (300, 8 * MB)])
def test_native_entry_equivalence_randomized(poster, n_mrs, region_bytes):
    seed = n_mrs + region_bytes // MB
    fast, delta = _run_native(seed, True, poster, None, n_mrs, region_bytes)
    slow, off = _run_native(seed, False, poster, None, n_mrs, region_bytes)
    _assert_identical(fast, slow)
    assert delta["mismodels"] == 0
    assert off["attempts"] == 0, "the kill switch must not count attempts"
    assert delta["attempts"] == delta["commits"] + sum(
        count for name, count in delta.items() if name.startswith("rej_"))
    if poster == "closed":
        # Quiet traffic: one op at a time, misses included, all commit.
        assert delta["commits"] == delta["attempts"] == 120
    else:
        assert 0 < delta["commits"] < delta["attempts"]
        assert delta["rej_nowq"] > 0


@pytest.mark.parametrize("seed", [3, 58])
@pytest.mark.parametrize("poster", ["closed", "bursts"])
def test_native_entry_equivalence_tiny_sram(seed, poster):
    """Every SRAM cache far smaller than the working set: evictions on
    every op, two QPs thrashing a one-entry QP cache, and multi-page
    accesses that would evict their own later pages (declined)."""
    fast, delta = _run_native(seed, True, poster, None, 20, 1 * MB,
                              tiny_sram=True)
    slow, _ = _run_native(seed, False, poster, None, 20, 1 * MB,
                          tiny_sram=True)
    _assert_identical(fast, slow)
    assert delta["mismodels"] == 0
    assert delta["commits"] > 0
    if poster == "closed":
        assert delta["rej_miss"] > 0, "no self-evicting access was drawn"
        assert delta["commits"] + delta["rej_miss"] == delta["attempts"]


@pytest.mark.parametrize("faults", ["flap", "loss"])
@pytest.mark.parametrize("poster", ["closed", "bursts"])
def test_native_entry_equivalence_under_faults(poster, faults):
    fast, delta = _run_native(17, True, poster, faults, 300, 8 * MB)
    slow, _ = _run_native(17, False, poster, faults, 300, 8 * MB)
    _assert_identical(fast, slow)
    assert delta["mismodels"] == 0
    if faults == "loss":
        # A fault hook on the fabric keeps everything on the generator path.
        assert delta["commits"] == 0 and delta["rej_port"] > 0
    elif poster == "closed":
        assert delta["commits"] > 0


# ---------------------------------------------------------------------------
# The two ways this goes wrong
# ---------------------------------------------------------------------------
def _run_follower(fastpath: bool):
    """One handler posts a WR that misses the (cold) key cache and then,
    without yielding, a smaller one on a second QP whose lookups all hit."""
    with _Mode(fastpath) as mode:
        world = _build(4, 1 * MB, False)
        cluster = world["cluster"]
        sim = cluster.sim
        qp_a, qp_b = world["qps"]
        warm, cold = world["small"][0], world["small"][1]
        done = {}

        def post(name, qp, mr, size):
            wr = SendWR(Opcode.WRITE, inline_data=b"x" * size,
                        remote_addr=mr.base_addr, rkey=mr.rkey)
            proc = qp.post_send(wr)
            proc.callbacks.append(
                lambda event: done.__setitem__(name, sim.now))
            return proc

        def handler():
            for qp in (qp_a, qp_b):  # warm both QPs and one rkey
                yield post("warm", qp, warm, 64)
            before = sim.now
            procs = [post("miss", qp_a, cold, 4 * KB),
                     post("hit", qp_b, warm, 8)]
            yield sim.all_of(procs)
            done["start"] = before

        cluster.run_process(handler())
        sim.run()
        port = cluster.fabric.ports[cluster[0].node_id]
        result = (sim.now, done, port.tx_bytes, _sram_state(cluster),
                  dataclasses.asdict(snapshot(cluster)))
    return result, mode.delta


def test_same_instant_follower_is_not_overtaken():
    """The follower's shorter RNIC stage wins the TX port; a commit of
    the first WR at post time (holding the port from t0) would reorder
    them.  At its start hop the first WR sees the follower's bootstrap
    in the now-queue and declines."""
    fast, delta = _run_follower(True)
    slow, _ = _run_follower(False)
    assert fast == slow
    done = fast[1]
    assert done["hit"] < done["miss"], "the hitting follower finishes first"
    assert delta["commits"] == 2, "only the two warm-up posts commit"
    assert delta["rej_nowq"] >= 1


def _run_miss_case(fastpath: bool, evict, opcode):
    """Warm everything with one SGE WRITE + one SGE READ, drop the named
    SRAM entries, then time one op."""
    with _Mode(fastpath) as mode:
        world = _build(1, 64 * KB, False)
        cluster = world["cluster"]
        sim = cluster.sim
        qp = world["qps"][0]
        local, remote = world["local"], world["big"]
        lrnic, rrnic = cluster[0].rnic, cluster[1].rnic
        timing = {}

        def op(opcode):
            wr = SendWR(opcode, sgl=[Sge(local, 0, 8 * KB)],
                        remote_addr=remote.base_addr, rkey=remote.rkey)
            start = sim.now
            yield qp.post_send(wr)
            return sim.now - start

        def driver():
            yield from op(Opcode.WRITE)
            yield from op(Opcode.READ)
            timing["warm"] = yield from op(opcode)
            drop = {
                "lqp": lambda: lrnic.qp_cache.invalidate(qp.qpn),
                "lkey": lambda: lrnic.key_cache.invalidate(local.lkey),
                "lpte": lambda: lrnic.pte_cache.invalidate(
                    local.page_ids(0, 8 * KB)[1]),
                "rqp": lambda: rrnic.qp_cache.invalidate(qp.remote[1]),
                "rkey": lambda: rrnic.key_cache.invalidate(remote.rkey),
                "rpte": lambda: rrnic.pte_cache.invalidate_many(
                    remote.page_ids(0, 8 * KB)),
            }
            for name in evict:
                assert drop[name]()
            commits = fp_stats.commits
            timing["cold"] = yield from op(opcode)
            timing["committed"] = fp_stats.commits - commits

        cluster.run_process(driver())
        sim.run()
        result = (sim.now, timing["warm"], timing["cold"],
                  _sram_state(cluster))
    return result, timing["committed"], mode.delta


@pytest.mark.parametrize("opcode", [Opcode.WRITE, Opcode.READ])
@pytest.mark.parametrize("evict", [
    ("lqp",), ("lkey",), ("lpte",), ("rqp",), ("rkey",), ("rpte",),
    ("lkey", "rpte"), ("lqp", "rqp", "rkey")])
def test_miss_is_priced_to_the_bit(evict, opcode):
    fast, committed, delta = _run_miss_case(True, evict, opcode)
    slow, _, _ = _run_miss_case(False, evict, opcode)
    assert fast == slow, "a committed miss must cost what the generator pays"
    assert committed == 1, "the cold op must commit, not fall back"
    assert fast[2] > fast[1], "the miss must cost simulated time"
    assert delta["mismodels"] == 0


def _run_self_evicting(fastpath: bool):
    """PTE cache of 4 holding pages 1..4 (1 oldest); an access of pages
    [0, 1] misses page 0, whose install evicts page 1 before its turn."""
    with _Mode(fastpath) as mode:
        world = _build(1, 64 * KB, False)
        cluster = world["cluster"]
        sim = cluster.sim
        cluster[1].rnic.resize_caches(pte_entries=4)
        qp, remote = world["qps"][0], world["big"]
        times = []

        def write(offset, size):
            wr = SendWR(Opcode.WRITE, inline_data=b"z" * size,
                        remote_addr=remote.base_addr + offset,
                        rkey=remote.rkey)
            start = sim.now
            yield qp.post_send(wr)
            times.append(sim.now - start)

        def driver():
            for page in (1, 2, 3, 4):
                yield from write(page * 4 * KB, 64)
            yield from write(0, 8 * KB)

        cluster.run_process(driver())
        sim.run()
        result = (sim.now, times, _sram_state(cluster))
    return result, mode.delta


def test_self_evicting_pte_access_is_declined_not_mispriced():
    fast, delta = _run_self_evicting(True)
    slow, _ = _run_self_evicting(False)
    assert fast == slow
    assert delta["rej_miss"] == 1 and delta["commits"] == 4
    pte = [row for row in fast[2] if row[1] == "ptes"][1]
    assert pte[4] == 6, "both pages of the last access miss"


def test_predict_misses_matches_access_many():
    """The probe either declines or names exactly the misses the replay
    will take, for any cache state and any run of distinct keys."""
    rng = random.Random(5)
    declined = exact = changed = 0
    for _ in range(3000):
        cache = LruCache(rng.randrange(1, 12))
        cache.access_many(rng.randrange(20) for _ in range(rng.randrange(30)))
        first = rng.randrange(20)
        keys = list(range(first, first + rng.randrange(1, 10)))
        before = list(cache._entries)
        predicted = cache.predict_misses(keys)
        assert list(cache._entries) == before, "a probe must not mutate"
        _hits, misses = cache.access_many(keys)
        if predicted is None:
            declined += 1
        else:
            exact += 1
            assert predicted == misses
        if misses != sum(key not in before for key in keys):
            changed += 1
            assert predicted is None
    assert changed > 50 and declined < 3 * changed and exact > 1000
