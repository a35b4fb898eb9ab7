"""The native Verbs entry of the run-to-completion commit.

``QueuePair.post_send`` tries the one commit of ``verbs/fastpath.py``
from the WR's own start hop (docs/INTERNALS.md §13).  Nothing here boots
LITE: every op is a raw ``qp.post_send`` on a two-node cluster, run by
``tests/ab.py`` with the fast path on and off; the runs must agree on
every simulated instant, the snapshot, the exact SRAM-cache contents
and counters, and (in each scenario's outcomes) CQE order and every
byte moved.
"""

import hashlib
import random

import pytest

from repro.fault import FaultInjector, FaultPlan
from repro.hw.caches import LruCache
from repro.hw.params import KB, MB
from repro.sim import Simulator
from repro.stats import snapshot
from repro.verbs import Access, Opcode, RecvWR, SendWR, Sge, WcStatus

from tests import ab

LOCAL_BYTES = 128 * KB
RECV_BYTES = 4 * KB
WORDS = 4           # 8-byte atomic targets at the start of the big region


def _build(run, n_mrs: int, region_bytes: int, tiny_sram=False, srq=False):
    """Two nodes, two RC QPs a→b (the second without a send CQ) whose
    responders deliver into one receive CQ, from one SRQ with ``srq``
    (else each from its own RQ); one local MR, ``n_mrs`` 4 KB remote MRs
    and one big remote region."""
    cluster = run.cluster(2)
    a, b = cluster[0], cluster[1]
    if tiny_sram:
        for node in (a, b):
            node.rnic.resize_caches(key_entries=8, pte_entries=24,
                                    qp_entries=1)
    world = {"cluster": cluster, "qps": [], "rqps": {}, "small": []}

    def setup():
        pd_a, pd_b = a.device.alloc_pd(), b.device.alloc_pd()
        world["local"] = yield from a.device.reg_mr(pd_a, LOCAL_BYTES,
                                                    Access.ALL)
        world["recv_cq"] = b.device.create_cq()
        shared = b.device.create_srq() if srq else None
        for send_cq in ("auto", None):
            qp = a.device.create_qp(pd_a, "RC", send_cq=send_cq)
            rqp = b.device.create_qp(pd_b, "RC", recv_cq=world["recv_cq"],
                                     srq=shared)
            a.device.connect(qp, rqp)
            world["qps"].append(qp)
            world["rqps"][rqp.qpn] = rqp
        for _ in range(n_mrs):
            world["small"].append(
                (yield from b.device.reg_mr(pd_b, RECV_BYTES, Access.ALL)))
        world["big"] = yield from b.device.reg_mr(pd_b, region_bytes,
                                                  Access.ALL)

    cluster.run_process(setup())
    return world


def _memory_hash(world) -> str:
    memory = hashlib.sha1()
    for mr in [world["local"], world["big"]] + world["small"]:
        memory.update(mr.read(0, mr.size))
    return memory.hexdigest()


def _harvest(world, log):
    """Log the first QP's send CQEs; reset any QP a fault left in ERROR."""
    for wc in world["qps"][0].send_cq.poll(64):
        log.append(("cqe", wc.wr_id, wc.opcode, wc.status, wc.byte_len,
                    wc.completed_at))
    for qp in world["qps"]:
        if qp.state == "ERROR":
            qp.reset()


def _install_faults(cluster, faults, seed, window_us):
    """A flapping link on the requester across the op window (the
    injector counts the start from install, the end from 0), optionally
    with uniform loss: any loss rule hooks the fabric, which keeps every
    op on the generator path."""
    if faults:
        plan = FaultPlan().link_flap(
            cluster[0].node_id, 120.0, cluster.sim.now + window_us, 15.0, 70.0)
        if faults == "loss":
            plan.packet_loss(0.03)
        FaultInjector(cluster, plan, seed=seed).install()


# ---------------------------------------------------------------------------
# Randomized one-sided A/B
# ---------------------------------------------------------------------------
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


def native_ops(run, seed, poster, faults, n_mrs, region_bytes,
               tiny_sram=False, ops=120):
    """``ops`` random one-sided WRs from a closed loop or in bursts of
    1-5 posts on either QP (waiting for all of them or only the first);
    returns the per-op log, the memory hash and ``posted_sends``."""
    world = _build(run, n_mrs, region_bytes, tiny_sram)
    cluster = world["cluster"]
    sim = cluster.sim
    _install_faults(cluster, faults, seed, 900.0)
    rng = random.Random(seed)
    qps = world["qps"]
    log = []

    def post(index):
        wr, read_back = _random_wr(rng, world, index)
        proc = qps[rng.randrange(2)].post_send(wr)
        start = sim.now

        def on_done(event):
            data = read_back() if read_back is not None else None
            log.append((index, sim.now - start, event._value,
                        None if data is None else hashlib.sha1(data).hexdigest()))

        proc.callbacks.append(on_done)
        return proc

    def closed_loop():
        for index in range(ops):
            yield post(index)
            _harvest(world, log)

    def bursts():
        index = 0
        while index < ops:
            procs = []
            for _ in range(rng.randrange(1, 6)):
                procs.append(post(index))
                index += 1
            yield procs[0] if rng.random() < 0.3 else sim.all_of(procs)
            _harvest(world, log)
            if rng.random() < 0.5:
                yield sim.timeout(rng.choice((0.0, 0.3, 25.0)))

    cluster.run_process(closed_loop() if poster == "closed" else bursts())
    sim.run()  # drain tails (and the fault plan) before comparing
    _harvest(world, log)
    return log, _memory_hash(world), [qp.posted_sends for qp in qps]


@pytest.mark.parametrize("poster", ["closed", "bursts"])
@pytest.mark.parametrize("n_mrs,region_bytes", [
    (40, 1 * MB), (40, 8 * MB), (300, 1 * MB), (300, 8 * MB)])
def test_native_entry_equivalence_randomized(poster, n_mrs, region_bytes):
    seed = n_mrs + region_bytes // MB
    fp = ab.check(native_ops, seed=seed, poster=poster, faults=None,
                  n_mrs=n_mrs, region_bytes=region_bytes)["fast"].fp
    assert fp["mismodels"] == 0
    if poster == "closed":
        # Quiet traffic: one op at a time, misses included, all commit.
        assert fp["commits"] == fp["attempts"] == 120
    else:
        assert 0 < fp["commits"] < fp["attempts"]
        assert fp["rej_nowq"] > 0


@pytest.mark.parametrize("seed", [3, 58])
@pytest.mark.parametrize("poster", ["closed", "bursts"])
def test_native_entry_equivalence_tiny_sram(seed, poster):
    """Every SRAM cache far smaller than the working set: evictions on
    every op, two QPs thrashing a one-entry QP cache, and multi-page
    accesses that would evict their own later pages (declined)."""
    fp = ab.check(native_ops, seed=seed, poster=poster, faults=None,
                  n_mrs=20, region_bytes=1 * MB, tiny_sram=True)["fast"].fp
    assert fp["mismodels"] == 0
    assert fp["commits"] > 0
    if poster == "closed":
        assert fp["rej_miss"] > 0, "no self-evicting access was drawn"
        assert fp["commits"] + fp["rej_miss"] == fp["attempts"]


@pytest.mark.parametrize("faults", ["flap", "loss"])
@pytest.mark.parametrize("poster", ["closed", "bursts"])
def test_native_entry_equivalence_under_faults(poster, faults):
    fp = ab.check(native_ops, seed=17, poster=poster, faults=faults,
                  n_mrs=300, region_bytes=8 * MB)["fast"].fp
    assert fp["mismodels"] == 0
    if faults == "loss":
        # A fault hook on the fabric keeps everything on the generator path.
        assert fp["commits"] == 0 and fp["rej_port"] > 0
    elif poster == "closed":
        assert fp["commits"] > 0


# ---------------------------------------------------------------------------
# The two ways this goes wrong
# ---------------------------------------------------------------------------
def follower(run):
    """One handler posts a WR that misses the (cold) key cache and then,
    without yielding, a smaller one on a second QP whose lookups all hit."""
    world = _build(run, 4, 1 * MB)
    cluster = world["cluster"]
    sim = cluster.sim
    qp_a, qp_b = world["qps"]
    warm, cold = world["small"][0], world["small"][1]
    done = {}

    def post(name, qp, mr, size):
        wr = SendWR(Opcode.WRITE, inline_data=b"x" * size,
                    remote_addr=mr.base_addr, rkey=mr.rkey)
        proc = qp.post_send(wr)
        proc.callbacks.append(lambda event: done.__setitem__(name, sim.now))
        return proc

    def handler():
        for qp in (qp_a, qp_b):  # warm both QPs and one rkey
            yield post("warm", qp, warm, 64)
        done["start"] = sim.now
        yield sim.all_of([post("miss", qp_a, cold, 4 * KB),
                          post("hit", qp_b, warm, 8)])

    cluster.run_process(handler())
    sim.run()
    return done, cluster.fabric.ports[cluster[0].node_id].tx_bytes


def test_same_instant_follower_is_not_overtaken():
    """The follower's shorter RNIC stage wins the TX port; a commit of
    the first WR at post time (holding the port from t0) would reorder
    them.  At its start hop the first WR sees the follower's bootstrap
    in the now-queue and declines."""
    fast = ab.check(follower)["fast"]
    done = fast.outcomes[0]
    assert done["hit"] < done["miss"], "the hitting follower finishes first"
    assert fast.fp["commits"] == 2, "only the two warm-up posts commit"
    assert fast.fp["rej_nowq"] >= 1


def cold_op(run, evict, opcode):
    """Warm everything with one SGE WRITE + one SGE READ, drop the named
    SRAM entries, then time one op (a SEND lands in a receive over the
    same remote range; an atomic moves 8 bytes, not 8 KB).  Returns the
    warm and the cold latency; ``run.notes["committed"]``: the cold op's
    commits."""
    world = _build(run, 1, 64 * KB)
    cluster = world["cluster"]
    sim = cluster.sim
    qp = world["qps"][0]
    rqp = cluster[1].device.qps[qp.remote[1]]
    local, remote = world["local"], world["big"]
    lrnic, rrnic = cluster[0].rnic, cluster[1].rnic
    size = 8 if opcode in (Opcode.FETCH_ADD, Opcode.CMP_SWAP) else 8 * KB
    timing = {}

    def op(opcode):
        wr = SendWR(opcode, sgl=[Sge(local, 0, size)],
                    remote_addr=remote.base_addr, rkey=remote.rkey)
        if opcode is Opcode.SEND:
            rqp.post_recv(RecvWR(remote, 0, size))
        start = sim.now
        yield qp.post_send(wr)
        return sim.now - start

    drop = {
        "lqp": lambda: lrnic.qp_cache.invalidate(qp.qpn),
        "lkey": lambda: lrnic.key_cache.invalidate(local.lkey),
        "lpte": lambda: lrnic.pte_cache.invalidate(
            local.page_ids(0, size)[-1]),
        "rqp": lambda: rrnic.qp_cache.invalidate(qp.remote[1]),
        "rkey": lambda: rrnic.key_cache.invalidate(
            remote.lkey if opcode is Opcode.SEND else remote.rkey),
        "rpte": lambda: rrnic.pte_cache.invalidate_many(
            remote.page_ids(0, size)),
    }

    def driver():
        yield from op(Opcode.WRITE)
        yield from op(Opcode.READ)
        yield from op(opcode)       # a SEND's receive-side lkey
        timing["warm"] = yield from op(opcode)
        for name in evict:
            assert drop[name]()
        before = snapshot(cluster)
        timing["cold"] = yield from op(opcode)
        run.notes["committed"] = (
            snapshot(cluster).delta(before).fastpath.commits)

    cluster.run_process(driver())
    sim.run()
    return timing["warm"], timing["cold"]


@pytest.mark.parametrize("opcode", [Opcode.WRITE, Opcode.READ, Opcode.SEND,
                                    Opcode.FETCH_ADD, Opcode.CMP_SWAP])
@pytest.mark.parametrize("evict", [
    ("lqp",), ("lkey",), ("lpte",), ("rqp",), ("rkey",), ("rpte",),
    ("lkey", "rpte"), ("lqp", "rqp", "rkey")])
def test_miss_is_priced_to_the_bit(evict, opcode):
    fast = ab.check(cold_op, evict=evict, opcode=opcode)["fast"]
    assert fast.run.notes["committed"] == 1, "the cold op must commit"
    warm, cold = fast.outcomes
    assert cold > warm, "the miss must cost simulated time"
    assert fast.fp["mismodels"] == 0


def self_evicting(run):
    """PTE cache of 4 holding pages 1..4 (1 oldest); an access of pages
    [0, 1] misses page 0, whose install evicts page 1 before its turn."""
    world = _build(run, 1, 64 * KB)
    cluster = world["cluster"]
    cluster[1].rnic.resize_caches(pte_entries=4)
    qp, remote = world["qps"][0], world["big"]
    times = []

    def write(offset, size):
        wr = SendWR(Opcode.WRITE, inline_data=b"z" * size,
                    remote_addr=remote.base_addr + offset, rkey=remote.rkey)
        start = cluster.sim.now
        yield qp.post_send(wr)
        times.append(cluster.sim.now - start)

    def driver():
        for page in (1, 2, 3, 4):
            yield from write(page * 4 * KB, 64)
        yield from write(0, 8 * KB)

    cluster.run_process(driver())
    cluster.sim.run()
    return times


def test_self_evicting_pte_access_is_declined_not_mispriced():
    fast = ab.check(self_evicting)["fast"]
    assert fast.fp["rej_miss"] == 1 and fast.fp["commits"] == 4
    pte = [row for row in fast.state[0][2] if row[1] == "ptes"][1]
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


# ---------------------------------------------------------------------------
# SEND and the 8-byte atomics
# ---------------------------------------------------------------------------
def _random_two_sided_wr(rng, world, index: int, follower: bool = False):
    """One random SEND / FETCH_ADD / CMP_SWAP and a ``result()`` reader
    for an atomic's returned word.  The follower's SENDs are short and
    inline, its atomics SGE-less: the shapes that commit with another
    committed op still in flight."""
    local, big = world["local"], world["big"]
    signaled = rng.random() < 0.7
    kind = rng.choice((0, 0, 2, 3, 4)) if follower else rng.randrange(5)
    if kind < 2:
        size = max(1, min(RECV_BYTES,
                          int(2 ** rng.uniform(0.0, 6.0 if follower else 12.0))))
        data = bytes([index & 0xFF]) * size
        if kind == 0:
            return SendWR(Opcode.SEND, inline_data=data,
                          signaled=signaled), None
        loff = rng.randrange(0, LOCAL_BYTES - size + 1)
        local.write(loff, data)
        return SendWR(Opcode.SEND, sgl=[Sge(local, loff, size)],
                      signaled=signaled), None
    # Word 0 starts three below 2**64 and only ever grows: it wraps.
    # Words 1.. hold 0..3, so a compare hits about one time in four.
    word = 0 if kind == 2 else rng.randrange(1, WORDS)
    if word == 0:
        args = dict(compare_add=rng.choice((1, 2, 5, 2**63)))
        opcode = Opcode.FETCH_ADD
    elif kind == 3:
        args = dict(compare_add=rng.randrange(4), swap=rng.randrange(4))
        opcode = Opcode.CMP_SWAP
    else:
        args = dict(compare_add=0)     # a pure fetch keeps the word small
        opcode = Opcode.FETCH_ADD
    if not follower and rng.random() < 0.5:
        loff = 8 * rng.randrange(0, LOCAL_BYTES // 8)
        wr = SendWR(opcode, sgl=[Sge(local, loff, 8)], signaled=signaled,
                    remote_addr=big.base_addr + 8 * word, rkey=big.rkey,
                    **args)
        return wr, lambda: local.read(loff, 8)
    wr = SendWR(opcode, remote_addr=big.base_addr + 8 * word, rkey=big.rkey,
                signaled=signaled, **args)
    return wr, lambda: wr.return_data


def two_sided_ops(run, seed, shared_srq, faults, n_mrs, region_bytes,
                  ops=140):
    """A closed loop of random SENDs and atomics on either QP, plus a
    follower the responder wakes at a RECV CQE to post on the second QP
    a moment later.  Returns the log, memory hash, ``posted_sends`` and
    the receive-queue depths."""
    world = _build(run, n_mrs, region_bytes, srq=shared_srq)
    cluster = world["cluster"]
    sim = cluster.sim
    _install_faults(cluster, faults, seed, 600.0)
    rng = random.Random(seed)
    rng_recv = random.Random(seed + 1)
    qps, big = world["qps"], world["big"]
    big.write(0, (2**64 - 3).to_bytes(8, "little"))
    log, buffers, poke = [], {}, []

    def post_recv(rqp):
        # A whole small MR, or a page-aligned slice of the big region
        # (past the atomic words' page).
        if rng_recv.random() < 0.6:
            mr, off = rng_recv.choice(world["small"]), 0
        else:
            mr = big
            off = RECV_BYTES * rng_recv.randrange(1, big.size // RECV_BYTES)
        wr_id = len(buffers)
        buffers[wr_id] = (mr, off)
        rqp.post_recv(RecvWR(mr, off, RECV_BYTES, wr_id=wr_id))

    for rqp in world["rqps"].values():
        for _ in range(6):
            post_recv(rqp)

    def receiver():
        while True:
            wc = yield world["recv_cq"].wait_wc()
            mr, off = buffers[wc.wr_id]
            log.append(("recv", wc.wr_id, wc.status, wc.opcode, wc.byte_len,
                        wc.qp_num, wc.src_qpn, wc.completed_at,
                        hashlib.sha1(mr.read(off, wc.byte_len)).hexdigest()))
            post_recv(world["rqps"][wc.qp_num])
            if poke and rng_recv.random() < 0.5:
                poke.pop().succeed()

    def post(index, qp, follower=False):
        wr, result = _random_two_sided_wr(rng, world, index, follower)
        proc = qp.post_send(wr)
        start = sim.now
        proc.callbacks.append(lambda event: log.append(
            (index, sim.now - start, event._value,
             result() if result is not None else None)))
        return proc

    def closed_loop():
        for index in range(ops):
            yield post(index, qps[rng.randrange(2)])
            _harvest(world, log)

    def follower():
        # Posts on the second QP just after the loop's RECV CQE: before
        # the loop's next op, which then commits with this one's SRQ
        # claim still outstanding, or right beside it, racing it for a
        # word.
        index = ops
        while True:
            wake = sim.event()
            poke.append(wake)
            yield wake
            yield sim.timeout(rng.choice((0.01, 0.02, 0.03, 0.4)))
            yield post(index, qps[1], follower=True)
            index += 1

    sim.process(receiver())
    sim.process(follower())
    cluster.run_process(closed_loop())
    sim.run()
    _harvest(world, log)
    depths = [len(rqp.srq if rqp.srq is not None else rqp._own_rq)
              for rqp in world["rqps"].values()]
    return log, _memory_hash(world), [qp.posted_sends for qp in qps], depths


@pytest.mark.parametrize("shared_srq", [False, True])
@pytest.mark.parametrize("n_mrs,region_bytes", [
    (40, 1 * MB), (300, 8 * MB)])
def test_send_and_atomics_equivalence_randomized(shared_srq, n_mrs,
                                                 region_bytes):
    fast = ab.check(two_sided_ops, seed=n_mrs + shared_srq,
                    shared_srq=shared_srq, faults=None, n_mrs=n_mrs,
                    region_bytes=region_bytes)["fast"]
    assert fast.fp["mismodels"] == 0
    # Receive buffers above the key / PTE reach miss and are priced; the
    # closed loop's ops commit unless the follower is mid-flight.
    assert fast.fp["commits"] > 0.6 * fast.fp["attempts"] > 60
    olds = [int.from_bytes(entry[3], "little") for entry in fast.outcomes[0]
            if isinstance(entry[0], int) and entry[3] is not None]
    assert any(old >= 2**64 - 3 for old in olds)
    assert any(old < 2**63 for old in olds), "word 0 never wrapped"


@pytest.mark.parametrize("faults", ["flap", "loss"])
@pytest.mark.parametrize("shared_srq", [False, True])
def test_send_and_atomics_equivalence_under_faults(shared_srq, faults):
    fp = ab.check(two_sided_ops, seed=23, shared_srq=shared_srq,
                  faults=faults, n_mrs=300, region_bytes=8 * MB)["fast"].fp
    assert fp["mismodels"] == 0
    if faults == "loss":
        assert fp["commits"] == 0 and fp["rej_port"] > 0
    else:
        assert fp["commits"] > 0


def race(run):
    """Two closed loops, one per QP, FETCH_ADD the same word; the second
    joins while the first is mid-stream."""
    world = _build(run, 1, 64 * KB, srq=True)
    sim = world["cluster"].sim
    big = world["big"]
    olds = []

    def adder(qp, delta, delay):
        yield sim.timeout(delay)
        for _ in range(25):
            wr = SendWR(Opcode.FETCH_ADD, compare_add=delta,
                        remote_addr=big.base_addr, rkey=big.rkey)
            yield qp.post_send(wr)
            olds.append((sim.now, wr.return_data))

    sim.process(adder(world["qps"][0], 1, 0.0))
    sim.process(adder(world["qps"][1], 1000, 7.3))
    sim.run()
    return olds, big.read(0, 8)


def test_two_qps_racing_one_word():
    fast = ab.check(race)["fast"]
    assert fast.fp["commits"] > 0 and fast.fp["mismodels"] == 0
    olds, word = fast.outcomes
    assert int.from_bytes(word, "little") == 25 * 1001
    values = {int.from_bytes(old, "little") for _, old in olds}
    assert len(values) == 50, "every fetch-add saw a distinct old word"


def interleaved_claims(run):
    """A on the first QP; B on the second, posted 0.02 µs after A's RECV
    CQE; A' on the first again at A's completion — while B, committed,
    has not yet taken its receive from the SRQ both QPs share."""
    world = _build(run, 1, 64 * KB, srq=True)
    cluster = world["cluster"]
    sim = cluster.sim
    qp_a, qp_b = world["qps"]
    rqp = next(iter(world["rqps"].values()))
    recv_mr = world["small"][0]
    for wr_id in range(8):
        rqp.post_recv(RecvWR(recv_mr, 0, RECV_BYTES, wr_id=wr_id))
    seen, wake = [], sim.event()

    def send(qp, tag):
        return qp.post_send(SendWR(Opcode.SEND, inline_data=tag * 8))

    def receiver():
        while True:
            wc = yield world["recv_cq"].wait_wc()
            seen.append((wc.wr_id, wc.src_qpn, sim.now, recv_mr.read(0, 8)))
            if len(seen) == 3:      # A: the two warm-ups came first
                wake.succeed()

    def follower():
        yield wake
        yield sim.timeout(0.02)
        yield send(qp_b, b"B")

    def driver():
        yield send(qp_a, b"w")
        yield send(qp_b, b"w")
        yield send(qp_a, b"A")
        run.notes["claims"] = getattr(rqp.srq, "_fp_claims", 0)
        yield send(qp_a, b"a")

    sim.process(receiver())
    sim.process(follower())
    cluster.run_process(driver())
    sim.run()
    return seen, len(rqp.srq)


def test_srq_claims_interleave_across_qps():
    fast = ab.check(interleaved_claims)["fast"]
    assert fast.run.notes["claims"] == 1, "A' must be posted in B's window"
    assert fast.fp["commits"] == fast.fp["attempts"] == 5
    assert fast.fp["mismodels"] == 0
    seen = fast.outcomes[0]
    assert [wr_id for wr_id, *_ in seen] == [0, 1, 2, 3, 4]
    assert [src for _, src, *_ in seen][2:] == [seen[0][1], seen[1][1],
                                                seen[0][1]]


# ---------------------------------------------------------------------------
# Shapes the commit declines: the generator path serves them, identically
# ---------------------------------------------------------------------------
def declined_shape(run, case: str):
    """One SEND (or atomic) of the named shape; returns its status, the
    CQEs, the QP state, RNR stalls and the bytes in the receive MR."""
    world = _build(run, 1, 64 * KB)
    cluster = world["cluster"]
    sim = cluster.sim
    a, b = cluster[0], cluster[1]
    qp = world["qps"][0]
    rqp = b.device.qps[qp.remote[1]]
    big, small = world["big"], world["small"][0]
    out = {}

    def late_recv():
        yield sim.timeout(40.0)
        rqp.post_recv(RecvWR(small, 0, RECV_BYTES))

    def driver():
        send = SendWR(Opcode.SEND, inline_data=b"n" * 64)
        if case == "no_recv_parks":
            sim.process(late_recv())
        elif case == "no_recv_rnr":
            rqp.modify_qp(rnr_retry=2)
        elif case == "short_recv":
            rqp.post_recv(RecvWR(small, 0, 16))
        elif case == "zero_length":
            rqp.post_recv(RecvWR(small, 0, RECV_BYTES))
            send = SendWR(Opcode.SEND, inline_data=b"")
        elif case == "bad_rkey":
            send = SendWR(Opcode.FETCH_ADD, compare_add=1,
                          remote_addr=big.base_addr, rkey=big.rkey + 7)
        elif case == "no_remote_atomic":
            plain = yield from b.device.reg_mr(
                rqp.pd, 4 * KB, Access.LOCAL_WRITE | Access.REMOTE_WRITE)
            send = SendWR(Opcode.CMP_SWAP, compare_add=0, swap=1,
                          remote_addr=plain.base_addr, rkey=plain.rkey)
        elif case == "delivered":
            rqp.post_recv(RecvWR(small, 0, RECV_BYTES))
            send.delivered = sim.event()
        else:                       # "uc" / "ud": never an attempt
            kind = case.upper()
            qp_x = a.device.create_qp(a.device.alloc_pd(), kind)
            rqp_x = b.device.create_qp(rqp.pd, kind)
            rqp_x.post_recv(RecvWR(small, 0, RECV_BYTES))
            dst = None
            if kind == "UC":
                a.device.connect(qp_x, rqp_x)
            else:
                dst = (b.node_id, rqp_x.qpn)
            out["status"] = yield qp_x.post_send(send, dst)
            return
        out["status"] = yield qp.post_send(send)

    cluster.run_process(driver())
    sim.run()
    cqes = [(wc.status, wc.opcode, wc.byte_len)
            for cq in (qp.send_cq, world["recv_cq"]) for wc in cq.poll(16)]
    return out["status"], cqes, qp.state, rqp.rnr_stalls, small.read(0, 64)


@pytest.mark.parametrize("case,status,reject", [
    ("no_recv_parks", WcStatus.SUCCESS, "rej_recv"),
    ("no_recv_rnr", WcStatus.RNR_RETRY_EXC_ERR, "rej_recv"),
    ("short_recv", WcStatus.LOC_LEN_ERR, "rej_shape"),
    ("zero_length", WcStatus.SUCCESS, "rej_shape"),
    ("bad_rkey", WcStatus.REM_INV_REQ_ERR, "rej_target"),
    ("no_remote_atomic", WcStatus.REM_ACCESS_ERR, "rej_target"),
    ("delivered", WcStatus.SUCCESS, "rej_shape"),
    ("uc", WcStatus.SUCCESS, None),
    ("ud", WcStatus.SUCCESS, None)])
def test_declined_shapes_take_the_generator_path(case, status, reject):
    fast = ab.check(declined_shape, case=case)["fast"]
    assert fast.outcomes[0] is status
    assert fast.fp["commits"] == 0 and fast.fp["mismodels"] == 0
    if reject is None:
        assert fast.fp["attempts"] == 0
    else:
        assert fast.fp["attempts"] == fast.fp[reject] == 1


def _post_and_end(run, linger: bool):
    """A handler that posts one FETCH_ADD and ends (its completion event
    sits behind the WR's start hop), or lingers one zero timeout."""
    world = _build(run, 1, 64 * KB)
    qp, big = world["qps"][0], world["big"]

    def body():
        qp.post_send(SendWR(Opcode.FETCH_ADD, compare_add=1,
                            remote_addr=big.base_addr, rkey=big.rkey))
        if linger:
            yield qp.sim.timeout(0.0)

    world["cluster"].run_process(body())
    world["cluster"].sim.run()


def test_inert_now_queue_entry_does_not_veto():
    """A triggered event nobody subscribed to — a finished handler's own
    completion — runs nothing when popped: the now-queue may hold it at
    a commit.  One callback, and it vetoes."""
    sim = Simulator()
    sim.timeout(5.0)
    inert = sim.event().succeed()
    assert list(sim._nowq) == [inert]
    assert sim.fp_nowq_inert() and sim.fp_horizon() == 5.0
    sim.event().succeed().callbacks.append(lambda event: None)
    assert not sim.fp_nowq_inert() and sim.fp_horizon() == sim.now
    for linger, slot in ((False, "commits"), (True, "rej_nowq")):
        fp = ab.run(_post_and_end, "fast", linger=linger).fp
        assert fp["attempts"] == fp[slot] == 1


# ---------------------------------------------------------------------------
# Nothing fences the cost table: every cached fact is checked at use
# ---------------------------------------------------------------------------
def former_fences(run):
    """One RC QP pair; a WRITE and a READ after a warm-up and after each
    event that used to fence the cost table.  Returns the per-op log;
    ``run.notes`` holds each step's fast-path counts."""
    world = _build(run, 2, 64 * KB)
    cluster = world["cluster"]
    sim = cluster.sim
    a, b = cluster[0], cluster[1]
    qp = world["qps"][0]
    target, other = world["small"]
    live = world["big"]
    log = []

    def ops(step, mr):
        before = ab.fp_counts(cluster)
        for opcode in (Opcode.WRITE, Opcode.READ):
            if opcode is Opcode.WRITE:
                wr = SendWR(opcode, inline_data=step.encode() * 16,
                            remote_addr=mr.base_addr + 64, rkey=mr.rkey)
            else:
                wr = SendWR(opcode, read_length=256,
                            remote_addr=mr.base_addr + 64, rkey=mr.rkey)
            start = sim.now
            status = yield qp.post_send(wr)
            log.append((step, opcode, status, sim.now - start,
                        wr.return_data))
        run.notes[step] = ab.fp_delta(cluster, before)

    def driver():
        yield from ops("warm", target)
        yield from ops("warm-live", live)
        yield from b.device.dereg_mr(target, free_backing=False)
        yield from ops("dereg-keep", target)
        yield from b.device.dereg_mr(other, free_backing=True)
        yield from ops("dereg-free", live)
        for node in (a, b):
            node.rnic.resize_caches(key_entries=64, pte_entries=64,
                                    qp_entries=16)
        yield from ops("resize", live)
        qp._enter_error()
        qp.reset()
        yield from ops("reset", live)
        t0 = sim.now
        FaultInjector(cluster, FaultPlan()
                      .link_flap(b.node_id, 5.0, t0 + 15.0, 10.0, 10.0)
                      .crash(b.node_id, 100.0, restart_at_us=120.0),
                      ).install()
        yield sim.timeout(20.0)
        yield from ops("flap", live)
        yield sim.timeout(t0 + 130.0 - sim.now)
        yield from ops("restart", live)

    cluster.run_process(driver())
    sim.run()
    return log


def test_one_table_across_every_former_fence():
    """MR deregistration (backing kept or freed), an SRAM resize, a QP
    error + reset, a link flap and a crash + restart: the fast run
    matches the slow one, builds its cost table once, and declines only
    the ops aimed at the deregistered MR — its span memo entry checks
    ``mr.deregistered`` at use."""
    fast = ab.check(former_fences, modes=ab.MODES)["fast"]
    steps, log = fast.run.notes, fast.outcomes
    assert fast.fp["mismodels"] == 0
    assert fast.fp["table_builds"] == 1
    statuses = {(step, opcode): status for step, opcode, status, _, _ in log}
    nak = WcStatus.REM_INV_REQ_ERR
    assert statuses[("dereg-keep", Opcode.WRITE)] is nak
    assert statuses[("dereg-keep", Opcode.READ)] is nak
    assert steps["dereg-keep"]["rej_target"] == 2
    assert steps["dereg-keep"]["commits"] == 0
    for step in ("warm", "warm-live", "dereg-free", "resize", "reset",
                 "flap", "restart"):
        assert statuses[(step, Opcode.WRITE)] is WcStatus.SUCCESS, step
        assert statuses[(step, Opcode.READ)] is WcStatus.SUCCESS, step
        assert steps[step]["commits"] == steps[step]["attempts"] == 2, step
    latency = {(step, opcode): took for step, opcode, _, took, _ in log}
    assert (latency[("resize", Opcode.WRITE)]
            > latency[("dereg-free", Opcode.WRITE)]), "a flushed SRAM misses"
