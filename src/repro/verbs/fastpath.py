"""Run-to-completion fast path for uncontended one- and two-sided ops.

The generator datapath walks ~10 frames per op (`api` → `kernel` → `qp`
→ `rnic` → `fabric`), each suspension costing a scheduler round trip —
even when nothing can actually block.  This module detects that
uncontended case at post time (for a native ``qp.post_send``: at the
WR's own start hop) and executes the whole op as arithmetic:
the timeline every layer *would* produce is computed from a per-QP cost
table, the synchronous state transitions are applied immediately, and
the handful of transitions that land later (resource releases, the
responder-order event, CQE delivery) are scheduled as *batch dispatches*
on the engine's fast-path queue (`Simulator.fp_schedule`) — one callable
per distinct instant instead of one event per transition.

There is exactly one commit (:func:`_commit`): one entry pass, one
timeline, one state replay, one dispatch set for WRITE / WRITE_IMM /
READ / SEND (the WRITE_IMM timeline with a two-pass responder) / the
8-byte atomics (the READ timeline with the read-modify-write at the
responder).  The four entries differ only in how they find the target
— :func:`try_fast_post` from a ``SendWR`` LITE is about to post, the
native one (``QueuePair._execute``, through the same :func:`_try_wr`)
from one ``qp.post_send`` already prepared, :func:`try_fast_chain` from
a raw write's (peer, address), :func:`try_fast_post_vec` from the one
remote chunk an LMR access lands in — never in the timeline; all
four resolve what is *at* the target through ``CostTable.resolve``.

A committed WRITE_IMM or SEND pushes its real receive CQE at the
responder's write-back instant, so the receiving poller wakes, charges
and dispatches exactly as it does on the generator path.

Soundness rests on two pillars:

1. **Real holds.**  Every resource the op would occupy (SQ slot, QP
   window, both RNIC pipelines, the four port channels) is acquired with
   a real ``in_use`` increment at commit and released by a real
   ``release()`` at the exact instant the slow path would release it.
   A concurrent op that falls back to the generator path therefore
   queues and wakes exactly as it would against a slow holder.

2. **The horizon check.**  An op commits only when the now-queue
   holds nothing that would run code (`Simulator.fp_nowq_inert`) and no
   ordinary event is scheduled before the op's completion time
   (`Simulator.fp_horizon`).  Until the op finishes, the only
   actors in the simulation are this op's own batch dispatches and those
   of previously committed fast ops — so no third party can observe the
   (slightly widened) hold windows or the eagerly-applied counters.

What still deviates, by design (all counter/LRU-state end-equivalent,
none timing-visible under the horizon check; see INTERNALS §13):
cache lookups are replayed at commit time rather than at the lookup
instants (a *miss*, which installs and may evict, only from the native
start hop with no committed op in flight), and byte counters
(fabric/RNIC/port) are applied at commit.
Residual mismodels (a resource found full at an acquire instant, an SRQ
drained by a foreign consumer mid-flight) are counted in ``fp_stats``.

``Simulator._seq`` is the same-instant tie-break and a count of real
enqueues: a commit numbers its dispatches ``_seq + 1 …`` and nothing
else, so a fast run's final ``_seq`` is smaller than a slow run's and
the two are never compared (simulated time, snapshots and op outcomes
are).
"""

from __future__ import annotations

import struct
from heapq import heappush

from .wr import (ACK_BYTES, Access, Opcode, SendWR, WcStatus, WorkCompletion,
                 wire_bytes)

__all__ = ["try_fast_post", "try_fast_post_vec", "try_fast_chain",
           "prime_qp", "fp_stats", "FastPathStats"]

_NEED_REMOTE_WRITE = Access.REMOTE_WRITE.value
_NEED_REMOTE_READ = Access.REMOTE_READ.value
_NEED_REMOTE_ATOMIC = Access.REMOTE_ATOMIC.value
_WIRE0 = wire_bytes(0)
_WIRE_ATOMIC = wire_bytes(16)       # an atomic's operands ride in the header
_WORD = struct.Struct("<Q")
# Enum members as module constants: ``Opcode.X`` is a metaclass lookup
# (~0.1 µs), paid several times per attempt otherwise.
_WRITE, _WRITE_IMM, _READ, _SEND = (Opcode.WRITE, Opcode.WRITE_IMM,
                                    Opcode.READ, Opcode.SEND)
_FETCH_ADD, _CMP_SWAP = Opcode.FETCH_ADD, Opcode.CMP_SWAP
_RECV, _RECV_IMM = Opcode.RECV, Opcode.RECV_IMM
_SUCCESS = WcStatus.SUCCESS

# Entries per target memo: a pathological address or size sweep
# clears and rebuilds rather than growing without bound.
_MEMO_MAX = 512


class FastPathStats:
    """Module-wide fast-path telemetry (host-side only, not sim state).

    ``attempts``/``commits`` count the WR entries (LITE's post-time one
    and the native start-hop one), ``chain_*`` the raw-write entry,
    ``vec_*`` and ``plan_*`` the plan entry.  Every declined attempt is
    also counted once, under the first entry condition that failed (the
    ``rej_*`` counters; INTERNALS §13 lists what each check covers), so
    attempts = commits + rejects.  All plain ints: consumers snapshot
    ``__slots__`` and subtract.
    """

    __slots__ = ("attempts", "commits", "mismodels", "table_builds",
                 "vec_attempts", "vec_commits", "plan_builds", "plan_hits",
                 "chain_attempts", "chain_commits",
                 "rej_shape", "rej_qp_state", "rej_pred", "rej_sq",
                 "rej_nowq", "rej_table", "rej_pipeline", "rej_port",
                 "rej_floor", "rej_miss", "rej_target", "rej_recv",
                 "rej_horizon")

    def __init__(self):
        self.reset()

    def reset(self) -> None:
        for name in self.__slots__:
            setattr(self, name, 0)

    def __repr__(self) -> str:
        return "FastPathStats(%s)" % ", ".join(
            f"{name}={getattr(self, name)}" for name in self.__slots__)


fp_stats = FastPathStats()


def _no(reason: str) -> None:
    """Count a declined attempt under its first failing condition."""
    setattr(fp_stats, reason, getattr(fp_stats, reason) + 1)


class CostTable:
    """Per-QP state of the commit: resources, ports, target memos.

    Built lazily at first fast post (or eagerly via :func:`prime_qp`),
    stamped with the local, remote and fabric ``SimParams`` mutation
    counters.  All else it holds is fixed for the node's lifetime or
    checked where the commit uses it (INTERNALS §13), so no other
    module invalidates it.  It holds no prices: the commit reads every
    stage duration from the same ``params.prices`` lists the generator
    path reads.
    """

    __slots__ = (
        "qp", "remote", "stamp", "fabric", "rdev", "rqp",
        "lrnic", "rrnic", "lpipe", "rpipe", "src_port", "dst_port",
        "src_tx", "src_rx", "dst_tx", "dst_rx",
        "src_node", "dst_node", "dst_qpn", "srq_source", "srq_items",
        "_lparams", "_rparams", "_fparams", "_spans", "_phys", "_pregions", "_mem",
        "_rel_t2", "_rel_t3", "_rel_back",
    )

    def __init__(self, qp):
        device = qp.device
        node = device.node
        fabric = node.fabric
        dst_node, dst_qpn = qp.remote
        rnode = fabric.nodes.get(dst_node)
        if rnode is None:
            raise KeyError(dst_node)
        rdev = rnode.device

        self.qp = qp
        self.remote = qp.remote
        self.fabric = fabric
        self.rdev = rdev
        self.rqp = rdev.qps.get(dst_qpn)
        self.lrnic = lrnic = device.rnic
        self.rrnic = rrnic = rdev.rnic
        self.lpipe = lrnic._pipeline
        self.rpipe = rrnic._pipeline
        self.src_node = node.node_id
        self.dst_node = dst_node
        self.dst_qpn = dst_qpn
        src_port = fabric.ports.get(node.node_id)
        dst_port = fabric.ports.get(dst_node)
        if src_port is None or dst_port is None:
            raise KeyError(dst_node)
        self.src_port = src_port
        self.dst_port = dst_port
        self.src_tx = src_port.tx
        self.src_rx = src_port.rx
        self.dst_tx = dst_port.tx
        self.dst_rx = dst_port.rx

        self._lparams = device.params
        self._rparams = rdev.params
        self._fparams = fabric.params
        # (rkey, addr, nbytes, need) → (free epoch, resolved target, mr).
        # MR identity, bounds, access bits, and the page list are
        # immutable for a live registration, so a hit checks
        # ``mr.deregistered`` plus the host allocator's free epoch.
        self._spans = {}
        # rkey → (mr, base_addr, end_addr) for *physical* MRs (the LITE
        # global MR): identity and bounds are immutable for a live
        # registration and every address is in-reach, so a hit checks
        # ``mr.deregistered`` and runs only the backing resolution
        # (allocator-epoch dependent).
        self._phys = {}
        # rkey → (region, lo, hi): last backing region hit for a
        # *physical* MR.  The global MR spans the whole remote heap, so
        # ``mr._backing`` bisects the allocator's live list per attempt;
        # ring/head slots hit the same region every op, so one cached
        # (region, bounds) triple — validated by ``region.freed`` plus
        # containment — replaces the bisect.  A freed-then-reused range
        # can never serve stale: free() flips the flag on the old object.
        self._pregions = {}
        self._mem = rnode.memory
        # Receive-queue source for inbound WRITE_IMM, resolved lazily
        # and revalidated by identity per attempt.
        self.srq_source = None
        self.srq_items = None
        # Shared dispatch callables: the t2/t3/ack-release bodies are
        # identical for every commit on this table, so one instance
        # each replaces a per-commit closure build.
        self._rel_t2 = self.lpipe.release

        def _rel_t3(rx=self.dst_rx.release, tx=self.src_tx.release):
            rx()
            tx()

        self._rel_t3 = _rel_t3

        def _rel_back(rx=self.src_rx.release, tx=self.dst_tx.release):
            rx()
            tx()

        self._rel_back = _rel_back
        self.stamp = self._current_stamp()
        fp_stats.table_builds += 1

    def _current_stamp(self):
        return (self._lparams._version, self._rparams._version,
                self._fparams._version)

    def valid(self) -> bool:
        """True while the QP's peer and every folded-in float input
        are unchanged."""
        return (self.remote == self.qp.remote
                and self.stamp == self._current_stamp())

    def floor(self) -> float:
        """Lower bound on any op's completion delay, for the early
        horizon reject: doorbell, a bare WQE at each RNIC, an empty
        frame out and both propagations — a strict subset of every
        timeline's terms, so rounding never lifts it past one."""
        lp = self._lparams.prices
        fp = self._fparams.prices
        return (lp.doorbell + lp.wqe + fp.ser(_WIRE0) + fp.prop
                + self._rparams.prices.wqe + fp.prop)

    def resolve(self, rkey: int, addr: int, nbytes: int, need: int):
        """Resolve a remote span to ``(pages, backing, reg_off)``, or None.

        Memoised replay of ``rdev._resolve_remote``.  Physical MRs (the
        LITE global MR — every RPC/ring address) see a fresh address on
        most posts, so the per-span memo would miss and churn; their
        immutable identity/bounds are cached per rkey instead and only
        the backing resolution (allocator-epoch dependent) runs per
        attempt.
        """
        phys = self._phys.get(rkey)
        if phys is not None:
            mr, base, end = phys
            if mr.deregistered:
                return None
            if not (base <= addr and addr + nbytes <= end):
                return None
            if not (mr._access_bits & need):
                return None
            preg = self._pregions.get(rkey)
            if (preg is not None and not preg[0].freed
                    and preg[1] <= addr and addr + nbytes <= preg[2]):
                return (), preg[0], addr - preg[1]
            try:
                backing, reg_off = mr._backing(addr - base, nbytes)
            except ValueError:
                return None
            self._pregions[rkey] = (
                backing, backing.addr, backing.addr + backing.size)
            return (), backing, reg_off
        key = (rkey, addr, nbytes, need)
        span = self._spans.get(key)
        if (span is not None and span[0] == self._mem.version
                and not span[2].deregistered):
            return span[1]
        mr = self.rdev.mrs_by_rkey.get(rkey)
        if mr is None or mr.deregistered:
            return None
        base = mr.base_addr
        if not (base <= addr and addr + nbytes <= base + mr.size):
            return None
        if not (mr._access_bits & need):
            return None
        offset = addr - base
        try:
            backing, reg_off = mr._backing(offset, nbytes)
        except ValueError:
            return None
        if mr.physical:
            self._phys[rkey] = (mr, base, base + mr.size)
            return (), backing, reg_off
        target = (tuple(mr.page_ids(offset, nbytes)), backing, reg_off)
        spans = self._spans
        if len(spans) >= _MEMO_MAX:
            spans.clear()
        spans[key] = (self._mem.version, target, mr)
        return target


def _table_for(qp):
    table = qp._fp_table
    if table is not None and table.valid():
        return table
    try:
        table = CostTable(qp)
    except KeyError:
        return None
    qp._fp_table = table
    return table


def prime_qp(qp) -> bool:
    """Build (or revalidate) a QP's cost table eagerly.

    Called at connection setup (``LiteKernel.connect``), so the first
    op on a shared QP pays no table-build stall in its timed region.  A
    still-valid table is kept as-is.  Returns True when a valid table
    is in place afterwards.  Host-side only: priming never advances
    simulated time, so fast and slow runs stay bit-identical.
    """
    if qp._is_rc and qp.remote is not None:
        return _table_for(qp) is not None
    return False


def _armed(sim) -> bool:
    """The one bail-out: kill switch off and no tracer attached (the
    trace goldens pin the generator path's span tree)."""
    return sim.fastpath_enabled and sim.tracer is None


def _lookup_cost(rnic, qpn, key, pages):
    """Miss penalties one RNIC stage's lookups would add, from probes.

    Non-mutating, summed in the generator's order (QP, then key, then
    the PTE penalty added once per miss) so the stage duration stays
    bit-identical; all hits give exactly ``0.0``.  ``key`` is None for
    a stage that resolves no MR, ``qpn`` for one that resolves no QP
    (a SEND's second responder pass).  Returns None when the PTE probe
    cannot predict what the replay will do.
    """
    params = rnic.params
    cost = (0.0 if qpn is None or rnic.qp_cache.contains(qpn)
            else params.qp_miss_penalty_us)
    if key is not None:
        if not rnic.key_cache.contains(key):
            cost += params.mr_key_miss_penalty_us
        misses = rnic.pte_cache.predict_misses(pages) if pages else 0
        if misses is None:
            return None
        if misses:
            pte = 0.0
            for _ in range(misses):
                pte += params.pte_miss_penalty_us
            cost += pte
    return cost


def _commit(qp, window, opcode, payload, nbytes, rkey, addr, imm, signaled,
            wr, want_handle, pred=None, prepared=False):
    """Run one WRITE / WRITE_IMM / READ / SEND / atomic to completion, or
    touch nothing.

    The single commit behind all four entries.  ``wr`` is the posted
    ``SendWR`` or None (the id counter is then bumped arithmetically so
    a fall-back op mints the same id either way).  ``prepared``
    marks the native entry: ``QueuePair._prepare`` ran at post time
    (``pred`` and ``wr._order_done`` are its RC order link; nothing is
    bumped twice) and the attempt comes from the WR's own start hop —
    the only place a commit may touch state *earlier* than the generator
    path would (a miss installing, a local SGE gathered, at t0), and
    then only while no committed op is in flight.  Returns the
    completion handle — it succeeds at the op's completion instant with
    ``WcStatus.SUCCESS``, or with the READ bytes when there is no ``wr``
    to carry them — or True when ``want_handle`` is false; None when any
    entry condition fails, in which case *no state has been touched*
    and the caller must take the generator path.

    The entry pass runs cheapest-first, then in the measured order of
    rejection (INTERNALS §13): on contended RPC traffic a busy pipeline,
    a pending predecessor or a busy port channel rejects; on application
    traffic the horizon does, so it is read once, right after the
    structural checks, and tested against a lower bound on the
    completion time before any resolution or timeline work.
    """
    if not qp._is_rc or qp.state != "RTS" or qp.remote is None:
        return _no("rej_qp_state")
    if not prepared:
        pred = qp._last_remote_done
    if pred is not None and pred.callbacks is not None:
        return _no("rej_pred")
    sq = qp._sq_slots
    if sq.in_use >= sq.capacity:
        return _no("rej_sq")
    if window is not None and window.in_use >= window.capacity:
        return _no("rej_sq")
    sim = qp.sim
    if sim._nowq and not sim.fp_nowq_inert():
        return _no("rej_nowq")

    table = _table_for(qp)
    if table is None:
        return _no("rej_table")
    lpipe = table.lpipe
    rpipe = table.rpipe
    if lpipe.in_use >= lpipe.capacity or rpipe.in_use >= rpipe.capacity:
        return _no("rej_pipeline")
    fabric = table.fabric
    src_port = table.src_port
    dst_port = table.dst_port
    # No fault hook (a commit assumes lossless delivery), both links
    # up, all four port channels idle.
    if not fabric.fp_path_clear(src_port, dst_port):
        return _no("rej_port")
    if table.src_node == table.dst_node:
        return _no("rej_port")  # loopback short-circuits the wire
    # A crashed peer: a crash downs its link (caught above), but a link
    # plan may bring the link back up while the node is still failed.
    rdev = table.rdev
    if rdev.node.crashed:
        return _no("rej_port")
    dst_qpn = table.dst_qpn

    # Nothing ordinary may be scheduled at or before completion: any
    # such event could observe (or perturb) the op mid-flight.  The
    # horizon is read once; this first test can only reject what the
    # exact one below would (``floor`` is below every completion delay).
    t0 = sim.now
    horizon = sim.fp_horizon()
    if horizon <= t0 + table.floor():
        return _no("rej_floor")

    read_op = opcode is _READ
    send_op = opcode is _SEND
    atomic = opcode is _FETCH_ADD or opcode is _CMP_SWAP
    rqp = srq_source = srq_items = recv = None
    if send_op or opcode is _WRITE_IMM:
        # The landing receive: the next posted one no committed op has
        # claimed, from the responder QP's own RQ or its SRQ.  (A SEND
        # under a bounded RNR policy is the generator's to play out.)
        rqp = table.rqp
        if rqp is None or rqp is not rdev.qps.get(dst_qpn):
            rqp = rdev.qps.get(dst_qpn)
            table.rqp = rqp
            if rqp is None:
                return _no("rej_target")
        srq_source = rqp.srq if rqp.srq is not None else rqp._own_rq
        if srq_source is not table.srq_source:
            try:
                srq_source._fp_claims
            except AttributeError:
                srq_source._fp_claims = 0
            table.srq_source = srq_source
            store = getattr(srq_source, "_store", srq_source)
            table.srq_items = store.items
        srq_items = table.srq_items
        if (len(srq_source) <= srq_source._fp_claims
                or (send_op and rqp.rnr_retry < 7)):
            return _no("rej_recv")
    if send_op:
        # A SEND's responder resolves the receive buffer's MR the way a
        # WRITE's resolves the rkey (priced and replayed alike); a short
        # buffer is the generator's LOC_LEN_ERR.
        recv = srq_items[srq_source._fp_claims]
        rmr = recv.mr
        if rmr is None or recv.length < nbytes:
            return _no("rej_shape")
        rkey = rmr.lkey
        pages = rmr.page_ids(recv.offset, nbytes)
    else:
        target = table.resolve(
            rkey, addr, nbytes,
            _NEED_REMOTE_ATOMIC if atomic
            else _NEED_REMOTE_READ if read_op else _NEED_REMOTE_WRITE)
        if target is None:
            return _no("rej_target")
        pages, backing, reg_off = target

    # SRAM lookups (QP, key, PTEs on both RNICs).  Probes are
    # non-mutating; every lookup is replayed with the real access() at
    # commit below, so installs, evictions, recency and stats end as the
    # generator path leaves them.
    lrnic = table.lrnic
    rrnic = table.rrnic
    cost_q = 0.0
    sge = wr.sgl[0] if wr is not None and wr.sgl else None
    if prepared and not sim._fpq:
        # Start hop, nothing committed in flight: misses are priced.
        lkey = lpages = None
        if sge is not None:
            lmr = sge.mr
            if lmr.region is None or lmr.region.freed:
                return _no("rej_shape")
            lkey = lmr.lkey
            lpages = lmr.page_ids(sge.offset, sge.length)
        cost_l = _lookup_cost(lrnic, qp.qpn, lkey, lpages)
        cost_r = _lookup_cost(rrnic, None if send_op else dst_qpn, rkey, pages)
        if cost_l is None or cost_r is None:
            return _no("rej_miss")
        if send_op and not rrnic.qp_cache.contains(dst_qpn):
            cost_q = table._rparams.qp_miss_penalty_us
    elif (sge is not None
          or not lrnic.qp_cache.contains(qp.qpn)
          or not rrnic.qp_cache.contains(dst_qpn)
          or not rrnic.key_cache.contains(rkey)
          or (pages and not rrnic.pte_cache.contains_all(pages))):
        # Post time (the posting handler may still post a same-instant
        # sibling) or committed ops in flight: all-hit, inline only.
        return _no("rej_miss")
    else:
        cost_l = cost_r = 0.0

    # ---- timeline (the generator path's stages, in its add order) ----
    lp = table._lparams.prices
    rp = table._rparams.prices
    fp = table._fparams.prices
    wire_n = wire_bytes(nbytes)
    ser = fp.ser(wire_n)
    # READ and the atomics send a bare request and scatter a response.
    resp_op = read_op or atomic
    t1 = t0 + lp.doorbell               # doorbell MMIO
    if resp_op:
        t2 = t1 + lp.occupancy(cost_l, 0)   # request WQE carries no payload
        t3 = t2 + fp.ser(_WIRE_ATOMIC if atomic else _WIRE0)
    else:
        t2 = t1 + lp.occupancy(cost_l, nbytes)  # lookups + payload DMA
        t3 = t2 + ser                   # serialization out
    t4 = t3 + fp.prop                   # propagation + switch
    if send_op:
        # Two-pass responder: the QP context first, then the receive
        # buffer's key / PTEs and the payload DMA.
        t4 = t_take = t4 + rp.occupancy(cost_q, 0)
    t5 = t4 + rp.occupancy(cost_r, nbytes)  # remote lookups + DMA + memory op
    if resp_op:
        back = t5 + ser                 # response serialization
        t6 = back + fp.prop
        t7 = t6 + lp.occupancy(0.0, nbytes)  # local scatter pass, all-hit
    else:
        # Responder CQE write-back, when a receive completes there.
        t_rc = t5 + rp.completion if rqp is not None else t5
        back = t_rc + fp.ser(ACK_BYTES)
        t7 = (back + fp.prop) + lp.ack
    t_end = t7 + lp.completion if signaled else t7
    if horizon <= t_end:
        return _no("rej_horizon")

    # ---- commit ------------------------------------------------------
    if prepared:
        done = wr._order_done
    else:
        qp.posted_sends += 1
        done = sim.event()
        qp._last_remote_done = done
        if wr is not None:
            wr._order_done = done
    if wr is not None:
        wr_id = wr.wr_id
        if payload is None and not resp_op:
            payload = qp._gather(wr)
    else:
        # The slow path allocates a SendWR before posting; keep the
        # process-global id counter aligned.
        wr_id = SendWR._next_id + 1
        SendWR._next_id = wr_id

    # Lookup replay, in slow-path order (installs, recency, stats).
    lrnic.qp_cache.access(qp.qpn)
    if sge is not None:
        lrnic.key_cache.access(lkey)
        lrnic.pte_cache.access_many(lpages)
    rrnic.qp_cache.access(dst_qpn)
    rrnic.key_cache.access(rkey)
    if pages:
        rrnic.pte_cache.access_many(pages)

    # Counter replay (end-state equivalent; see module docstring).
    if resp_op:
        if read_op:
            lrnic.qp_cache.access(qp.qpn)   # response scatter pass
        lrnic.wqe_count += 2
        out_bytes = _WIRE_ATOMIC if atomic else _WIRE0
        back_bytes = wire_n
    else:
        lrnic.wqe_count += 1
        out_bytes = wire_n
        back_bytes = ACK_BYTES
    lrnic.bytes_dma += nbytes
    rrnic.wqe_count += 2 if send_op else 1
    rrnic.bytes_dma += nbytes
    fabric.total_bytes += out_bytes + back_bytes
    fabric.transfer_count += 2
    src_port.tx_bytes += out_bytes
    dst_port.rx_bytes += out_bytes
    dst_port.tx_bytes += back_bytes
    src_port.rx_bytes += back_bytes

    # Real holds for the op's first phase (released at exact times by
    # the dispatches below; the return-leg channels are acquired at the
    # instant the slow path would request them).
    src_tx = table.src_tx
    dst_rx = table.dst_rx
    dst_tx = table.dst_tx
    src_rx = table.src_rx
    sq.in_use += 1
    if window is not None:
        window.in_use += 1
    lpipe.in_use += 1
    rpipe.in_use += 1
    src_tx.in_use += 1
    dst_rx.in_use += 1
    if srq_source is not None:
        srq_source._fp_claims += 1

    handle = sim.event() if want_handle else None
    box = []

    def turn_around():
        # Responder done: publish RC order, request the return leg.
        done.succeed()
        if dst_tx.in_use >= dst_tx.capacity:
            fp_stats.mismodels += 1
        if src_rx.in_use >= src_rx.capacity:
            fp_stats.mismodels += 1
        dst_tx.in_use += 1
        src_rx.in_use += 1

    def at_end():
        if signaled:
            send_cq = qp.send_cq
            if send_cq is not None:
                send_cq.push(WorkCompletion(
                    wr_id=wr_id, status=_SUCCESS, opcode=opcode,
                    byte_len=nbytes, imm=imm, qp_num=qp.qpn,
                ))
        sq.release()
        if window is not None:
            window.release()
        if handle is not None:
            handle.succeed(
                box[0] if read_op and wr is None else _SUCCESS)

    # fp_schedule inlined (this is the hottest dispatch source): each
    # push takes the next seq, exactly as fp_schedule calls in program
    # order would.
    seq = sim._seq
    fpq = sim._fpq
    seq += 1
    heappush(fpq, (t2, seq, table._rel_t2))
    seq += 1
    heappush(fpq, (t3, seq, table._rel_t3))

    if resp_op:

        def at_mid():
            rpipe.release()
            try:
                old = backing.read(reg_off, nbytes)
                if atomic:
                    # Read-modify-write inside one dispatch: atomic in
                    # the event loop, as in ``Device.inbound``.
                    word = _WORD.unpack(old)[0]
                    if opcode is _FETCH_ADD:
                        word = (word + wr.compare_add) % (1 << 64)
                    elif word == wr.compare_add:
                        word = wr.swap
                    backing.write(reg_off, _WORD.pack(word))
                box.append(old)
            except ValueError:
                box.append(b"")
                fp_stats.mismodels += 1
            turn_around()

        def at_t6():
            if lpipe.in_use >= lpipe.capacity:
                fp_stats.mismodels += 1
            lpipe.in_use += 1

        def at_t7():
            lpipe.release()
            if wr is not None:
                qp._scatter(wr, box[0])

        seq += 1
        heappush(fpq, (t5, seq, at_mid))
        seq += 1
        heappush(fpq, (back, seq, table._rel_back))
        seq += 1
        heappush(fpq, (t6, seq, at_t6))
        seq += 1
        heappush(fpq, (t7, seq, at_t7))

    elif opcode is _WRITE:

        def at_mid():
            rpipe.release()
            try:
                backing.write(reg_off, payload)
            except ValueError:
                fp_stats.mismodels += 1
            turn_around()

        seq += 1
        heappush(fpq, (t5, seq, at_mid))
        seq += 1
        heappush(fpq, (back, seq, table._rel_back))

    else:  # WRITE_IMM, SEND
        src_node = table.src_node

        def take_recv():
            # Pop the receive at the generator's instant; a SEND priced
            # its buffer at commit, so it must be that very one.
            if srq_items:
                box.append(srq_items.popleft())
            if not box or (send_op and box[0] is not recv):
                fp_stats.mismodels += 1
            srq_source._fp_claims -= 1

        if send_op:

            def at_take():
                rpipe.release()         # first pass done; second begins
                if rpipe.in_use >= rpipe.capacity:
                    fp_stats.mismodels += 1
                rpipe.in_use += 1
                take_recv()

            def at_mid():
                rpipe.release()
                if box:
                    box[0].mr.write(box[0].offset, payload)

            seq += 1
            heappush(fpq, (t_take, seq, at_take))
        else:

            def at_mid():
                rpipe.release()
                try:
                    backing.write(reg_off, payload)
                except ValueError:
                    fp_stats.mismodels += 1
                take_recv()

        def at_rc():
            if box:
                recv_cq = rqp.recv_cq
                if recv_cq is not None:
                    recv_cq.push(WorkCompletion(
                        wr_id=box[0].wr_id, status=_SUCCESS,
                        opcode=_RECV if send_op else _RECV_IMM,
                        byte_len=nbytes, imm=imm,
                        qp_num=dst_qpn, src_node=src_node, src_qpn=qp.qpn,
                    ))
            turn_around()

        seq += 1
        heappush(fpq, (t5, seq, at_mid))
        seq += 1
        heappush(fpq, (t_rc, seq, at_rc))
        seq += 1
        heappush(fpq, (back, seq, table._rel_back))

    seq += 1
    heappush(fpq, (t_end, seq, at_end))
    sim._seq = seq
    return handle if want_handle else True


def _try_wr(qp, wr, window, pred, prepared):
    """The WR entries: size up a posted ``SendWR`` and call the commit.

    ``prepared`` is the native Verbs entry, called by ``QueuePair._execute``
    at the start hop of a WR that ``qp.post_send`` already prepared
    (``pred`` is the RC predecessor ``_prepare`` returned): the WR's own
    process on its first resume, never the posting handler — that
    handler has parked or ended by now and the commit requires a
    now-queue that runs nothing, so nothing else can be posted at this
    instant behind a committed op.  Same contract as
    :func:`try_fast_post`; a READ or atomic scatters into its SGE when
    it has one.
    """
    if not _armed(qp.sim):
        return None
    fp_stats.attempts += 1

    opcode = wr.opcode
    sgl = wr.sgl
    payload = wr.inline_data
    if opcode is _WRITE or opcode is _WRITE_IMM or opcode is _SEND:
        if payload is not None:
            nbytes = len(payload)
        else:
            nbytes = sgl[0].length if sgl else 0
    elif payload is not None:
        return _no("rej_shape")
    elif opcode is _READ:
        nbytes = sgl[0].length if sgl else wr.read_length
    elif opcode is _FETCH_ADD or opcode is _CMP_SWAP:
        nbytes = 8
    else:
        return _no("rej_shape")
    if nbytes <= 0 or len(sgl) > 1 or wr.delivered is not None:
        return _no("rej_shape")
    handle = _commit(qp, window, opcode, payload, nbytes, wr.rkey,
                     wr.remote_addr, wr.imm, wr.signaled, wr, True,
                     pred, prepared)
    if handle is not None:
        fp_stats.commits += 1
    return handle


def try_fast_post(qp, wr, window=None):
    """Attempt run-to-completion execution of ``wr`` on ``qp`` at post
    time, in place of ``qp.post_send(wr)`` (LITE's piece walker).

    Returns the completion event (it succeeds with the WcStatus at the
    op's completion instant; a READ's bytes land in ``wr.return_data``),
    or ``None`` when any entry condition fails — in which case *no
    state has been touched* and the caller must take the generator
    path.  ``window`` is the LITE per-QP window resource to hold for
    the op's lifetime.
    """
    return _try_wr(qp, wr, window, None, False)


def _post_wrless(engine, peer, priority, opcode, payload, nbytes, rkey, addr,
                 imm, signaled):
    """The WR-less entries' common half: commit on the (qp, window) pair
    the slow path's round-robin would pick.

    The RR bump and the doorbell CPU charge are replayed only on commit,
    so a declined attempt leaves LITE state untouched (the WR-shaped
    twin is ``OneSidedEngine._try_fast``).  Returns the commit's result:
    the completion handle of a signaled op, True for an unsignaled one.
    """
    kernel = engine.kernel
    pairs = kernel.qos.eligible_qps(peer, priority)
    qp, window = pairs[peer._rr % len(pairs)]
    handle = _commit(qp, window, opcode, payload, nbytes, rkey, addr, imm,
                     signaled, None, signaled)
    if handle is not None:
        peer._rr += 1
        kernel.node.cpu.charge("lite-post", engine.params.prices.doorbell)
    return handle


def try_fast_chain(engine, peer, addr, data, imm, priority):
    """Commit one leg of the RPC tri-post chain (raw unsignaled write).

    Every RPC op issues three fire-and-forget posts through
    ``raw_write_async``: the request append (WRITE_IMM into the server
    ring), the server's head-pointer update (WRITE), and the reply
    (WRITE_IMM into the caller's reply buffer).  This entry commits the
    leg with no WR object at all.  Returns True on commit; None leaves
    no state touched — the caller then builds the WR and takes the
    generator path, consuming the same wr_id the commit would have.
    """
    sim = engine.sim
    if not _armed(sim) or sim._nowq:
        return None
    nbytes = len(data)
    if nbytes == 0:
        return None
    fp_stats.chain_attempts += 1
    if _post_wrless(engine, peer, priority,
                    _WRITE if imm is None else _WRITE_IMM, data, nbytes,
                    peer.global_rkey, addr, imm, False) is None:
        return None
    fp_stats.chain_commits += 1
    return True


# ---------------------------------------------------------------------------
# Single-piece targets (LT_write/LT_read through a chunked LMR)
# ---------------------------------------------------------------------------
#
# An LMR op that touches one remote chunk — the only plan shape the
# measured workloads ever commit — needs no WR and no all_of barrier.
# The entry finds that chunk by walking ``mapping.chunks`` to the one
# holding ``offset`` (an LMR has a handful of chunks; the measured ones
# one or two) and takes the address from ``chunk.target()``, so it
# reads the live layout on every attempt and nothing it keeps can go
# stale when ``retarget()`` remaps the LMR.  *What is there* (MR,
# bounds, access bits, pages, backing) is the cost table's to
# remember: the entry resolves its target through ``CostTable.resolve``
# exactly as the WR, chain and native entries do.  Anything else
# (several chunks, a local chunk) declines and rides the per-piece walk
# in core/rdma.py, whose pieces each take the WR entry; see INTERNALS
# §13 for what that costs.  ``plan_hits`` counts the lookups that found
# one remote piece, ``plan_builds`` those handed to the walk, which
# builds the full ``mapping.plan()``.


def try_fast_post_vec(engine, mapping, offset, nbytes, payload, opcode,
                      priority):
    """Commit an LMR read/write whose plan is one remote piece.

    ``engine`` is the OneSidedEngine; ``payload`` is the caller's
    buffer for WRITE (None for READ).  Returns the completion handle —
    an event succeeding at the op's completion instant with
    WcStatus.SUCCESS (WRITE) or the bytes read (READ) — or None, in
    which case nothing was touched and the caller must walk the
    per-piece path.
    """
    sim = engine.sim
    if not _armed(sim) or sim._nowq:
        return None
    if mapping.replica_chunks or nbytes <= 0:
        return None
    fp_stats.vec_attempts += 1
    kernel = engine.kernel

    base = 0
    for chunk in mapping.chunks:
        end = base + chunk.size
        if offset < end:
            break
        base = end
    else:
        chunk = None
    if (chunk is None or offset < 0 or offset + nbytes > end
            or chunk.node_id == kernel.lite_id):
        fp_stats.plan_builds += 1
        return _no("rej_shape")
    fp_stats.plan_hits += 1
    peer = kernel.peers.get(chunk.node_id)
    if peer is None or not peer.alive:
        return _no("rej_target")
    # The peer's global rkey is read per attempt: a rejoin re-registers
    # the global MR without remapping anything.
    addr, rkey = chunk.target(offset - base, peer.global_rkey)
    handle = _post_wrless(engine, peer, priority, opcode, payload, nbytes,
                          rkey, addr, None, True)
    if handle is not None:
        fp_stats.vec_commits += 1
    return handle
