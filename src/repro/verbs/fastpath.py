"""Run-to-completion fast path for uncontended one- and two-sided ops.

The generator datapath walks ~10 frames per op (`api` → `kernel` → `qp`
→ `rnic` → `fabric`), each suspension costing a scheduler round trip —
even when nothing can actually block.  This module detects that
uncontended case at post time (for a native ``qp.post_send``: at the
WR's own start hop) and executes the whole op as arithmetic: it folds
the op's ``verbs/timeline.py`` stage list into instants, applies the
synchronous state transitions at once, and schedules the transitions
that land later (holder releases and takes, the responder's memory
effect, RC order, CQEs) as *batch dispatches* on the engine's fast-path
queue — one callable per boundary instead of one event per transition.

There is exactly one commit (:func:`_commit`) for WRITE / WRITE_IMM /
READ / SEND / the 8-byte atomics: one entry pass, one fold of the
timeline, one state replay, one dispatch per mark of the timeline's
holders (:class:`_Shape`), plus the opcode's own hooks.  What the
responder does is the device's own code, called per attempt: its
target check, its QP's receive queue and :func:`atomic_word`.  Every
attempt comes with its ``SendWR`` through :func:`try_fast_post`, from
LITE's post time (``core/rdma.py``, ``core/kernel.py``) or from the
start hop of a WR a native ``qp.post_send`` already prepared
(``QueuePair._execute``).  A committed WRITE_IMM or SEND pushes its
real receive CQE at the responder's write-back instant, so the
receiving poller wakes, charges and dispatches exactly as it does on
the generator path.

Soundness rests on two pillars:

1. **Real holds.**  Every resource the op occupies (SQ slot, QP window,
   both RNIC pipelines, the four port channels) is acquired with a real
   ``in_use`` increment and released by a real ``release()`` at the
   instant the generator path would release it, so an op on the
   generator path queues and wakes as it would against a slow holder.
   A holder the op takes mid-flight and finds busy hands the rest of
   the op to the generator path (:meth:`CostTable._hand_over`).

2. **The horizon check.**  An op commits only when the now-queue holds
   nothing that would run code (`Simulator.fp_nowq_inert`) and no
   ordinary event is scheduled before the op's completion time
   (`Simulator.fp_horizon`), so nothing already scheduled can observe
   the eagerly-applied counters.  An op its poster starts later can
   observe the widened holds: the commit takes the forward wire and
   remote pipeline at t0, so such an op can queue behind it where the
   generator path would not yet hold them (INTERNALS §9).

Cache lookups and byte counters are replayed at commit rather than at
their instants (end-state equivalent; INTERNALS §13).  What the commit
still cannot model (a memory access that faults, a receive drained by a
foreign consumer) is counted in ``sim.fastpath.mismodels``.
``Simulator._seq`` numbers a commit's dispatches ``_seq + 1 …`` and
nothing else, so a fast run's final ``_seq`` is smaller than a slow
run's and the two are never compared.
"""

from __future__ import annotations

from dataclasses import fields
from functools import lru_cache, partial
from heapq import heapify, heappush
from itertools import accumulate

from ..sim.engine import FastPathStats
from .timeline import FORWARD, LOCAL, REMOTE, RETURN, floor, timeline, wire_legs
from .wr import (_NEED_REMOTE_ATOMIC, _NEED_REMOTE_READ, _NEED_REMOTE_WRITE,
                 Opcode, WcStatus, WorkCompletion, atomic_word)

__all__ = ["try_fast_post", "prime_qp", "fp_stats", "FastPathStats"]

# Enum members as module constants: ``Opcode.X`` is a metaclass lookup
# (~0.1 µs), paid several times per attempt otherwise.
_WRITE, _WRITE_IMM, _READ, _SEND = (Opcode.WRITE, Opcode.WRITE_IMM,
                                    Opcode.READ, Opcode.SEND)
_FETCH_ADD, _CMP_SWAP = Opcode.FETCH_ADD, Opcode.CMP_SWAP
_RECV, _RECV_IMM = Opcode.RECV, Opcode.RECV_IMM
_SUCCESS = WcStatus.SUCCESS

# The hooks an opcode runs at a dispatch, by slot (see _Shape); the
# last slot carries the commit's first seq, durations and shape.
_BETWEEN, _RESPOND, _TURN, _SCATTER, _END, _FLIGHT = range(6)
# Every timeline holds these before its turn-around: the commit takes
# them at t0.
_TAKEN_AT_COMMIT = frozenset((LOCAL, FORWARD, REMOTE))
_WIRES = (FORWARD, RETURN)      # port channels, arbitrated per flow


class _ProcessTotals:
    """Deprecated process-wide sum of every simulation's
    :class:`FastPathStats`, kept only because ``perfbench/harness.py``
    and ``perfbench/layers.py`` reset and read it (ROADMAP item 1(g)).
    Everything else reads its own cluster's ``snapshot(cluster).fastpath``.

    ``vec_*``, ``chain_*`` and ``plan_*`` belonged to the removed WR-less
    entries and always read 0; ``perfbench/layers.py`` reads them by name.
    """

    __slots__ = tuple(f.name for f in fields(FastPathStats)) + (
        "vec_attempts", "vec_commits", "plan_builds", "plan_hits",
        "chain_attempts", "chain_commits")

    def __init__(self):
        self.reset()

    def reset(self) -> None:
        for name in self.__slots__:
            setattr(self, name, 0)


fp_stats = _ProcessTotals()


def _releaser(rx, tx):
    # A wire leg frees its ingress channel, then its egress, as
    # ``Fabric._transfer_impl`` does.
    def release():
        rx.release()
        tx.release()
    return release


class _Runs(dict):
    """A cost table's dispatch runners per timeline shape, built once."""

    __slots__ = ("table",)

    def __init__(self, table):
        super().__init__()
        self.table = table

    def __missing__(self, shape):
        # Per mark but the end: (boundary, dispatch, needs the hooks).
        runs = self[shape] = tuple(
            (spec[0], self.table._runner(spec), bool(spec[2] or spec[3]))
            for spec in shape.specs[:-1])
        return runs


def _no(stats: FastPathStats, reason: str) -> None:
    """Count a declined attempt under its first failing condition."""
    setattr(stats, reason, getattr(stats, reason) + 1)
    setattr(fp_stats, reason, getattr(fp_stats, reason) + 1)


class CostTable:
    """Per-QP references of the commit: resources, ports, the price
    list, and the dispatch runners built from them.

    Built lazily at first fast post (or eagerly via :func:`prime_qp`)
    and kept while the QP's peer is unchanged.  Everything it refers to
    is fixed for the node's lifetime (``SimParams`` is frozen); what
    changes — the target MR, the responder's receive queue — the commit
    reads from the responder device on every attempt, so no other module
    invalidates a table or keeps state for it.  Its one price list is
    what the commit hands to ``timeline()``.
    """

    __slots__ = (
        "qp", "remote", "floor", "fabric", "rdev",
        "lrnic", "rrnic", "lpipe", "rpipe", "src_port", "dst_port",
        "src_tx", "src_rx", "dst_tx", "dst_rx",
        "src_node", "dst_node", "dst_qpn", "prices",
        "_held", "_release", "_runs",
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

        # One price list for the whole op: every node of a cluster and
        # its fabric share one ``SimParams``.
        params = device.params
        if rdev.params != params or fabric.params != params:
            raise KeyError(dst_node)
        self.prices = params.prices
        # What each timeline holder is and how it is released; the
        # dispatch runners per timeline shape are built from them once.
        src_tx, src_rx = self.src_tx, self.src_rx
        dst_tx, dst_rx = self.dst_tx, self.dst_rx
        self._held = {LOCAL: (self.lpipe,), REMOTE: (self.rpipe,),
                      FORWARD: (src_tx, dst_rx), RETURN: (dst_tx, src_rx)}
        self._release = {LOCAL: self.lpipe.release,
                         REMOTE: self.rpipe.release,
                         FORWARD: _releaser(dst_rx, src_tx),
                         RETURN: _releaser(src_rx, dst_tx)}
        self._runs = _Runs(self)
        # Lower bound on any op's completion delay, for the early
        # horizon reject.  Priced once: the price list is fixed.
        self.floor = floor(self.prices)
        qp.sim.fastpath.table_builds += 1
        fp_stats.table_builds += 1

    def _runner(self, spec):
        """One mark's dispatch on this table: release the holder whose
        stage ends, take the one whose stage begins, run the hooks its
        slots name.  A mark with neither a take nor a hook is its
        release alone; one with either is ``run(hooks)``."""
        index, released, taken, slots = spec
        release = self._release[released] if released else None
        if not taken:
            if not slots:
                return release

            def run(hooks):
                if release is not None:
                    release()
                for slot in slots:
                    hooks[slot]()
            return run
        held = self._held[taken]

        def run(hooks):
            if release is not None:
                release()
            for resource in held:
                if resource.in_use >= resource.capacity:
                    self._hand_over(index, hooks)
                    break
            else:
                for resource in held:
                    resource.in_use += 1
            for slot in slots:
                hooks[slot]()
        return run

    def _hand_over(self, start, hooks):
        """A holder the op takes mid-flight at stage ``start`` is busy:
        an op that started after the commit took it first, and the
        generator path would queue here.  The op's remaining dispatches
        give way to :meth:`_walk` from that stage on."""
        first, durations, shape = hooks[_FLIGHT]
        sim = self.qp.sim
        fpq = sim._fpq
        fpq[:] = [entry for entry in fpq
                  if not first < entry[1] <= first + shape.count]
        heapify(fpq)
        sim.process(self._walk(shape, durations, start, hooks),
                    name=f"qp{self.qp.qpn}-send")

    def _walk(self, shape, durations, start, hooks):
        """The rest of a committed op from stage ``start`` on, walked as
        the generator path walks a timeline (generator): queue for the
        stage's holder, wait its duration, release, then run the hooks
        of the boundary it ends at."""
        sim = self.qp.sim
        flow = self.qp.qpn      # a port channel arbitrates per flow
        holders = shape.holders
        for index in range(start, len(holders)):
            holder = holders[index]
            for resource in self._held.get(holder, ()):
                yield (resource.request(flow) if holder in _WIRES
                       else resource.request())
            yield sim.timeout(durations[index])
            if holder:
                self._release[holder]()
            for slot in shape.slots[index + 1]:
                hooks[slot]()

    def valid(self) -> bool:
        """True while the QP's peer is unchanged."""
        return self.remote == self.qp.remote


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


class _Shape:
    """Where one timeline's commit dispatches, read off its holders."""

    __slots__ = ("holders", "slots", "specs", "count", "local_passes",
                 "remote_passes")

    def __init__(self, holders: tuple):
        # Boundary i is the instant stage i begins; len(holders) is the
        # op's end.  A boundary gets a dispatch when a holder is released
        # (its stage ends) or taken (its stage begins — the return wire,
        # and a pipeline taken again after a release: the commit itself
        # takes the others at t0).  The opcode's hooks ride the dispatch
        # of the holder event they follow; the end is its own dispatch.
        n = len(holders)
        first = {}
        for index, holder in enumerate(holders):
            first.setdefault(holder, index)
        turn = first.get(RETURN, n)
        slots_at, specs = [()], []
        for index in range(1, n + 1):
            prev = holders[index - 1]
            nxt = holders[index] if index < n else None
            taken = nxt
            if nxt in _TAKEN_AT_COMMIT and first[nxt] == index:
                taken = None    # held since the commit's own take
            slots = ()
            if prev == REMOTE:
                slots += (_BETWEEN if nxt == REMOTE else _RESPOND,)
            if nxt == RETURN and prev != RETURN:
                slots += (_TURN,)
            if prev == LOCAL and index > turn:
                slots += (_SCATTER,)
            if prev or taken or slots:
                specs.append((index, prev, taken, slots))
            slots_at.append(slots)
        specs.append((n, None, None, (_END,)))
        slots_at[n] += (_END,)
        self.holders = holders
        self.slots = tuple(slots_at)
        self.specs = tuple(specs)
        self.count = len(specs)
        self.local_passes = holders.count(LOCAL)
        self.remote_passes = holders.count(REMOTE)


_shape = lru_cache(maxsize=None)(_Shape)


@lru_cache(maxsize=1024)
def _fold(op, nbytes, prices, cost_l, cost_r, cost_q, signaled):
    """One commit's timeline: its stage durations in add order, its
    :class:`_Shape` and its wire bytes each way.  Keyed by the
    opcode's value: an ``Enum`` member hashes in Python."""
    opcode = Opcode(op)
    stages = timeline(opcode, nbytes, prices, cost_l, cost_r, cost_q,
                      signaled)
    return ((tuple(stage.duration for stage in stages),
             _shape(tuple(stage.holder for stage in stages)))
            + wire_legs(opcode, nbytes))


def _commit(qp, window, wr, opcode, payload, nbytes, pred, prepared):
    """Run one WRITE / WRITE_IMM / READ / SEND / atomic to completion, or
    touch nothing.

    The single commit behind both entries, sized by
    :func:`try_fast_post`.  ``prepared`` marks the native entry:
    ``QueuePair._prepare`` ran at post time (``pred`` and
    ``wr._order_done`` are its RC order link; nothing is bumped twice)
    and the attempt comes from the WR's own start hop — the only place a
    commit may touch state *earlier* than the generator path would (a
    miss installing, a local SGE gathered, at t0), and then only while
    no committed op is in flight.  Returns the completion handle — it
    succeeds at the op's completion instant with ``WcStatus.SUCCESS``;
    True for an unsignaled WR at post time, which nothing awaits — or
    None when any entry condition fails, in which case *no state has
    been touched* and the caller must take the generator path.

    The entry pass runs cheapest-first, then in the measured order of
    rejection (INTERNALS §13): on contended RPC traffic a busy pipeline,
    a pending predecessor or a busy port channel rejects; on application
    traffic the horizon does, so it is read once, right after the
    structural checks, and tested against a lower bound on the
    completion time before any resolution or timeline work.
    """
    sim = qp.sim
    stats = sim.fastpath
    if not qp._is_rc or qp.state != "RTS" or qp.remote is None:
        return _no(stats, "rej_qp_state")
    if not prepared:
        pred = qp._last_remote_done
    if pred is not None and pred.callbacks is not None:
        return _no(stats, "rej_pred")
    sq = qp._sq_slots
    if sq.in_use >= sq.capacity:
        return _no(stats, "rej_sq")
    if window is not None and window.in_use >= window.capacity:
        return _no(stats, "rej_sq")
    if sim._nowq and not sim.fp_nowq_inert():
        return _no(stats, "rej_nowq")

    table = _table_for(qp)
    if table is None:
        return _no(stats, "rej_table")
    lpipe = table.lpipe
    rpipe = table.rpipe
    if lpipe.in_use >= lpipe.capacity or rpipe.in_use >= rpipe.capacity:
        return _no(stats, "rej_pipeline")
    fabric = table.fabric
    src_port = table.src_port
    dst_port = table.dst_port
    # No fault hook (a commit assumes lossless delivery), both links
    # up, all four port channels idle.
    if not fabric.fp_path_clear(src_port, dst_port):
        return _no(stats, "rej_port")
    if table.src_node == table.dst_node:
        return _no(stats, "rej_port")  # loopback short-circuits the wire
    # A crashed peer: a crash downs its link (caught above), but a link
    # plan may bring the link back up while the node is still failed.
    rdev = table.rdev
    if rdev.node.crashed:
        return _no(stats, "rej_port")
    dst_qpn = table.dst_qpn

    # Nothing ordinary may be scheduled at or before completion: any
    # such event could observe (or perturb) the op mid-flight.  The
    # horizon is read once; this first test can only reject what the
    # exact one below would (``floor`` is below every completion delay).
    t0 = sim.now
    horizon = sim.fp_horizon()
    if horizon <= t0 + table.floor:
        return _no(stats, "rej_floor")

    read_op = opcode is _READ
    send_op = opcode is _SEND
    atomic = opcode is _FETCH_ADD or opcode is _CMP_SWAP
    rq = recv = None
    if send_op or opcode is _WRITE_IMM:
        # The landing receive: the next posted one no committed op has
        # claimed, from the responder QP's receive queue (its own or its
        # SRQ).  (A SEND under a bounded RNR policy is the generator's to
        # play out.)
        rqp = rdev.qps.get(dst_qpn)
        if rqp is None:
            return _no(stats, "rej_target")
        rq = rqp.rq
        items = rq._store.items
        if len(items) <= rq._fp_claims or (send_op and rqp.rnr_retry < 7):
            return _no(stats, "rej_recv")
    if send_op:
        # A SEND's responder resolves the receive buffer's MR the way a
        # WRITE's resolves the rkey (priced and replayed alike); a short
        # buffer is the generator's LOC_LEN_ERR.
        recv = items[rq._fp_claims]
        rmr = recv.mr
        if rmr is None or recv.length < nbytes:
            return _no(stats, "rej_shape")
        rkey = rmr.lkey
        pages = rmr.page_ids(recv.offset, nbytes)
    else:
        # The responder's own target check (``Device.inbound``): the
        # rkey's live MR, bounds and access, then the backing memory.
        rkey = wr.rkey
        mr = rdev._resolve_remote(
            rkey, wr.remote_addr, nbytes,
            _NEED_REMOTE_ATOMIC if atomic
            else _NEED_REMOTE_READ if read_op else _NEED_REMOTE_WRITE)[0]
        if mr is None:
            return _no(stats, "rej_target")
        offset = wr.remote_addr - mr.base_addr
        try:
            backing, reg_off = mr._backing(offset, nbytes)
        except ValueError:
            return _no(stats, "rej_target")
        # Physical MRs (the LITE global MR) have no PTEs to look up.
        pages = () if mr.physical else mr.page_ids(offset, nbytes)

    # SRAM lookups (QP, key, PTEs on both RNICs).  Probes are
    # non-mutating; every lookup is replayed with the real access() at
    # commit below, so installs, evictions, recency and stats end as the
    # generator path leaves them.
    lrnic = table.lrnic
    rrnic = table.rrnic
    cost_q = 0.0
    sge = wr.sgl[0] if wr.sgl else None
    if prepared and not sim._fpq:
        # Start hop, nothing committed in flight: misses are priced.
        lkey = lpages = None
        if sge is not None:
            lmr = sge.mr
            if lmr.region is None or lmr.region.freed:
                return _no(stats, "rej_shape")
            lkey = lmr.lkey
            lpages = lmr.page_ids(sge.offset, sge.length)
        cost_l = _lookup_cost(lrnic, qp.qpn, lkey, lpages)
        cost_r = _lookup_cost(rrnic, None if send_op else dst_qpn, rkey, pages)
        if cost_l is None or cost_r is None:
            return _no(stats, "rej_miss")
        if send_op and not rrnic.qp_cache.contains(dst_qpn):
            cost_q = rrnic.params.qp_miss_penalty_us
    elif (sge is not None
          or not lrnic.qp_cache.contains(qp.qpn)
          or not rrnic.qp_cache.contains(dst_qpn)
          or not rrnic.key_cache.contains(rkey)
          or (pages and not rrnic.pte_cache.contains_all(pages))):
        # Post time (the posting handler may still post a same-instant
        # sibling) or committed ops in flight: all-hit, inline only.
        return _no(stats, "rej_miss")
    else:
        cost_l = cost_r = 0.0

    # ---- timeline: verbs/timeline.py's stages, folded in add order ----
    signaled = wr.signaled
    durations, shape, out_bytes, back_bytes = _fold(
        opcode._value_, nbytes, table.prices, cost_l, cost_r, cost_q,
        signaled)
    at = [*accumulate(durations, initial=t0)]   # at[i]: stage i begins
    t_end = at[-1]
    if horizon <= t_end:
        return _no(stats, "rej_horizon")

    # ---- commit ------------------------------------------------------
    if prepared:
        done = wr._order_done
    else:
        qp.posted_sends += 1
        done = sim.event()
        qp._last_remote_done = done
        wr._order_done = done
    resp_op = read_op or atomic
    if payload is None and not resp_op:
        payload = qp._gather(wr)

    # Lookup replay, in slow-path order (installs, recency, stats).
    lrnic.qp_cache.access(qp.qpn)
    if sge is not None:
        lrnic.key_cache.access(lkey)
        lrnic.pte_cache.access_many(lpages)
    rrnic.qp_cache.access(dst_qpn)
    rrnic.key_cache.access(rkey)
    if pages:
        rrnic.pte_cache.access_many(pages)
    if read_op:
        lrnic.qp_cache.access(qp.qpn)   # response scatter pass

    # Counter replay (end-state equivalent; see module docstring): one
    # WQE per pipeline pass of the timeline.
    lrnic.wqe_count += shape.local_passes
    lrnic.bytes_dma += nbytes
    rrnic.wqe_count += shape.remote_passes
    rrnic.bytes_dma += nbytes
    fabric.total_bytes += out_bytes + back_bytes
    fabric.transfer_count += 2
    src_port.tx_bytes += out_bytes
    dst_port.rx_bytes += out_bytes
    dst_port.tx_bytes += back_bytes
    src_port.rx_bytes += back_bytes

    # Real holds for what every timeline takes before its turn-around
    # (released, and the return wire taken, by the dispatches below).
    sq.in_use += 1
    if window is not None:
        window.in_use += 1
    lpipe.in_use += 1
    rpipe.in_use += 1
    table.src_tx.in_use += 1
    table.dst_rx.in_use += 1
    if rq is not None:
        rq._fp_claims += 1

    # Nothing awaits an unsignaled LITE post (a raw write, a control
    # SEND); the native entry's WR process always waits on its handle.
    handle = sim.event() if signaled or prepared else None
    box = []

    def at_end():
        if signaled:
            send_cq = qp.send_cq
            if send_cq is not None:
                send_cq.push(WorkCompletion(
                    wr_id=wr.wr_id, status=_SUCCESS, opcode=opcode,
                    byte_len=nbytes, imm=wr.imm, qp_num=qp.qpn,
                ))
        sq.release()
        if window is not None:
            window.release()
        if handle is not None:
            handle.succeed(_SUCCESS)

    # What a hand-over needs to find this op's dispatches and walk the
    # rest of its timeline (CostTable._hand_over).
    seq = sim._seq
    flight = (seq, durations, shape)

    # The opcode's own actions, by hook slot: what the responder does
    # to memory, where a receive is taken and completed, the scatter.
    # The turn-around publishes RC order.
    if resp_op:

        def respond():
            try:
                old = backing.read(reg_off, nbytes)
                if atomic:
                    # Read-modify-write inside one dispatch: atomic in
                    # the event loop, as in ``Device.inbound``.
                    backing.write(reg_off, atomic_word(
                        opcode, old, wr.compare_add, wr.swap))
                box.append(old)
            except ValueError:
                box.append(b"")
                stats.mismodels += 1
                fp_stats.mismodels += 1

        def scatter():
            if sge is None:
                wr.return_data = box[0]     # ``qp._scatter``, a call cheaper
            else:
                qp._scatter(wr, box[0])

        hooks = (None, respond, done.succeed, scatter, at_end, flight)

    else:
        take_recv = turn = None
        if rq is not None:      # WRITE_IMM, SEND: a receive completes
            src_node = table.src_node

            def take_recv():
                # Pop the receive at the generator's instant; a SEND
                # priced its buffer at commit, so it must be that one.
                if items:
                    box.append(items.popleft())
                if not box or (send_op and box[0] is not recv):
                    stats.mismodels += 1
                    fp_stats.mismodels += 1
                rq._fp_claims -= 1

            def turn():
                if box:
                    recv_cq = rqp.recv_cq
                    if recv_cq is not None:
                        recv_cq.push(WorkCompletion(
                            wr_id=box[0].wr_id, status=_SUCCESS,
                            opcode=_RECV if send_op else _RECV_IMM,
                            byte_len=nbytes, imm=wr.imm, qp_num=dst_qpn,
                            src_node=src_node, src_qpn=qp.qpn,
                        ))
                done.succeed()

        if send_op:

            def respond():
                if box:
                    box[0].mr.write(box[0].offset, payload)
        else:

            def respond():
                try:
                    backing.write(reg_off, payload)
                except ValueError:
                    stats.mismodels += 1
                    fp_stats.mismodels += 1
                if take_recv is not None:
                    take_recv()     # a WRITE_IMM's, once its payload landed

        hooks = (take_recv, respond, turn or done.succeed, None, at_end,
                 flight)

    # One dispatch per mark, at its boundary's instant, numbered
    # ``_seq + 1 …`` in instant order exactly as fp_schedule calls in
    # that order would; the end is the op's own ``at_end``.
    fpq = sim._fpq
    for index, run, bound in table._runs[shape]:
        seq += 1
        heappush(fpq, (at[index], seq, partial(run, hooks) if bound else run))
    seq += 1
    heappush(fpq, (t_end, seq, at_end))
    sim._seq = seq
    return True if handle is None else handle


def try_fast_post(qp, wr, window=None, pred=None, prepared=False):
    """Attempt run-to-completion execution of ``wr`` on ``qp``, in place
    of its generator-path post: the one entry, called from two places.

    LITE calls it at post time, before ``qp.post_send``; ``window`` is
    the LITE per-QP window to hold for the op's lifetime.
    ``QueuePair._execute`` calls it with ``prepared=True`` at the start
    hop of a WR ``qp.post_send`` already prepared (``pred`` is the RC
    predecessor ``_prepare`` returned): the WR's own process on its
    first resume, after the posting handler has parked or ended, so with
    a now-queue that runs nothing no sibling can be posted behind a
    committed op at this instant.

    Returns the completion event (it succeeds with the WcStatus at the
    op's completion instant; READ / atomic bytes land in the SGE, else
    in ``wr.return_data``), True for an unsignaled LITE post, or None
    when any entry condition fails — *no state touched*; the caller
    takes the generator path.
    """
    sim = qp.sim
    # Kill switch, and no tracer attached (the trace goldens pin the
    # generator path's span tree).
    if not sim.fastpath_enabled or sim.tracer is not None:
        return None
    stats = sim.fastpath
    stats.attempts += 1
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
        return _no(stats, "rej_shape")
    elif opcode is _READ:
        nbytes = sgl[0].length if sgl else wr.read_length
    elif opcode is _FETCH_ADD or opcode is _CMP_SWAP:
        nbytes = 8
    else:
        return _no(stats, "rej_shape")
    if nbytes <= 0 or (sgl and len(sgl) > 1) or wr.delivered is not None:
        return _no(stats, "rej_shape")
    handle = _commit(qp, window, wr, opcode, payload, nbytes, pred, prepared)
    if handle is not None:
        stats.commits += 1
        fp_stats.commits += 1
    return handle
