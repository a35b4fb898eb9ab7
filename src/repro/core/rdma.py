"""LITE's one-sided data plane (paper §4).

The kernel performs address translation (lh + offset → per-chunk
physical addresses) and permission checking locally, then issues native
RDMA through the shared QPs using the peer's **global rkey** and raw
physical addresses — so the remote RNIC needs no per-MR keys and no
PTEs, and the remote CPU/kernel is never involved.

Multi-chunk LMRs fan out into one RDMA op per touched chunk, issued
concurrently (the <2 % overhead claim of §4.1).  Chunks local to the
caller short-circuit into memcpy.
"""

from __future__ import annotations

import struct
from typing import List

from ..verbs import Opcode, SendWR, WcStatus
from ..verbs.fastpath import try_fast_post
from .errors import EIO, ENODEV, ETIMEDOUT, LiteError
from .lmr import MappedLmr

__all__ = ["OneSidedEngine", "RdmaOpError"]


class RdmaOpError(LiteError):
    """A one-sided operation completed with an error status."""

    def __init__(self, message: str, errno: int = EIO):
        super().__init__(message, errno=errno)


# Transport statuses worth a LITE-level retry: the operation never
# executed at the peer (retry/RNR blowout) or was flushed before the
# wire.  Non-idempotent ops (atomics) are excluded by the caller.
_RETRYABLE = (
    WcStatus.RETRY_EXC_ERR,
    WcStatus.RNR_RETRY_EXC_ERR,
    WcStatus.WR_FLUSH_ERR,
)
_ATOMIC_OPS = (Opcode.FETCH_ADD, Opcode.CMP_SWAP)


class OneSidedEngine:
    """Kernel-side one-sided datapath over the shared QPs (§4)."""

    def __init__(self, kernel):
        self.kernel = kernel
        self.sim = kernel.sim
        self.params = kernel.params
        self.reads = 0
        self.writes = 0
        self.atomics = 0
        self.retried_ops = 0
        self.async_write_failures = 0

    # -- helpers -----------------------------------------------------------
    def _try_fast(self, peer, wr: SendWR, priority: int):
        """Attempt run-to-completion execution of one WR (see fastpath.py).

        Peeks the same (qp, window) pair :meth:`_post` would round-robin
        onto; the RR bump and the doorbell CPU charge are replayed only
        on commit, so a declined attempt leaves LITE state untouched and
        the generator fallback proceeds exactly as if never tried.
        Returns the completion handle (True for an unsignaled WR), or
        None.
        """
        pairs = self.kernel.qos.eligible_qps(peer, priority)
        qp, window = pairs[peer._rr % len(pairs)]
        handle = try_fast_post(qp, wr, window)
        if handle is not None:
            peer._rr += 1
            self.kernel.node.cpu.charge("lite-post",
                                        self.params.prices.doorbell)
        return handle

    def _post(self, peer_id: int, wr: SendWR, priority: int):
        """Issue one WR on a shared QP, respecting per-QP windows.

        Generator; returns the completion status.  Transport-level
        failures (retry blowout, flush) are retried at the LITE level
        with exponential backoff — resetting the errored shared QP in
        between — except for atomics, which are not idempotent.  A dead
        peer fails fast with ENODEV; an exhausted retry budget raises
        ``LiteError(errno=ETIMEDOUT)`` and, when keep-alive runs, marks
        the peer dead.
        """
        kernel = self.kernel
        params = self.params
        max_retries = 0 if wr.opcode in _ATOMIC_OPS else params.lite_retry_cnt
        backoff = params.lite_retry_backoff_us
        attempts = 0
        tracer = self.sim.tracer
        span = None
        if tracer is not None:
            # Covers QP-window wait + every transport attempt + backoffs.
            span = tracer.begin("kernel.post", node=kernel.lite_id,
                                nbytes=wr.length, peer=peer_id,
                                opcode=wr.opcode.value)
        while True:
            peer = kernel.peer(peer_id)
            qp, window = kernel.qos.pick_qp(peer, priority)
            yield window.request()
            try:
                kernel.node.cpu.charge("lite-post", params.prices.doorbell)
                status = yield qp.post_send_generator(wr)
            finally:
                window.release()
            if status not in _RETRYABLE:
                if span is not None:
                    tracer.end(span, outcome=status.value)
                return status
            attempts += 1
            if attempts > max_retries:
                if kernel.keepalive_running:
                    peer.alive = False
                if span is not None:
                    tracer.end(span, outcome="timeout")
                raise LiteError(
                    f"one-sided {wr.opcode.value} to LITE {peer_id} failed "
                    f"after {attempts} attempt(s): {status.value}",
                    errno=ETIMEDOUT,
                )
            self.retried_ops += 1
            if qp.state == "ERROR":
                qp.reset()
            yield self.sim.timeout(backoff)
            backoff = min(backoff * 2, params.lite_retry_backoff_cap_us)

    def _post_batch(self, peer_id: int, wrs: List[SendWR], priority: int):
        """Issue many WRs to one peer behind one doorbell + window slot.

        Generator; returns the list of completion statuses in posting
        order.  The whole chain is posted with a single
        ``post_send_batch`` call: one ``lite-post`` CPU charge and (for
        ``doorbell_batch > 1``) one MMIO doorbell per chunk of WRs,
        modeling §5.2's batched WQE posting.  The batch occupies a
        single QoS-window slot — acquiring one slot per WR could
        deadlock two concurrent batches sharing a window.  Individual
        transport failures fall back to the one-at-a-time :meth:`_post`
        retry path (atomics excluded, as they are not idempotent).
        """
        kernel = self.kernel
        params = self.params
        if params.doorbell_batch <= 1 or len(wrs) == 1:
            # Unbatched: identical to the seed's per-WR posting, issued
            # concurrently.
            procs = [
                self.sim.process(self._post(peer_id, wr, priority))
                for wr in wrs
            ]
            results = yield self.sim.all_of(procs)
            return [results[index] for index in range(len(procs))]
        peer = kernel.peer(peer_id)
        # Stripe doorbell chunks across the class's eligible shared QPs:
        # batching must not collapse the K-way QP parallelism onto one
        # RC ordering chain.  The floor of 2 keeps small chains (e.g.
        # the RPC reply+head piggyback) on one QP — splitting a pair
        # across QPs would pay two doorbells and lose their ordering.
        fanout = max(len(kernel.qos.eligible_qps(peer, priority)), 1)
        chunk_len = min(
            params.doorbell_batch, max(2, -(-len(wrs) // fanout))
        )
        out: List[WcStatus] = [None] * len(wrs)

        def chunk_runner(chunk, base_index):
            qp, window = kernel.qos.pick_qp(peer, priority)
            yield window.request()
            try:
                kernel.node.cpu.charge("lite-post", params.prices.doorbell)
                results = yield self.sim.all_of(qp.post_send_batch(chunk))
                statuses = [results[index] for index in range(len(chunk))]
            finally:
                window.release()
            for offset, (wr, status) in enumerate(zip(chunk, statuses)):
                if status in _RETRYABLE and wr.opcode not in _ATOMIC_OPS:
                    if qp.state == "ERROR":
                        qp.reset()
                    self.retried_ops += 1
                    status = yield from self._post(peer_id, wr, priority)
                out[base_index + offset] = status

        runners = [
            self.sim.process(chunk_runner(wrs[start : start + chunk_len], start))
            for start in range(0, len(wrs), chunk_len)
        ]
        yield self.sim.all_of(runners)
        return out

    def _check(self, statuses: List[WcStatus], what: str) -> None:
        for status in statuses:
            if status is not WcStatus.SUCCESS:
                raise RdmaOpError(f"LITE {what} failed: {status.value}")

    @staticmethod
    def _check_not_failed(mapping: MappedLmr) -> None:
        """Fail fast once the last replica of an LMR is gone (§14)."""
        if mapping.failed:
            raise RdmaOpError(
                f"LMR {mapping.lmr_id} lost its last replica", errno=ENODEV
            )

    def _pieces(self, mapping: MappedLmr, offset: int, nbytes: int, data, emit):
        """The one walk of an access's pieces, in plan order (generator).

        ``data`` is the caller's buffer for a write, None for a read.  A
        piece local to this node is charged and memcpy'd in place; a
        remote piece becomes one ``SendWR`` (a write's payload a
        zero-copy memoryview slice of ``data`` — the single copy happens
        at the destination region write) handed to ``emit(peer, wr)``,
        which issues it or gathers it for a batch.  Returns the read's
        parts in order — bytes for a local piece, the ``SendWR`` whose
        ``return_data`` the completion fills for a remote one.
        """
        kernel = self.kernel
        view = None if data is None else memoryview(data)
        parts = []
        for chunk, chunk_off, piece_len, buf_off in mapping.plan(offset, nbytes):
            if chunk.node_id == kernel.lite_id:
                yield from kernel.node.cpu.execute(
                    piece_len / self.params.memcpy_bytes_per_us, tag="lite-local"
                )
                if view is None:
                    parts.append(
                        kernel._local_chunk_read(chunk, chunk_off, piece_len)
                    )
                else:
                    kernel._local_chunk_write(
                        chunk, chunk_off, view[buf_off : buf_off + piece_len]
                    )
                continue
            peer = kernel.peer(chunk.node_id)
            payload = None if view is None else view[buf_off : buf_off + piece_len]
            wr = self._piece_wr(peer, chunk, chunk_off, piece_len, payload)
            if view is None:
                parts.append(wr)
            emit(peer, wr)
        return parts

    @staticmethod
    def _piece_wr(peer, chunk, chunk_off: int, nbytes: int, payload) -> SendWR:
        """The WR of one remote piece: a READ of ``nbytes`` when
        ``payload`` is None, else a WRITE of ``payload``."""
        remote_addr, rkey = chunk.target(chunk_off, peer.global_rkey)
        if payload is None:
            return SendWR(Opcode.READ, remote_addr=remote_addr, rkey=rkey,
                          read_length=nbytes)
        return SendWR(Opcode.WRITE, remote_addr=remote_addr, rkey=rkey,
                      inline_data=payload)

    @staticmethod
    def _join(parts) -> bytes:
        """A completed read's bytes from :meth:`_pieces`' parts."""
        parts = [
            part.return_data or b"" if isinstance(part, SendWR) else part
            for part in parts
        ]
        return parts[0] if len(parts) == 1 else b"".join(parts)

    def _issue_pieces(self, mapping: MappedLmr, offset: int, nbytes: int, data,
                      priority: int):
        """:meth:`_pieces` with every remote piece issued as it is built
        (generator): the fast path's handle, else the generator path's
        process.  Returns ``(what to await, the read's parts)``."""
        procs = []

        def issue(peer, wr):
            handle = self._try_fast(peer, wr, priority)
            if handle is None:
                handle = self.sim.process(self._post(peer.lite_id, wr, priority))
            procs.append(handle)

        parts = yield from self._pieces(mapping, offset, nbytes, data, issue)
        return procs, parts

    def _one_piece(self, mapping: MappedLmr, offset: int, nbytes: int, data,
                   priority: int):
        """Issue an access that is one remote piece of an unreplicated
        LMR as its own WR (generator); returns the completed WR, or None
        at once for any other access.  A committed WR is awaited with no
        barrier; a declined one is posted as :meth:`_issue_pieces` posts
        a lone piece (one :meth:`_post` behind an ``all_of``), once."""
        piece = None if mapping.replica_chunks else mapping.piece(offset, nbytes)
        if piece is None:
            return None
        chunk, chunk_off = piece
        kernel = self.kernel
        # A local chunk is a memcpy; a missing or dead peer, the walk's raise.
        peer = kernel.peers.get(chunk.node_id)
        if chunk.node_id == kernel.lite_id or peer is None or not peer.alive:
            return None
        wr = self._piece_wr(peer, chunk, chunk_off, nbytes,
                            None if data is None else memoryview(data))
        handle = self._try_fast(peer, wr, priority)
        if handle is not None:
            yield handle
        else:
            results = yield self.sim.all_of(
                [self.sim.process(self._post(peer.lite_id, wr, priority))])
            self._check(list(results.values()),
                        "read" if data is None else "write")
        return wr

    def _backup_write(self, mapping: MappedLmr, backup_id: int,
                      offset: int, data: bytes, priority: int):
        """Fan one write out to a single backup copy (generator).

        Backup failures never fail the caller's write: the backup is
        marked stale in the manager's replica directory (it drops out
        of the promotable set until a resync) and the op completes on
        the surviving copies.  Always returns ``WcStatus.SUCCESS`` so
        it can ride in the same ``all_of`` as the primary pieces.
        """
        bchunks = mapping.replica_chunks.get(backup_id)
        if not bchunks:
            return WcStatus.SUCCESS
        bmap = MappedLmr(0, "", mapping.size, bchunks, 0)
        try:
            procs, _ = yield from self._issue_pieces(
                bmap, offset, len(data), data, priority
            )
            if procs:
                results = yield self.sim.all_of(procs)
                self._check(list(results.values()), "replica write")
        except LiteError:
            self.kernel.manager.mark_replica_stale(mapping.lmr_id, backup_id)
        return WcStatus.SUCCESS

    def _backup_procs(self, mapping: MappedLmr, offset: int, data: bytes,
                      priority: int):
        """One :meth:`_backup_write` process per backup copy, in id order."""
        return [
            self.sim.process(
                self._backup_write(mapping, backup_id, offset, data, priority)
            )
            for backup_id in sorted(mapping.replica_chunks)
        ]

    def _ack_replicated_write(self, mapping: MappedLmr) -> None:
        """Bump the per-LMR write-ordering version after a full ack."""
        kernel = self.kernel
        kernel.manager.bump_version(mapping.lmr_id)
        record = kernel._records_by_id.get(mapping.lmr_id)
        if record is not None:
            record.version += 1

    # -- data ops -------------------------------------------------------------
    def write(self, mapping: MappedLmr, offset: int, data: bytes, priority: int = 0):
        """LT_write kernel path (generator)."""
        kernel = self.kernel
        self._check_not_failed(mapping)
        yield from kernel.qos.gate(priority)
        start = self.sim.now
        if (yield from self._one_piece(mapping, offset, len(data), data,
                                       priority)) is None:
            procs, _ = yield from self._issue_pieces(
                mapping, offset, len(data), data, priority
            )
            # Replicated LMR: the same bytes fan out to every backup copy
            # inside the same completion barrier — an acked write is on
            # all live replicas before the caller resumes.
            procs += self._backup_procs(mapping, offset, data, priority)
            if procs:
                results = yield self.sim.all_of(procs)
                self._check(list(results.values()), "write")
            if mapping.replica_chunks:
                self._ack_replicated_write(mapping)
        self.writes += 1
        kernel.qos.observe(priority, self.sim.now - start)

    def read(self, mapping: MappedLmr, offset: int, nbytes: int, priority: int = 0):
        """LT_read kernel path (generator; returns bytes)."""
        kernel = self.kernel
        self._check_not_failed(mapping)
        yield from kernel.qos.gate(priority)
        start = self.sim.now
        wr = yield from self._one_piece(mapping, offset, nbytes, None, priority)
        if wr is not None:
            data = wr.return_data or b""
        else:
            procs, parts = yield from self._issue_pieces(
                mapping, offset, nbytes, None, priority
            )
            if procs:
                results = yield self.sim.all_of(procs)
                self._check(list(results.values()), "read")
            data = self._join(parts)
        self.reads += 1
        kernel.qos.observe(priority, self.sim.now - start)
        return data

    # -- vector ops (batched data plane, §5.2) --------------------------------
    def _post_batches(self, by_peer: dict, priority: int):
        """One :meth:`_post_batch` process per peer's gathered WRs."""
        return [
            self.sim.process(self._post_batch(peer_id, wrs, priority))
            for peer_id, wrs in by_peer.items()
        ]

    def write_vec(self, ops, priority: int = 0):
        """Vector LT_write: many writes, one doorbell per WR chunk.

        ``ops`` is a sequence of ``(mapping, offset, data)`` triples.
        All remote pieces destined for the same peer are posted as one
        WR chain through :meth:`_post_batch`; local pieces short-circuit
        into memcpy as usual.  Generator; raises on any failure.
        """
        kernel = self.kernel
        yield from kernel.qos.gate(priority)
        start = self.sim.now
        by_peer: dict = {}
        backup_procs = []

        def gather(peer, wr):
            by_peer.setdefault(peer.lite_id, []).append(wr)

        for mapping, offset, data in ops:
            self._check_not_failed(mapping)
            backup_procs += self._backup_procs(mapping, offset, data, priority)
            yield from self._pieces(mapping, offset, len(data), data, gather)
        if by_peer or backup_procs:
            batch_procs = self._post_batches(by_peer, priority)
            results = yield self.sim.all_of(batch_procs + backup_procs)
            for index in range(len(batch_procs)):
                self._check(results[index], "write_vec")
        for mapping, _offset, _data in ops:
            if mapping.replica_chunks:
                self._ack_replicated_write(mapping)
        self.writes += len(ops)
        kernel.qos.observe(priority, self.sim.now - start)

    def read_vec(self, ops, priority: int = 0):
        """Vector LT_read: many reads, one doorbell per WR chunk.

        ``ops`` is a sequence of ``(mapping, offset, nbytes)`` triples.
        Generator; returns a list of bytes objects, one per op, in op
        order.
        """
        kernel = self.kernel
        yield from kernel.qos.gate(priority)
        start = self.sim.now
        op_parts = []
        by_peer: dict = {}

        def gather(peer, wr):
            by_peer.setdefault(peer.lite_id, []).append(wr)

        for mapping, offset, nbytes in ops:
            self._check_not_failed(mapping)
            op_parts.append(
                (yield from self._pieces(mapping, offset, nbytes, None, gather))
            )
        if by_peer:
            results = yield self.sim.all_of(self._post_batches(by_peer, priority))
            for statuses in results.values():
                self._check(statuses, "read_vec")
        self.reads += len(ops)
        kernel.qos.observe(priority, self.sim.now - start)
        return [self._join(parts) for parts in op_parts]

    # -- atomics ---------------------------------------------------------------
    def _atomic(self, mapping: MappedLmr, offset: int, opcode: Opcode,
                compare_add: int, swap: int, priority: int):
        kernel = self.kernel
        piece = mapping.piece(offset, 8)
        if piece is None:
            raise ValueError("atomic target must not straddle chunks")
        chunk, chunk_off = piece
        if chunk.node_id == kernel.lite_id:
            # Local word: the RNIC still arbitrates atomics, loop back.
            yield self.sim.timeout(self.params.prices.dma_setup)
            region, base = kernel.node.memory.resolve(chunk.addr + chunk_off, 8)
            old = struct.unpack("<Q", region.read(base, 8))[0]
            if opcode is Opcode.FETCH_ADD:
                new = (old + compare_add) % (1 << 64)
            else:
                new = swap if old == compare_add else old
            region.write(base, struct.pack("<Q", new))
            self.atomics += 1
            return old
        peer = kernel.peer(chunk.node_id)
        remote_addr, rkey = chunk.target(chunk_off, peer.global_rkey)
        wr = SendWR(
            opcode,
            remote_addr=remote_addr,
            rkey=rkey,
            compare_add=compare_add,
            swap=swap,
        )
        # Inline fallback, not a spawned ``_post``: the process would add
        # a bootstrap hop to the contended multi-writer log.
        handle = self._try_fast(peer, wr, priority)
        if handle is not None:
            status = yield handle
        else:
            status = yield from self._post(chunk.node_id, wr, priority)
        self._check([status], opcode.value)
        self.atomics += 1
        return struct.unpack("<Q", wr.return_data)[0]

    def fetch_add(self, mapping: MappedLmr, offset: int, delta: int, priority: int = 0):
        """Atomic fetch-and-add on an LMR word (generator; returns old)."""
        old = yield from self._atomic(
            mapping, offset, Opcode.FETCH_ADD, delta, 0, priority
        )
        return old

    def cmp_swap(self, mapping: MappedLmr, offset: int, expected: int, value: int,
                 priority: int = 0):
        """Atomic compare-and-swap (generator; returns the old value)."""
        old = yield from self._atomic(
            mapping, offset, Opcode.CMP_SWAP, expected, value, priority
        )
        return old

    # -- raw physical-address ops (internal plumbing: RPC rings, etc.) -------
    @staticmethod
    def _raw_wr(peer, phys_addr: int, data: bytes, imm, signaled: bool) -> SendWR:
        """The WR of one raw write: physical address, global rkey."""
        return SendWR(
            Opcode.WRITE if imm is None else Opcode.WRITE_IMM,
            inline_data=data,
            remote_addr=phys_addr,
            rkey=peer.global_rkey,
            imm=imm,
            signaled=signaled,
        )

    def raw_write(self, peer_id: int, phys_addr: int, data: bytes,
                  imm: int = None, signaled: bool = True, priority: int = 0):
        """Write to a raw physical address at a peer (generator)."""
        wr = self._raw_wr(self.kernel.peer(peer_id), phys_addr, data, imm, signaled)
        status = yield from self._post(peer_id, wr, priority)
        return status

    def raw_write_async(self, peer_id: int, phys_addr: int, data: bytes,
                        imm: int = None, priority: int = 0) -> None:
        """Fire-and-forget raw write (LITE does not poll send state, §5.1).

        Nothing awaits the spawned process, so failure semantics are
        absorbed here: a write that cannot be delivered is counted and
        dropped (the higher-level timeout/retry machinery is the
        recovery path), never allowed to crash the simulation.
        """
        peer = self.kernel.peer(peer_id)
        wr = self._raw_wr(peer, phys_addr, data, imm, False)
        if self._try_fast(peer, wr, priority) is not None:
            return

        def runner():
            try:
                yield from self._post(peer_id, wr, priority)
            except LiteError:
                self.async_write_failures += 1

        self.sim.process(runner(), name="lite-raw-write")

    def raw_write_batch_async(self, peer_id: int, writes, priority: int = 0) -> None:
        """Fire-and-forget chain of raw writes behind one doorbell.

        ``writes`` is a sequence of ``(phys_addr, data, imm)`` triples
        (``imm=None`` for a plain write).  The chain is posted in order
        on one shared QP, so RC ordering holds across the whole batch —
        the piggybacked RPC reply+ring-head update relies on this.
        Failure semantics match :meth:`raw_write_async`.
        """

        def runner():
            try:
                peer = self.kernel.peer(peer_id)
                wrs = [
                    self._raw_wr(peer, phys_addr, data, imm, False)
                    for phys_addr, data, imm in writes
                ]
                statuses = yield from self._post_batch(peer_id, wrs, priority)
                for status in statuses:
                    if status is not WcStatus.SUCCESS:
                        self.async_write_failures += 1
            except LiteError:
                self.async_write_failures += 1

        self.sim.process(runner(), name="lite-raw-write")
