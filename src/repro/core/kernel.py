"""The LITE kernel module: one instance per node (paper §3.3).

Owns everything the paper's loadable module owns:

- the **global physical MR** (one lkey/rkey covering all of DRAM, §4.1),
- **K×N shared RC QPs** (K per peer, shared by every application, §6.1),
- one **shared receive CQ + SRQ** drained by a single busy-polling
  kernel thread that dispatches control messages, RPC requests and RPC
  replies,
- the **control plane** (two-sided sends carrying management messages:
  LMR alloc/map/free, memset/memcpy execution, lock/barrier services,
  RPC ring binding, user messaging),
- the master-side **LMR registry**.

The one-sided data plane lives in :mod:`repro.core.rdma`, the RPC data
plane in :mod:`repro.core.rpc`; both are composed here.
"""

from __future__ import annotations

import base64
from typing import Dict, List, Optional

from ..hw.caches import LruDict
from ..sim import Event, Resource, Store
from ..verbs import Access, Opcode, RecvWR, SendWR
from ..verbs.fastpath import prime_qp, try_fast_post
from ..verbs.timeline import post_cpu
from .errors import ENODEV, ETIMEDOUT, LiteError
from .lmr import ChunkInfo, MasterRecord, MappedLmr, Permission
from .protocol import MsgType, decode_ctrl, encode_ctrl
from .qos import QosManager
from .rdma import OneSidedEngine
from .rpc import RpcEngine
from .sync import SyncService

__all__ = ["LiteKernel", "LiteError"]

# Bound on the duplicate-suppression reply cache (entries, not bytes).
_CTRL_REPLY_CACHE_MAX = 512
# Hoisted: ``Opcode.SEND`` is an enum class-attribute lookup per message.
_SEND = Opcode.SEND


class PeerInfo:
    """Everything needed to talk to one remote LITE instance."""

    __slots__ = ("lite_id", "node_id", "global_rkey", "qps", "windows", "_rr",
                 "alive")

    def __init__(self, lite_id: int, node_id: int, global_rkey: int):
        self.lite_id = lite_id
        self.node_id = node_id
        self.global_rkey = global_rkey
        self.qps: List = []
        self.windows: List = []  # per-QP outstanding-op windows
        self._rr = 0
        # Liveness verdict: flipped by keep-alive (or by the data path
        # when keep-alive runs); a dead peer fails fast with ENODEV.
        self.alive = True


class LiteKernel:
    """One node's LITE instance."""

    def __init__(self, node, manager, qos_mode: Optional[str] = None,
                 use_global_mr: bool = True):
        self.node = node
        # Ablation knob (DESIGN.md §6): False registers every LMR chunk
        # as a classic virtual MR instead of using the global physical
        # MR, reintroducing native RDMA's SRAM-scalability problems.
        self.use_global_mr = use_global_mr
        self.sim = node.sim
        self._token_counter = node.sim.ids.kernel_token
        self.params = node.params
        self._post_cpu = post_cpu(node.params.prices)
        self.manager = manager
        self.lite_id = manager.join(node)
        node.install_lite(self)
        self.device = node.device
        self.pd = self.device.alloc_pd()
        self.global_mr = None
        self.recv_cq = self.device.create_cq(
            depth=1 << 16, name=f"lite{self.lite_id}-recv"
        )
        self.srq = self.device.create_srq()
        self.peers: Dict[int, PeerInfo] = {}
        self.node_to_lite: Dict[int, int] = {node.node_id: self.lite_id}
        # Control plane.
        self._ctrl_pending: Dict[int, Event] = {}
        self._ctrl_slots_region = None
        self.user_inbox: Store = Store(self.sim)
        # Master-side LMR registry: name -> MasterRecord.
        self.registry: Dict[str, MasterRecord] = {}
        self._records_by_id: Dict[int, MasterRecord] = {}
        # Local mappings of remote/local LMRs (for FREE_NOTIFY fan-in).
        self.mappings_by_lmr: Dict[int, List[MappedLmr]] = {}
        # Engines.
        self.qos = QosManager(self, mode=qos_mode)
        self.onesided = OneSidedEngine(self)
        self.rpc = RpcEngine(self)
        self.sync = SyncService(self)
        self._poller = None
        self.booted = False
        # Control-plane timeout/retry policy: off (wait forever, the
        # seed's behavior) until enable_fault_tolerance(), which
        # FaultInjector.arm_lite calls, copies it from SimParams.
        self.ctrl_timeout_us = 0.0  # 0 = wait forever (seed behavior)
        self.ctrl_retries = 0
        self._ctrl_reply_cache = LruDict(
            _CTRL_REPLY_CACHE_MAX, name="ctrl-reply")
        self._ctrl_inflight: set = set()
        self._frag_buffers: Dict[str, dict] = {}
        self._ctrl_handlers = {
            MsgType.ALLOC: self._serve_alloc,
            MsgType.FREE_CHUNKS: self._serve_free_chunks,
            MsgType.MAP: self._serve_map,
            MsgType.UNMAP_NOTIFY: self._serve_unmap_notify,
            MsgType.FREE_NOTIFY: self._serve_free_notify,
            MsgType.CHUNKS_UPDATE: self._serve_chunks_update,
            MsgType.GRANT: self._serve_grant,
            MsgType.MEMSET: self._serve_memset,
            MsgType.MEMCPY: self._serve_memcpy,
            MsgType.RING_BIND: self._serve_ring_bind,
            MsgType.LOCK_WAIT: self._serve_lock_wait,
            MsgType.LOCK_RELEASE: self._serve_lock_release,
            MsgType.BARRIER: self._serve_barrier,
            MsgType.USER_MSG: self._serve_user_msg,
            MsgType.PING: self._serve_ping,
        }
        self._keepalive = None
        # Control plane: per-peer QP lease pools (cluster/qp_pool.py),
        # created lazily by qp_pool().  Keyed by peer LITE id.
        self.qp_pools: Dict[int, object] = {}

    # ------------------------------------------------------------------
    # Boot & connection management
    # ------------------------------------------------------------------
    def boot(self):
        """Bring the kernel up: global MR, control slots, poll thread."""
        if self.booted:
            raise LiteError("LITE already booted on this node")
        self.global_mr = yield from self.device.reg_phys_mr(self.pd, Access.ALL)
        params = self.params
        slots = params.lite_ctrl_slots
        slot_bytes = params.lite_ctrl_slot_bytes
        self._ctrl_slots_region = self.node.memory.alloc(slots * slot_bytes)
        for index in range(slots):
            self._post_ctrl_slot(index)
        self._poller = self.sim.process(
            self._poll_loop(), name=f"lite{self.lite_id}-poller"
        )
        self._build_loopback()
        self.booted = True

    def _build_loopback(self) -> None:
        """Loopback QPs so self-targeted control/RPC ops work uniformly."""
        loop = PeerInfo(self.lite_id, self.node.node_id, self.global_mr.rkey)
        for _ in range(self.params.lite_qp_factor_k):
            qp_a = self.device.create_qp(
                self.pd, "RC", send_cq=None, recv_cq=self.recv_cq, srq=self.srq
            )
            qp_b = self.device.create_qp(
                self.pd, "RC", send_cq=None, recv_cq=self.recv_cq, srq=self.srq
            )
            self.device.connect(qp_a, qp_b)
            loop.qps.append(qp_a)
            loop.windows.append(
                Resource(self.sim, capacity=self.params.lite_qp_window)
            )
        self.peers[self.lite_id] = loop

    def _post_ctrl_slot(self, index: int) -> None:
        slot_bytes = self.params.lite_ctrl_slot_bytes
        addr = self._ctrl_slots_region.addr + index * slot_bytes
        self.srq.post_recv(
            RecvWR(mr=self.global_mr, offset=addr, length=slot_bytes, wr_id=index)
        )

    def connect(self, other: "LiteKernel"):
        """Build the K shared QPs to a peer (symmetric; generator).

        Connection setup goes through the cluster manager out-of-band;
        we charge one control round-trip per QP pair.
        """
        if other.lite_id in self.peers:
            return
        params = self.params
        mine = PeerInfo(other.lite_id, other.node.node_id, other.global_mr.rkey)
        theirs = PeerInfo(self.lite_id, self.node.node_id, self.global_mr.rkey)
        for _ in range(params.lite_qp_factor_k):
            qp_a = self.device.create_qp(
                self.pd, "RC", send_cq=None, recv_cq=self.recv_cq, srq=self.srq
            )
            qp_b = other.device.create_qp(
                other.pd, "RC", send_cq=None, recv_cq=other.recv_cq, srq=other.srq
            )
            self.device.connect(qp_a, qp_b)
            mine.qps.append(qp_a)
            theirs.qps.append(qp_b)
            mine.windows.append(Resource(self.sim, capacity=params.lite_qp_window))
            theirs.windows.append(
                Resource(self.sim, capacity=other.params.lite_qp_window)
            )
            yield from self.node.fabric.transfer(
                self.node.node_id, other.node.node_id, 256
            )
            yield from self.node.fabric.transfer(
                other.node.node_id, self.node.node_id, 256
            )
        self.peers[other.lite_id] = mine
        other.peers[self.lite_id] = theirs
        self.node_to_lite[other.node.node_id] = other.lite_id
        other.node_to_lite[self.node.node_id] = self.lite_id
        # Build the fast-path cost tables eagerly so the very first op
        # on each shared QP can commit without a table-build stall.
        for qp in mine.qps:
            prime_qp(qp)
        for qp in theirs.qps:
            prime_qp(qp)

    def qp_pool(self, peer_lite_id: int, **overrides):
        """The QP lease pool toward ``peer_lite_id`` (created lazily).

        ``overrides`` (reserve/cap/lease_ttl_us/sweep_interval_us) only
        apply on first creation; later calls return the cached pool.
        """
        pool = self.qp_pools.get(peer_lite_id)
        if pool is None:
            from ..cluster.qp_pool import QPPool

            peer_node = self.manager.lookup(peer_lite_id)
            if peer_node.lite is None:
                raise LiteError(
                    f"LITE {peer_lite_id} is not booted", errno=ENODEV
                )
            pool = QPPool(self, peer_node.lite, **overrides)
            self.qp_pools[peer_lite_id] = pool
        return pool

    def peer(self, lite_id: int, check_alive: bool = True) -> PeerInfo:
        """Connection state toward a LITE instance (incl. loopback).

        ``check_alive=False`` bypasses the keep-alive verdict — probes
        must still reach a peer marked dead, or it could never recover.
        """
        info = self.peers.get(lite_id)
        if info is None:
            raise LiteError(
                f"LITE {self.lite_id} is not connected to {lite_id}",
                errno=ENODEV,
            )
        if check_alive and not info.alive:
            raise LiteError(f"LITE {lite_id} is marked dead", errno=ENODEV)
        return info

    def total_qps(self) -> int:
        """QPs toward remote peers (K×(N-1)); loopback pairs excluded."""
        return sum(
            len(peer.qps)
            for lite_id, peer in self.peers.items()
            if lite_id != self.lite_id
        )

    # ------------------------------------------------------------------
    # Control plane
    # ------------------------------------------------------------------
    def ctrl_send(self, dst_lite_id: int, msg: dict,
                  ordered: bool = False, check_alive: bool = True) -> None:
        """Fire-and-forget control SEND (non-blocking post).

        Messages larger than one receive slot are fragmented and
        reassembled at the peer (chunk lists of very large LMRs).
        ``ordered`` pins the message to one QP so it delivers in FIFO
        order relative to other ordered messages (LT_send semantics);
        request/reply traffic is token-matched and rides round-robin.
        """
        payload = encode_ctrl(msg)
        budget = self.params.lite_ctrl_slot_bytes - 128
        if len(payload) <= budget:
            self._ctrl_send_raw(dst_lite_id, payload, ordered=ordered,
                                check_alive=check_alive)
            return
        raw_budget = (budget // 4) * 3 - 64  # room for base64 + envelope
        pieces = [
            payload[index : index + raw_budget]
            for index in range(0, len(payload), raw_budget)
        ]
        frag_id = next(self._token_counter)
        for index, piece in enumerate(pieces):
            envelope = {
                "type": "__frag",
                "fid": f"{self.lite_id}:{frag_id}",
                "i": index,
                "n": len(pieces),
                "data": base64.b64encode(piece).decode(),
            }
            self._ctrl_send_raw(dst_lite_id, encode_ctrl(envelope),
                                ordered=True, check_alive=check_alive)

    def _ctrl_send_raw(self, dst_lite_id: int, payload: bytes,
                       ordered: bool = False, check_alive: bool = True) -> None:
        peer = self.peer(dst_lite_id, check_alive=check_alive)
        if ordered:
            qp = peer.qps[0]
        else:
            qp = peer.qps[peer._rr % len(peer.qps)]
            peer._rr += 1
        if qp.state == "ERROR":
            # A past outage flushed this shared QP; LITE recycles it
            # transparently instead of flushing new traffic forever.
            qp.reset()
        self.node.cpu.charge("lite-ctrl", self._post_cpu)
        # Posted like OneSidedEngine._post: one post-time commit attempt,
        # then the generator path with no second attempt at the start hop.
        wr = SendWR(_SEND, inline_data=payload, signaled=False)
        if try_fast_post(qp, wr) is None:
            qp.post_send_generator(wr)

    def ctrl_request(self, dst_lite_id: int, msg: dict,
                     timeout: Optional[float] = None,
                     retries: Optional[int] = None,
                     check_alive: bool = True):
        """Send a control request, wait for the peer's reply (generator).

        With no ``timeout`` (and fault tolerance off) this waits forever,
        the seed behavior.  With a timeout, the same-token request is
        resent up to ``retries`` times with doubling per-attempt windows
        (capped at 8x); the peer suppresses duplicates via its reply
        cache.  Raises ``LiteError(errno=ETIMEDOUT)`` on exhaustion.
        """
        tracer = self.sim.tracer
        span = (tracer.begin("ctrl.request", node=self.lite_id,
                             dst=dst_lite_id, msg=str(msg.get("type", "?")))
                if tracer is not None else None)
        try:
            if timeout is None and self.ctrl_timeout_us > 0:
                timeout = self.ctrl_timeout_us
            if retries is None:
                retries = self.ctrl_retries
            token = next(self._token_counter)
            msg = dict(msg)
            msg["tok"] = token
            msg["src"] = self.lite_id
            event = self.sim.event()
            self._ctrl_pending[token] = event
            if timeout is None:
                try:
                    self.ctrl_send(dst_lite_id, msg, check_alive=check_alive)
                except LiteError:
                    self._ctrl_pending.pop(token, None)
                    raise
                reply = yield event
            else:
                window = timeout
                for _attempt in range(max(retries, 0) + 1):
                    try:
                        self.ctrl_send(dst_lite_id, msg,
                                       check_alive=check_alive)
                    except LiteError:
                        self._ctrl_pending.pop(token, None)
                        raise
                    timer = self.sim.timeout(window)
                    yield self.sim.any_of([event, timer])
                    if event.triggered:
                        timer.cancel()
                        break
                    window = min(window * 2, timeout * 8)
                if not event.triggered:
                    self._ctrl_pending.pop(token, None)
                    raise LiteError(
                        f"control request {msg.get('type')!r} to LITE "
                        f"{dst_lite_id} timed out",
                        errno=ETIMEDOUT,
                    )
                reply = event.value
            if reply.get("err"):
                raise LiteError(reply["err"])
        except BaseException as exc:
            if span is not None:
                tracer.end(span, outcome="err:" + type(exc).__name__)
            raise
        if span is not None:
            tracer.end(span)
        return reply

    def _ctrl_reply(self, request: dict, reply: dict) -> None:
        reply = dict(reply)
        reply["type"] = MsgType.REPLY
        reply["tok"] = request["tok"]
        src, tok = request.get("src"), request.get("tok")
        if src is not None and tok is not None:
            # Remember the reply so a retried (duplicate) request gets
            # the same answer without re-running the handler.
            self._ctrl_reply_cache.put((src, tok), reply)
            self._ctrl_inflight.discard((src, tok))
        try:
            self.ctrl_send(request["src"], reply, check_alive=False)
        except LiteError:
            # Requester unreachable: it will retry or time out on its own.
            pass

    # ------------------------------------------------------------------
    # The shared polling thread (one per node, §5.1/§6.1)
    # ------------------------------------------------------------------
    def _poll_loop(self):
        # Each wakeup takes one CQE: one discovery latency, then one
        # dispatch charge.
        cpu = self.node.cpu
        while True:
            wc = yield from cpu.busy_wait(self.recv_cq.wait_wc(),
                                          tag="lite-poll")
            cpu.charge("lite-poll", 0.10)  # dispatch bookkeeping
            self._dispatch_wc(wc)

    def _dispatch_wc(self, wc) -> None:
        """Demultiplex one receive-side CQE (control msg or RPC imm)."""
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.instant("kernel.dispatch", node=self.lite_id,
                           opcode=wc.opcode.value)
        if wc.opcode is Opcode.RECV:
            slot = wc.wr_id
            if not wc.ok:
                # Defensive: a message overran its slot.
                self._post_ctrl_slot(slot)
                return
            payload = self._ctrl_slots_region.read(
                slot * self.params.lite_ctrl_slot_bytes, wc.byte_len
            )
            self._post_ctrl_slot(slot)
            msg = decode_ctrl(payload)
            if msg.get("type") == "__frag":
                msg = self._reassemble(msg)
                if msg is None:
                    return
            if msg.get("type") == MsgType.REPLY:
                pending = self._ctrl_pending.pop(msg["tok"], None)
                if pending is not None:
                    pending.succeed(msg)
            elif self._ctrl_duplicate(msg):
                pass  # answered from the reply cache (or still running)
            else:
                self.sim.process(
                    self._handle_ctrl(msg), name=f"lite{self.lite_id}-ctrl"
                )
        elif wc.opcode is Opcode.RECV_IMM:
            self._post_ctrl_slot(wc.wr_id)
            self.rpc.handle_imm(wc)

    def _ctrl_duplicate(self, msg: dict) -> bool:
        """Idempotent-retry guard for tokenized control requests.

        A duplicate of an already-answered request is re-answered from
        the reply cache (the first reply was lost); a duplicate of a
        request whose handler is still running is dropped (the eventual
        reply serves both copies).  Returns True when the message must
        not be dispatched again.
        """
        src, tok = msg.get("src"), msg.get("tok")
        if src is None or tok is None:
            return False
        key = (src, tok)
        cached = self._ctrl_reply_cache.get(key)
        if cached is not None:
            try:
                self.ctrl_send(src, cached, check_alive=False)
            except LiteError:
                pass
            return True
        if key in self._ctrl_inflight:
            return True
        self._ctrl_inflight.add(key)
        return False

    def _reassemble(self, envelope: dict):
        """Collect fragments; returns the full message when complete."""
        key = envelope["fid"]
        parts = self._frag_buffers.setdefault(key, {})
        parts[envelope["i"]] = base64.b64decode(envelope["data"])
        if len(parts) < envelope["n"]:
            return None
        del self._frag_buffers[key]
        payload = b"".join(parts[index] for index in range(envelope["n"]))
        return decode_ctrl(payload)

    # ------------------------------------------------------------------
    # Control-plane services
    # ------------------------------------------------------------------
    def _handle_ctrl(self, msg: dict):
        handler = self._ctrl_handlers.get(msg["type"])
        if handler is None:
            self._ctrl_reply(msg, {"err": f"unknown control type {msg['type']!r}"})
            return
        try:
            yield from handler(msg)
        except LiteError as exc:
            # A handler tripping over failure semantics (dead peer,
            # errored transport) must not crash the poll-spawned process;
            # answer the requester with the error if it expects a reply.
            if msg.get("tok") is not None and msg.get("src") is not None:
                self._ctrl_reply(msg, {"err": str(exc)})

    # -- memory management services --------------------------------------
    def alloc_chunks(self, size: int):
        """Carve ``size`` bytes into local physically-contiguous chunks.

        Large LMRs are split into <= lite_chunk_bytes pieces to dodge
        external fragmentation (§4.1); small LMRs stay contiguous.
        Generator: in per-MR ablation mode each chunk pays a real
        ibv_reg_mr (pinning included).
        """
        chunk_max = self.params.lite_chunk_bytes
        chunks: List[ChunkInfo] = []
        remaining = size
        while remaining > 0:
            piece = min(remaining, chunk_max)
            region = self.node.memory.alloc(piece)
            if self.use_global_mr:
                chunks.append(ChunkInfo(self.lite_id, region.addr, piece))
            else:
                mr = yield from self.device.reg_mr(
                    self.pd, piece, Access.ALL, region=region
                )
                chunks.append(
                    ChunkInfo(self.lite_id, region.addr, piece,
                              rkey=mr.rkey, va=mr.base_addr)
                )
            remaining -= piece
        return chunks

    def _alloc_cost(self, size: int) -> float:
        return (
            self.params.malloc_base_us
            + (size / (1024 * 1024)) * self.params.malloc_per_mb_us
        )

    def _serve_alloc(self, msg: dict):
        size = msg["size"]
        yield from self.node.cpu.execute(self._alloc_cost(size), tag="lite-mgmt")
        try:
            chunks = yield from self.alloc_chunks(size)
        except Exception as exc:  # OutOfMemoryError and friends
            self._ctrl_reply(msg, {"err": str(exc)})
            return
        self._ctrl_reply(msg, {"chunks": [c.to_wire() for c in chunks]})

    def _serve_free_chunks(self, msg: dict):
        for wire in msg["chunks"]:
            chunk = ChunkInfo.from_wire(wire)
            if chunk.node_id != self.lite_id:
                continue
            yield from self.free_chunk(chunk)
        yield self.sim.timeout(self.params.malloc_base_us)
        self._ctrl_reply(msg, {"ok": True})

    def free_chunk(self, chunk: ChunkInfo):
        """Release one local chunk (deregistering its MR if ablated)."""
        if chunk.rkey is not None:
            mr = self.device.mrs_by_rkey.get(chunk.rkey)
            if mr is not None:
                yield from self.device.dereg_mr(mr, free_backing=True)
                return
        region, offset = self.node.memory.resolve(chunk.addr, chunk.size)
        if offset == 0 and region.size == chunk.size:
            self.node.memory.free(region)

    def _serve_map(self, msg: dict):
        yield self.sim.timeout(self.params.lite_metadata_us)
        record = self.registry.get(msg["name"])
        if record is None or record.freed:
            self._ctrl_reply(msg, {"err": f"no LMR named {msg['name']!r}"})
            return
        wanted = Permission(msg["perm"])
        if not record.check(msg["principal"], wanted):
            self._ctrl_reply(
                msg, {"err": f"permission denied for {msg['principal']!r}"}
            )
            return
        record.add_mapper(msg["src"])
        reply = {
            "lmr_id": record.lmr_id,
            "size": record.size,
            "chunks": [c.to_wire() for c in record.chunks],
            "perm": wanted.value,
        }
        # Only replicated LMRs carry the extra field: the wire bytes of
        # every pre-existing (unreplicated) MAP reply are unchanged.
        if record.replicas:
            reply["replicas"] = {
                backup: [c.to_wire() for c in bchunks]
                for backup, bchunks in record.replicas.items()
            }
        self._ctrl_reply(msg, reply)

    def _serve_unmap_notify(self, msg: dict):
        record = self._records_by_id.get(msg["lmr_id"])
        if record is not None:
            record.drop_mapper(msg["src"])
        return
        yield  # pragma: no cover - generator marker

    def _serve_free_notify(self, msg: dict):
        for mapping in self.mappings_by_lmr.pop(msg["lmr_id"], []):
            mapping.valid = False
        return
        yield  # pragma: no cover - generator marker

    def _serve_chunks_update(self, msg: dict):
        """The master moved an LMR: retarget every local mapping (§4.1).

        Existing lhs keep working transparently — their next operation
        simply lands at the new location.  The recovery layer reuses
        this message with optional extras: ``master`` (post-promotion
        re-homing), ``replicas`` (the surviving/resynced backup set)
        and ``failed`` (last replica died — degrade to ENODEV).
        """
        yield self.sim.timeout(self.params.lite_metadata_us)
        new_chunks = [ChunkInfo.from_wire(w) for w in msg["chunks"]]
        new_master = msg.get("master")
        new_replicas = None
        if "replicas" in msg:
            new_replicas = {
                int(backup): [ChunkInfo.from_wire(w) for w in bchunks]
                for backup, bchunks in msg["replicas"].items()
            }
        for mapping in self.mappings_by_lmr.get(msg["lmr_id"], []):
            mapping.retarget(new_chunks)
            if new_master is not None:
                mapping.master_id = new_master
            if new_replicas is not None:
                mapping.replica_chunks = {b: list(c)
                                          for b, c in new_replicas.items()}
            if "failed" in msg:
                mapping.failed = bool(msg["failed"])
        self._ctrl_reply(msg, {"ok": True})

    def _serve_grant(self, msg: dict):
        yield self.sim.timeout(self.params.lite_metadata_us)
        record = self.registry.get(msg["name"])
        if record is None:
            self._ctrl_reply(msg, {"err": f"no LMR named {msg['name']!r}"})
            return
        if not record.check(msg["principal"], Permission.MASTER):
            self._ctrl_reply(msg, {"err": "only a master may grant permissions"})
            return
        record.grant(msg["grantee"], Permission(msg["perm"]))
        self._ctrl_reply(msg, {"ok": True})

    # -- memory-op execution services (§7.1) ------------------------------
    def _local_chunk_write(self, chunk: ChunkInfo, offset: int, data: bytes) -> None:
        region, base = self.node.memory.resolve(chunk.addr + offset, len(data))
        region.write(base, data)

    def _local_chunk_read(self, chunk: ChunkInfo, offset: int, nbytes: int) -> bytes:
        region, base = self.node.memory.resolve(chunk.addr + offset, nbytes)
        return region.read(base, nbytes)

    def _serve_memset(self, msg: dict):
        chunks = [ChunkInfo.from_wire(w) for w in msg["chunks"]]
        mapping = MappedLmr(0, "", sum(c.size for c in chunks), chunks, 0)
        value = bytes([msg["value"]])
        nbytes = msg["nbytes"]
        yield from self.node.cpu.execute(
            nbytes / self.params.memset_bytes_per_us, tag="lite-mgmt"
        )
        for chunk, chunk_off, piece, _buf_off in mapping.plan(msg["offset"], nbytes):
            self._local_chunk_write(chunk, chunk_off, value * piece)
        self._ctrl_reply(msg, {"ok": True})

    def _serve_memcpy(self, msg: dict):
        src_chunks = [ChunkInfo.from_wire(w) for w in msg["src_chunks"]]
        dst_chunks = [ChunkInfo.from_wire(w) for w in msg["dst_chunks"]]
        nbytes = msg["nbytes"]
        src_map = MappedLmr(0, "", sum(c.size for c in src_chunks), src_chunks, 0)
        dst_map = MappedLmr(0, "", sum(c.size for c in dst_chunks), dst_chunks, 0)
        # Gather source bytes (they are local to this node by routing).
        parts = []
        for chunk, chunk_off, piece, _ in src_map.plan(msg["src_off"], nbytes):
            if chunk.node_id != self.lite_id:
                self._ctrl_reply(msg, {"err": "memcpy routed to wrong node"})
                return
            parts.append(self._local_chunk_read(chunk, chunk_off, piece))
        data = b"".join(parts)
        dst_local = all(c.node_id == self.lite_id for c in dst_chunks)
        if dst_local:
            yield from self.node.cpu.execute(
                nbytes / self.params.memcpy_bytes_per_us, tag="lite-mgmt"
            )
            cursor = 0
            for chunk, chunk_off, piece, _ in dst_map.plan(msg["dst_off"], nbytes):
                self._local_chunk_write(chunk, chunk_off, data[cursor : cursor + piece])
                cursor += piece
        else:
            yield from self.onesided.write(dst_map, msg["dst_off"], data)
        self._ctrl_reply(msg, {"ok": True})

    # -- RPC ring binding ---------------------------------------------------
    def _serve_ring_bind(self, msg: dict):
        yield self.sim.timeout(self.params.lite_metadata_us)
        ring_addr = self.rpc.server_bind(msg["src"], msg["head_slot_addr"])
        self._ctrl_reply(msg, {"ring_addr": ring_addr})

    # -- synchronization services --------------------------------------------
    def _serve_lock_wait(self, msg: dict):
        granted = self.sync.lock_wait(msg["lock"])
        yield granted
        self._ctrl_reply(msg, {"ok": True})

    def _serve_lock_release(self, msg: dict):
        yield self.sim.timeout(self.params.lite_metadata_us)
        self.sync.lock_release(msg["lock"])
        self._ctrl_reply(msg, {"ok": True})

    def _serve_barrier(self, msg: dict):
        released = self.sync.barrier_arrive(msg["name"], msg["n"])
        yield released
        self._ctrl_reply(msg, {"ok": True})

    # -- user messaging (LT_send) ---------------------------------------------
    def _serve_user_msg(self, msg: dict):
        self.user_inbox.put((msg["src"], base64.b64decode(msg["data"])))
        return
        yield  # pragma: no cover - generator marker

    # ------------------------------------------------------------------
    # Fault tolerance: keep-alive and retry policy
    # ------------------------------------------------------------------
    def _serve_ping(self, msg: dict):
        self._ctrl_reply(msg, {"ok": True})
        return
        yield  # pragma: no cover - generator marker

    def enable_fault_tolerance(self) -> None:
        """Arm the control-plane timeout/retry policy (off in the seed):
        ``SimParams.lite_ctrl_timeout_us`` and ``lite_ctrl_retries``."""
        self.ctrl_timeout_us = self.params.lite_ctrl_timeout_us
        self.ctrl_retries = self.params.lite_ctrl_retries

    @property
    def keepalive_running(self) -> bool:
        """True while the keep-alive prober is active."""
        return self._keepalive is not None

    def start_keepalive(self, interval_us: float, miss_limit: int):
        """Start the per-node keep-alive prober (idempotent).

        Every ``interval_us`` the kernel pings each remote peer with a
        one-shot control request; ``miss_limit`` consecutive misses mark
        the peer dead (``alive=False``, operations fail fast with
        ENODEV), and the next successful probe resurrects it.
        """
        if self._keepalive is not None:
            return self._keepalive
        self._keepalive = self.sim.process(
            self._keepalive_loop(interval_us, max(miss_limit, 1)),
            name=f"lite{self.lite_id}-keepalive",
        )
        return self._keepalive

    def _keepalive_loop(self, interval_us: float, miss_limit: int):
        misses: Dict[int, int] = {}
        while True:
            yield self.sim.timeout(interval_us)
            for lite_id in list(self.peers):
                if lite_id == self.lite_id:
                    continue
                peer = self.peers.get(lite_id)
                if peer is None:
                    continue
                try:
                    yield from self.ctrl_request(
                        lite_id, {"type": MsgType.PING},
                        timeout=interval_us, retries=0, check_alive=False,
                    )
                except LiteError:
                    misses[lite_id] = misses.get(lite_id, 0) + 1
                    if misses[lite_id] >= miss_limit:
                        peer.alive = False
                    continue
                misses[lite_id] = 0
                peer.alive = True
