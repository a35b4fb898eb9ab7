"""LITE RPC: the write-imm ring mechanism (paper §5).

Per (client-node → server-node) pair, the server owns a ring LMR
(default 16 MB).  The client appends requests at its tail with a single
RDMA write-imm — the 32-bit immediate carries the RPC function id and
the ring offset — and the server's shared polling thread parses the IMM,
lifts the request out of the ring, advances the head pointer, and hands
the call to a user thread blocked in ``LT_recvRPC``.  The reply is a
second write-imm straight into the client-supplied return buffer.

Neither side ever polls send-completion state: a missing reply within
the timeout is the failure signal (§5.1).  No receive *buffers* are
consumed for RPC payloads — only bufferless IMM entries — which is
where the Figure 12 memory-utilization win comes from.
"""

from __future__ import annotations

import struct
from typing import Callable, Dict, Optional

from ..hw.caches import LruDict
from ..sim import Store
from .errors import EIO, ENODEV, ETIMEDOUT, LiteError
from .protocol import (
    IMM_KIND_REPLY,
    IMM_KIND_REQUEST,
    MAX_TOKEN,
    REPLY_HEADER_BYTES,
    REQ_HEADER_BYTES,
    MsgType,
    pack_reply_imm,
    pack_request_imm,
    unpack_imm,
)

__all__ = ["RpcEngine", "RpcCall", "RpcTimeoutError", "RpcError"]

# Bound on the duplicate-suppression reply cache (entries).
_REPLY_CACHE_MAX = 512


class RpcError(LiteError):
    """Server-side RPC failure (unknown function, reply too large...)."""

    def __init__(self, message: str, errno: int = EIO):
        super().__init__(message, errno=errno)


class RpcTimeoutError(RpcError):
    """No reply within the failure-detection window (§5.1)."""

    def __init__(self, message: str):
        super().__init__(message, errno=ETIMEDOUT)


_STATUS_OK = 0
_STATUS_NO_FUNC = 1
_STATUS_REPLY_TOO_BIG = 2


class _ClientRing:
    """Client-side view of its ring at one server."""

    __slots__ = ("server_id", "ring_addr", "size", "tail_virtual", "head_region")

    def __init__(self, server_id: int, ring_addr: int, size: int, head_region):
        self.server_id = server_id
        self.ring_addr = ring_addr
        self.size = size
        self.tail_virtual = 0
        # The server RDMA-writes its head pointer here (step f).
        self.head_region = head_region

    def head_virtual(self) -> int:
        """Server's progress pointer (read from the shared 8 B slot)."""
        return struct.unpack("<Q", self.head_region.read(0, 8))[0]

    def free_space(self) -> int:
        """Ring bytes available for new requests."""
        return self.size - (self.tail_virtual - self.head_virtual())


class _ServerRing:
    """Server-side state for one client's ring."""

    __slots__ = ("client_id", "region", "size", "head_virtual",
                 "client_head_slot_addr", "bytes_received")

    def __init__(self, client_id: int, region, client_head_slot_addr: int):
        self.client_id = client_id
        self.region = region
        self.size = region.size
        self.head_virtual = 0
        self.client_head_slot_addr = client_head_slot_addr
        self.bytes_received = 0

    def read_wrapped(self, pos: int, nbytes: int) -> bytes:
        """Read ring bytes, wrapping past the physical end."""
        pos %= self.size
        if pos + nbytes <= self.size:
            return self.region.read(pos, nbytes)
        first = self.region.read(pos, self.size - pos)
        return first + self.region.read(0, nbytes - len(first))


class RpcCall:
    """One received RPC invocation, as handed to ``LT_recvRPC``."""

    __slots__ = ("func_id", "client_id", "input", "reply_addr", "token",
                 "max_reply", "arrived_at", "replied")

    def __init__(self, func_id, client_id, input_bytes, reply_addr, token,
                 max_reply, arrived_at):
        self.func_id = func_id
        self.client_id = client_id
        self.input = input_bytes
        self.reply_addr = reply_addr
        self.token = token
        self.max_reply = max_reply
        self.arrived_at = arrived_at
        self.replied = False


class _PendingCall:
    """Client-side wait state for one outstanding token."""

    __slots__ = ("event", "reply_region", "token")

    def __init__(self, event, reply_region, token):
        self.event = event
        self.reply_region = reply_region
        self.token = token


class RpcEngine:
    """The write-imm ring RPC stack of one LITE instance (§5)."""

    def __init__(self, kernel):
        self.kernel = kernel
        self.sim = kernel.sim
        self._token_counter = kernel.sim.ids.rpc_token
        self.params = kernel.params
        self.funcs: Dict[int, Store] = {}
        self.client_rings: Dict[int, _ClientRing] = {}
        self._binding: Dict[int, object] = {}  # in-flight bind events
        self.server_rings: Dict[int, _ServerRing] = {}
        self.pending: Dict[int, _PendingCall] = {}
        self.calls_sent = 0
        self.calls_served = 0
        self.calls_retried = 0
        self.duplicates_suppressed = 0
        self.replies_dropped = 0
        # Idempotent-retry guards: (client_id, token) -> (reply_addr,
        # reply payload) for answered calls; in-flight tokens for calls
        # still being served.
        self._reply_cache = LruDict(_REPLY_CACHE_MAX, name="rpc-reply")
        self._inflight: set = set()

    # ------------------------------------------------------------------
    # Registration / binding
    # ------------------------------------------------------------------
    def register(self, func_id: int) -> None:
        """Make ``func_id`` receivable on this node (LT_regRPC)."""
        self.funcs.setdefault(func_id, Store(self.sim))

    def server_bind(self, client_id: int, client_head_slot_addr: int) -> int:
        """Allocate this client's ring (runs at the server; returns addr)."""
        existing = self.server_rings.get(client_id)
        if existing is not None:
            return existing.region.addr
        region = self.kernel.node.memory.alloc(self.params.lite_rpc_ring_bytes)
        self.server_rings[client_id] = _ServerRing(
            client_id, region, client_head_slot_addr
        )
        return region.addr

    def _ensure_ring(self, server_id: int):
        """Bind to the server's ring on first use (generator)."""
        ring = self.client_rings.get(server_id)
        if ring is not None:
            return ring
        in_flight = self._binding.get(server_id)
        if in_flight is not None:
            yield in_flight
            # The binder may have failed; re-resolve (and possibly
            # re-bind) rather than assuming the ring exists.
            ring = yield from self._ensure_ring(server_id)
            return ring
        gate = self.sim.event()
        self._binding[server_id] = gate
        head_region = self.kernel.node.memory.alloc(8)
        try:
            reply = yield from self.kernel.ctrl_request(
                server_id,
                {
                    "type": MsgType.RING_BIND,
                    "head_slot_addr": head_region.addr,
                },
            )
        except BaseException:
            # Unblock anybody who piled up behind this bind attempt
            # before propagating; they will re-try (or fail) themselves.
            del self._binding[server_id]
            self.kernel.node.memory.free(head_region)
            gate.succeed()
            raise
        ring = _ClientRing(
            server_id,
            reply["ring_addr"],
            self.params.lite_rpc_ring_bytes,
            head_region,
        )
        self.client_rings[server_id] = ring
        del self._binding[server_id]
        gate.succeed()
        return ring

    # ------------------------------------------------------------------
    # Client side
    # ------------------------------------------------------------------
    def _append_request(self, ring, server_id: int, func_id: int,
                        payload: bytes, msg_len: int, priority: int,
                        deadline: Optional[float]):
        """Land one request copy in the server's ring (generator).

        Flow control waits for the server's head-pointer updates; with a
        ``deadline`` the wait is bounded (a dead server stops advancing
        its head, and waiting forever would turn a crash into a hang).
        """
        tracer = self.sim.tracer
        span = (tracer.begin("rpc.append", node=self.kernel.lite_id,
                             nbytes=msg_len, dst=server_id)
                if tracer is not None else None)
        try:
            while ring.free_space() < msg_len:
                if deadline is not None and self.sim.now >= deadline:
                    raise RpcTimeoutError(
                        f"RPC to LITE {server_id}: ring full and server "
                        f"head pointer stalled"
                    )
                yield self.sim.timeout(1.0)
            pos = ring.tail_virtual % ring.size
            ring.tail_virtual += msg_len
            imm = pack_request_imm(func_id, pos)
            kernel = self.kernel
            first_len = min(ring.size - pos, msg_len)
            if first_len < msg_len:
                # Wraps the physical end: land the first piece before the
                # imm-carrying remainder (ordering, rare).
                yield from kernel.onesided.raw_write(
                    server_id, ring.ring_addr + pos, payload[:first_len],
                    signaled=False, priority=priority,
                )
                kernel.onesided.raw_write_async(
                    server_id, ring.ring_addr, payload[first_len:], imm=imm,
                    priority=priority,
                )
            else:
                kernel.onesided.raw_write_async(
                    server_id, ring.ring_addr + pos, payload, imm=imm,
                    priority=priority,
                )
        except BaseException as exc:
            if span is not None:
                tracer.end(span, outcome="err:" + type(exc).__name__)
            raise
        if span is not None:
            tracer.end(span)

    def call(
        self,
        server_id: int,
        func_id: int,
        input_bytes: bytes,
        max_reply: int = 4096,
        priority: int = 0,
        timeout: Optional[float] = None,
        retries: int = 0,
        waiter: Optional[Callable] = None,
    ):
        """LT_RPC kernel path (generator; returns the reply bytes).

        With a ``timeout``, up to ``retries`` same-token resends follow
        the first attempt, each with a doubled wait window (capped at
        8x); the server's reply cache makes retries idempotent.  Without
        a timeout the call waits forever (seed behavior).

        Errno contract (docs/API.md): a server the keep-alive layer has
        already declared dead fails fast with ``ENODEV`` — no point
        burning the whole retry schedule; an unresponsive-but-not-yet-
        declared server exhausts its windows and raises the retryable
        ``ETIMEDOUT`` (the peer may be promoted/resurrected meanwhile).
        """
        kernel = self.kernel
        if timeout is not None:
            info = kernel.peers.get(server_id)
            if info is not None and not info.alive:
                raise LiteError(
                    f"RPC to LITE {server_id}: peer is marked dead",
                    errno=ENODEV,
                )
        yield from kernel.qos.gate(priority)
        call_start = self.sim.now
        ring = yield from self._ensure_ring(server_id)
        msg_len = REQ_HEADER_BYTES + len(input_bytes)
        if msg_len > ring.size:
            raise ValueError(f"RPC input of {len(input_bytes)} B exceeds ring size")
        token = next(self._token_counter) & MAX_TOKEN
        reply_region = kernel.node.memory.alloc(REPLY_HEADER_BYTES + max_reply)
        header = struct.pack(
            "<QIII", reply_region.addr, token, len(input_bytes), max_reply
        )
        payload = header + input_bytes
        pending = _PendingCall(self.sim.event(), reply_region, token)
        self.pending[token] = pending
        attempts = 1 if timeout is None else max(retries, 0) + 1
        try:
            window = timeout
            for attempt in range(attempts):
                deadline = None if timeout is None else self.sim.now + window
                sent = True
                try:
                    yield from self._append_request(
                        ring, server_id, func_id, payload, msg_len, priority,
                        deadline,
                    )
                except LiteError:
                    # Transport refused outright (dead peer, stalled
                    # ring): burn this attempt, back off, try again.
                    sent = False
                if attempt == 0:
                    self.calls_sent += 1
                else:
                    self.calls_retried += 1
                # Wait for the reply write-imm; send state is never
                # polled (§5.1).
                tracer = self.sim.tracer
                wspan = (tracer.begin("rpc.wait", node=kernel.lite_id,
                                      dst=server_id)
                         if tracer is not None else None)
                if timeout is None:
                    if waiter is None:
                        yield pending.event
                    else:
                        yield from waiter(pending.event)
                elif sent:
                    timer = self.sim.timeout(
                        max(deadline - self.sim.now, 0.0)
                    )
                    wait_target = self.sim.any_of([pending.event, timer])
                    if waiter is None:
                        yield wait_target
                    else:
                        yield from waiter(wait_target)
                    if pending.event.triggered:
                        timer.cancel()
                elif self.sim.now < deadline:
                    yield self.sim.timeout(deadline - self.sim.now)
                if wspan is not None:
                    tracer.end(wspan, outcome=(
                        "reply" if pending.event.triggered else "timeout"
                    ))
                if pending.event.triggered:
                    break
                window = min(window * 2, timeout * 8)
            if not pending.event.triggered:
                raise RpcTimeoutError(
                    f"RPC {func_id} to LITE {server_id}: no reply after "
                    f"{attempts} attempt(s) ({timeout} us base window)"
                )
            status, length = struct.unpack(
                "<II", reply_region.read(0, REPLY_HEADER_BYTES)
            )
            data = reply_region.read(REPLY_HEADER_BYTES, length) if length else b""
        finally:
            self.pending.pop(token, None)
            kernel.node.memory.free(reply_region)
        if status == _STATUS_NO_FUNC:
            raise RpcError(f"no RPC function {func_id} at LITE {server_id}")
        if status == _STATUS_REPLY_TOO_BIG:
            raise RpcError("RPC reply exceeded the caller's max_reply")
        kernel.qos.observe(priority, self.sim.now - call_start)
        return data

    # ------------------------------------------------------------------
    # Poller dispatch (both directions)
    # ------------------------------------------------------------------
    def handle_imm(self, wc) -> None:
        """Poller dispatch: route an IMM CQE (request or reply)."""
        kind, func_id, value = unpack_imm(wc.imm)
        if kind == IMM_KIND_REQUEST:
            self._handle_request(wc, func_id, value)
        elif kind == IMM_KIND_REPLY:
            self._handle_reply(value)

    def _handle_request(self, wc, func_id: int, pos: int) -> None:
        client_id = self.kernel.node_to_lite.get(wc.src_node)
        ring = self.server_rings.get(client_id)
        if ring is None:
            return  # stale traffic from an unbound client
        header = ring.read_wrapped(pos, REQ_HEADER_BYTES)
        reply_addr, token, input_len, max_reply = struct.unpack("<QIII", header)
        input_bytes = ring.read_wrapped(pos + REQ_HEADER_BYTES, input_len)
        msg_len = REQ_HEADER_BYTES + input_len
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.instant("rpc.request.arrive", node=self.kernel.lite_id,
                           nbytes=msg_len, func=func_id)
        ring.head_virtual += msg_len
        ring.bytes_received += msg_len
        # Background header-pointer update to the client (step f).
        try:
            self.kernel.onesided.raw_write_async(
                client_id,
                ring.client_head_slot_addr,
                struct.pack("<Q", ring.head_virtual),
            )
        except LiteError:
            # The requester got dead-marked (e.g. we just restarted and
            # have not re-learned our peers) between its send and our
            # dispatch.  A server must never die for it: drop the update
            # and let the client's retry path — and the reply cache —
            # pick up the pieces.
            self.replies_dropped += 1
            return
        # Same-token duplicate (a client retry that crossed our reply or
        # arrived while the handler still runs) must not invoke the
        # handler twice: answer from the reply cache or drop it.
        key = (client_id, token)
        cached = self._reply_cache.get(key)
        if cached is not None:
            cached_addr, cached_payload = cached
            self.duplicates_suppressed += 1
            self._send_reply(client_id, cached_addr, cached_payload, token)
            return
        if key in self._inflight:
            self.duplicates_suppressed += 1
            return
        call = RpcCall(
            func_id, client_id, input_bytes, reply_addr, token, max_reply,
            self.sim.now,
        )
        store = self.funcs.get(func_id)
        if store is None:
            # Unknown function: error reply straight from the kernel.
            payload = struct.pack("<II", _STATUS_NO_FUNC, 0)
            self._cache_reply(key, reply_addr, payload)
            self._send_reply(client_id, reply_addr, payload, token)
            return
        self._inflight.add(key)
        store.put(call)

    def _send_reply(self, client_id: int, reply_addr: int, payload: bytes,
                    token: int) -> None:
        """Write a reply: one fire-and-forget WRITE_IMM to the client."""
        try:
            self.kernel.onesided.raw_write_async(
                client_id, reply_addr, payload, imm=pack_reply_imm(token)
            )
        except LiteError:
            # Requester dead-marked between request arrival and reply
            # send (keep-alive verdict, or we restarted mid-exchange).
            # Dropping is the wire truth — the reply cache still holds
            # the payload, so a live client's retry is answered without
            # re-running the handler.
            self.replies_dropped += 1

    def _cache_reply(self, key: tuple, reply_addr: int, payload: bytes) -> None:
        """Remember a reply for duplicate suppression (bounded, FIFO-evict)."""
        self._inflight.discard(key)
        self._reply_cache.put(key, (reply_addr, payload))

    def _handle_reply(self, token: int) -> None:
        pending = self.pending.pop(token, None)
        if pending is not None:
            pending.event.succeed()

    # ------------------------------------------------------------------
    # Server side
    # ------------------------------------------------------------------
    def wait_call(self, func_id: int):
        """Event firing with the next RpcCall for ``func_id``."""
        store = self.funcs.get(func_id)
        if store is None:
            raise RpcError(f"RPC function {func_id} is not registered here")
        return store.get()

    def finish_recv(self, call: RpcCall):
        """Kernel half of LT_recvRPC: stack cost + the single data move."""
        cost = self.params.lite_recv_stack_us
        cost += len(call.input) / self.params.memcpy_bytes_per_us
        tracer = self.sim.tracer
        span = (tracer.begin("rpc.recv_stack", node=self.kernel.lite_id,
                             nbytes=len(call.input))
                if tracer is not None else None)
        yield self.sim.timeout(cost)
        self.kernel.node.cpu.charge("lite-rpc-recv", cost)
        self.calls_served += 1
        if span is not None:
            tracer.end(span)
        return call

    def reply(self, call: RpcCall, data: bytes):
        """LT_replyRPC kernel path (generator; does not wait for wire)."""
        if call.replied:
            raise RpcError("RPC call already replied")
        call.replied = True
        tracer = self.sim.tracer
        span = (tracer.begin("rpc.reply_stack", node=self.kernel.lite_id,
                             nbytes=len(data))
                if tracer is not None else None)
        yield self.sim.timeout(self.params.lite_reply_stack_us)
        self.kernel.node.cpu.charge("lite-rpc-reply", self.params.lite_reply_stack_us)
        key = (call.client_id, call.token)
        if len(data) > call.max_reply:
            payload = struct.pack("<II", _STATUS_REPLY_TOO_BIG, 0)
        else:
            payload = struct.pack("<II", _STATUS_OK, len(data)) + data
        self._cache_reply(key, call.reply_addr, payload)
        self._send_reply(call.client_id, call.reply_addr, payload, call.token)
        if span is not None:
            tracer.end(span)
