"""The LITE public API: Table 1 of the paper, as a per-process context.

A :class:`LiteContext` is what a user process holds after ``LT_join``.
Every call is a simulation generator: ``yield from ctx.lt_write(...)``.
User-level contexts pay the optimized syscall model of §5.2 (one entry
crossing + a shared-page return, adaptive busy-check-then-sleep waits);
kernel-level contexts (``kernel_level=True``) skip crossings entirely,
which is the "LITE KL" line in Figures 6 and 10.
"""

from __future__ import annotations

import base64
from typing import List, Optional, Sequence, Union

from ..obs.trace import traced_op
from ..verbs import Access, Opcode, SendWR, Sge
from ..verbs.wr import WORD_MASK
from .errors import ECONNRESET
from .kernel import LiteError, LiteKernel
from .lmr import ChunkInfo, LmrHandle, MappedLmr, MasterRecord, Permission
from .protocol import MsgType

__all__ = ["ClientSession", "LiteContext", "LiteLock", "lite_boot",
           "rpc_server_loop"]


class LiteLock:
    """A distributed lock: an 8-byte word LMR plus its owner's FIFO queue."""

    def __init__(self, name: str, owner_id: int, handle: LmrHandle):
        self.name = name
        self.owner_id = owner_id
        self.handle = handle

    def __repr__(self) -> str:
        return f"LiteLock({self.name!r}@{self.owner_id})"


class LiteContext:
    """One user (or kernel) process's view of LITE on a node."""

    def __init__(
        self,
        kernel: LiteKernel,
        principal: str = "",
        priority: int = 0,
        kernel_level: bool = False,
    ):
        if not kernel.booted:
            raise LiteError("LITE is not booted on this node (call boot first)")
        self.kernel = kernel
        self.sim = kernel.sim
        self.params = kernel.params
        self.principal = principal or f"proc{next(self.sim.ids.anon)}"
        self.priority = priority
        self.kernel_level = kernel_level
        self._tag = f"lite-user:{self.principal}"

    @property
    def lite_id(self) -> int:
        """This context's node id in the LITE cluster."""
        return self.kernel.lite_id

    # ------------------------------------------------------------------
    # Syscall model (§5.2)
    # ------------------------------------------------------------------
    def _enter(self):
        if self.kernel_level:
            return
        cost = self.params.lite_syscall_enter_us
        tracer = self.sim.tracer
        span = (tracer.begin("syscall.crossing", node=self.kernel.lite_id,
                             direction="enter")
                if tracer is not None else None)
        yield self.sim.timeout(cost)
        self.kernel.node.cpu.charge(self._tag, cost)
        if span is not None:
            tracer.end(span)

    def _exit(self):
        if self.kernel_level:
            return
        cost = self.params.lite_sharedpage_return_us
        tracer = self.sim.tracer
        span = (tracer.begin("syscall.crossing", node=self.kernel.lite_id,
                             direction="return")
                if tracer is not None else None)
        yield self.sim.timeout(cost)
        self.kernel.node.cpu.charge(self._tag, cost)
        if span is not None:
            tracer.end(span)

    def _waiter(self):
        """Reply-wait strategy: adaptive for user level, plain in kernel."""
        if self.kernel_level:
            return None
        cpu = self.kernel.node.cpu
        tag = self._tag

        def wait(event):
            value = yield from cpu.adaptive_wait(event, tag=tag)
            return value

        return wait

    def _metadata(self):
        """Kernel-side lh mapping + permission check cost (§5.3)."""
        cost = self.params.lite_metadata_us
        tracer = self.sim.tracer
        span = (tracer.begin("kernel.lookup", node=self.kernel.lite_id)
                if tracer is not None else None)
        yield self.sim.timeout(cost)
        self.kernel.node.cpu.charge("lite-meta", cost)
        if span is not None:
            tracer.end(span)

    # ------------------------------------------------------------------
    # Memory management: LT_malloc / LT_free / LT_map / LT_unmap
    # ------------------------------------------------------------------
    @traced_op("op.lt_malloc", nbytes=lambda a: a[0])
    def lt_malloc(
        self,
        size: int,
        name: Optional[str] = None,
        nodes: Optional[Union[int, Sequence[int]]] = None,
        default_perm: Permission = Permission.NONE,
        replicas: int = 0,
    ):
        """Allocate an LMR (generator; returns a master lh).

        ``nodes`` selects where the memory lives: one LITE id, a list
        (the LMR is spread evenly across them, §4.1), or None for the
        local node.  Only a master may later move/free it.

        ``replicas=k`` keeps ``k`` full backup copies on nodes outside
        the primary placement: every acked ``lt_write`` has reached all
        live backups, so a crash of the primary loses no committed data
        (docs/INTERNALS.md §14).  Reads are served by the primary only.
        """
        if size <= 0:
            raise ValueError(f"LMR size must be positive, got {size}")
        kernel = self.kernel
        if nodes is None:
            node_list: List[int] = [kernel.lite_id]
        elif isinstance(nodes, int):
            node_list = [nodes]
        else:
            node_list = list(nodes)
        if not node_list:
            raise ValueError("lt_malloc needs at least one target node")
        backup_ids: List[int] = []
        if replicas:
            candidates = [lite_id for lite_id in sorted(kernel.manager.members)
                          if lite_id not in node_list]
            if len(candidates) < replicas:
                raise LiteError(
                    f"replicas={replicas} needs {replicas} node(s) outside the "
                    f"primary placement; only {len(candidates)} available"
                )
            backup_ids = candidates[:replicas]
        yield from self._enter()
        yield from self._metadata()
        shares = self._split_evenly(size, len(node_list))
        chunks: List[ChunkInfo] = []
        for target, share in zip(node_list, shares):
            chunks.extend((yield from self._alloc_on(target, share)))
        replica_chunks = {}
        for backup in backup_ids:
            replica_chunks[backup] = yield from self._alloc_on(backup, size)
        ids = self.sim.ids
        lmr_name = name if name is not None else f"__anon:{next(ids.anon)}"
        record = MasterRecord(next(ids.lmr), lmr_name, size, chunks,
                              creator=self.principal, default_perm=default_perm)
        record.replicas = replica_chunks
        kernel.registry[lmr_name] = record
        kernel._records_by_id[record.lmr_id] = record
        if name is not None:
            kernel.manager.register_name(name, kernel.lite_id)
        if replica_chunks:
            kernel.manager.register_replicated(
                record.lmr_id, lmr_name, size, kernel.lite_id,
                [c.to_wire() for c in chunks],
                {b: [c.to_wire() for c in bchunks]
                 for b, bchunks in replica_chunks.items()},
                self.principal, default_perm=default_perm.value,
            )
        mapping = MappedLmr(record.lmr_id, lmr_name, size, chunks, kernel.lite_id,
                            replica_chunks=dict(replica_chunks))
        kernel.mappings_by_lmr.setdefault(record.lmr_id, []).append(mapping)
        handle = LmrHandle(self, mapping, Permission.full())
        yield from self._exit()
        return handle

    @staticmethod
    def _split_evenly(size: int, parts: int) -> List[int]:
        base, extra = divmod(size, parts)
        return [base + (1 if index < extra else 0) for index in range(parts)]

    def _alloc_on(self, target: int, share: int):
        """``share`` bytes of fresh chunks on LITE ``target`` (generator)."""
        kernel = self.kernel
        if target == kernel.lite_id:
            yield from kernel.node.cpu.execute(
                kernel._alloc_cost(share), tag="lite-mgmt"
            )
            return (yield from kernel.alloc_chunks(share))
        reply = yield from kernel.ctrl_request(
            target, {"type": MsgType.ALLOC, "size": share}
        )
        return [ChunkInfo.from_wire(w) for w in reply["chunks"]]

    def _free_chunks(self, chunks):
        """Release physical chunks, grouped per owner node (generator)."""
        kernel = self.kernel
        by_node = {}
        for chunk in chunks:
            by_node.setdefault(chunk.node_id, []).append(chunk)
        for node_id, node_chunks in by_node.items():
            if node_id == kernel.lite_id:
                for chunk in node_chunks:
                    yield from kernel.free_chunk(chunk)
            else:
                yield from kernel.ctrl_request(
                    node_id,
                    {"type": MsgType.FREE_CHUNKS,
                     "chunks": [c.to_wire() for c in node_chunks]},
                )

    @traced_op("op.lt_free")
    def lt_free(self, lh: LmrHandle):
        """Free an LMR (generator).  Requires MASTER; notifies mappers."""
        mapping = lh.require(self, Permission.MASTER)
        kernel = self.kernel
        record = kernel.registry.get(mapping.name)
        if record is None or record.lmr_id != mapping.lmr_id:
            raise LiteError(
                "lt_free must run on the master node holding the LMR record"
            )
        yield from self._enter()
        yield from self._metadata()
        record.freed = True
        kernel.registry.pop(mapping.name, None)
        kernel._records_by_id.pop(record.lmr_id, None)
        kernel.manager.drop_name(mapping.name)
        # Invalidate everyone who mapped it.
        for peer_id in list(record.mapped_by):
            if peer_id != kernel.lite_id:
                kernel.ctrl_send(
                    peer_id,
                    {"type": MsgType.FREE_NOTIFY, "lmr_id": record.lmr_id,
                     "src": kernel.lite_id},
                )
        for local_map in kernel.mappings_by_lmr.pop(record.lmr_id, []):
            local_map.valid = False
        kernel.manager.drop_replicated(record.lmr_id)
        # Backup copies are freed alongside the primary.
        yield from self._free_chunks(
            record.chunks
            + [c for bchunks in record.replicas.values() for c in bchunks]
        )
        lh.valid = False
        yield from self._exit()

    @traced_op("op.lt_map")
    def lt_map(self, name: str, perm: Permission = Permission.READ | Permission.WRITE):
        """Open an LMR by name (generator; returns a fresh lh, §4.1)."""
        kernel = self.kernel
        yield from self._enter()
        yield from self._metadata()
        try:
            master_id = kernel.manager.lookup_name(name)
        except KeyError as exc:
            raise LiteError(str(exc)) from None
        if master_id == kernel.lite_id:
            record = kernel.registry.get(name)
            if record is None or record.freed:
                raise LiteError(f"no LMR named {name!r}")
            if not record.check(self.principal, perm):
                raise LiteError(f"permission denied for {self.principal!r}")
            record.add_mapper(kernel.lite_id)
            mapping = MappedLmr(
                record.lmr_id, name, record.size, record.chunks, master_id,
                replica_chunks={b: list(bchunks)
                                for b, bchunks in record.replicas.items()},
            )
        else:
            reply = yield from kernel.ctrl_request(
                master_id,
                {"type": MsgType.MAP, "name": name,
                 "principal": self.principal, "perm": perm.value},
            )
            mapping = MappedLmr(
                reply["lmr_id"],
                name,
                reply["size"],
                [ChunkInfo.from_wire(w) for w in reply["chunks"]],
                master_id,
                replica_chunks={
                    int(b): [ChunkInfo.from_wire(w) for w in bchunks]
                    for b, bchunks in reply.get("replicas", {}).items()
                },
            )
        kernel.mappings_by_lmr.setdefault(mapping.lmr_id, []).append(mapping)
        handle = LmrHandle(self, mapping, perm)
        yield from self._exit()
        return handle

    @traced_op("op.lt_unmap")
    def lt_unmap(self, lh: LmrHandle):
        """Close an lh: drop local metadata, tell the master (generator)."""
        mapping = lh.require(self, Permission.NONE)
        kernel = self.kernel
        yield from self._enter()
        yield from self._metadata()
        lh.valid = False
        local_maps = kernel.mappings_by_lmr.get(mapping.lmr_id, [])
        if mapping in local_maps:
            local_maps.remove(mapping)
        if mapping.master_id != kernel.lite_id:
            kernel.ctrl_send(
                mapping.master_id,
                {"type": MsgType.UNMAP_NOTIFY, "lmr_id": mapping.lmr_id,
                 "src": kernel.lite_id},
            )
        else:
            record = kernel._records_by_id.get(mapping.lmr_id)
            if record is not None and not local_maps:
                record.drop_mapper(kernel.lite_id)
        yield from self._exit()

    @traced_op("op.lt_move")
    def lt_move(self, lh: LmrHandle, new_nodes: Union[int, Sequence[int]]):
        """Master API (§4.1): migrate an LMR's data to other node(s).

        Allocates fresh chunks at the destination, copies the contents
        through one-sided ops, atomically retargets the master record,
        pushes the new chunk map to every node that has the LMR mapped
        (their lhs keep working transparently), then frees the old
        chunks.  Generator.
        """
        mapping = lh.require(self, Permission.MASTER)
        kernel = self.kernel
        record = kernel.registry.get(mapping.name)
        if record is None or record.lmr_id != mapping.lmr_id:
            raise LiteError(
                "lt_move must run on the master node holding the LMR record"
            )
        node_list = [new_nodes] if isinstance(new_nodes, int) else list(new_nodes)
        if not node_list:
            raise ValueError("lt_move needs at least one destination node")
        yield from self._enter()
        yield from self._metadata()
        old_chunks = list(record.chunks)
        # 1. Allocate destination chunks.
        new_chunks: List[ChunkInfo] = []
        for target, share in zip(node_list,
                                 self._split_evenly(record.size, len(node_list))):
            new_chunks.extend((yield from self._alloc_on(target, share)))
        # 2. Copy the data (read old, write new), 4 MB at a time.
        old_map = MappedLmr(0, "", record.size, old_chunks, 0)
        new_map = MappedLmr(0, "", record.size, new_chunks, 0)
        stride = self.params.lite_chunk_bytes
        cursor = 0
        while cursor < record.size:
            span = min(stride, record.size - cursor)
            data = yield from kernel.onesided.read(old_map, cursor, span)
            yield from kernel.onesided.write(new_map, cursor, data)
            cursor += span
        # 3. Retarget the record and every mapping, everywhere.
        record.chunks = new_chunks
        for local_map in kernel.mappings_by_lmr.get(record.lmr_id, []):
            local_map.retarget(new_chunks)
        wire_chunks = [c.to_wire() for c in new_chunks]
        procs = []
        for peer_id in list(record.mapped_by):
            if peer_id == kernel.lite_id:
                continue
            procs.append(
                self.sim.process(
                    kernel.ctrl_request(
                        peer_id,
                        {"type": MsgType.CHUNKS_UPDATE,
                         "lmr_id": record.lmr_id, "chunks": wire_chunks},
                    )
                )
            )
        if procs:
            yield self.sim.all_of(procs)
        # 4. Free the old chunks.
        yield from self._free_chunks(old_chunks)
        yield from self._exit()

    @traced_op("op.lt_grant")
    def lt_grant(self, name: str, grantee: str, perm: Permission):
        """Master API: grant ``perm`` on LMR ``name`` to another principal."""
        kernel = self.kernel
        yield from self._enter()
        master_id = kernel.manager.lookup_name(name)
        if master_id == kernel.lite_id:
            record = kernel.registry[name]
            if not record.check(self.principal, Permission.MASTER):
                raise LiteError("only a master may grant permissions")
            record.grant(grantee, perm)
        else:
            yield from kernel.ctrl_request(
                master_id,
                {"type": MsgType.GRANT, "name": name,
                 "principal": self.principal, "grantee": grantee,
                 "perm": perm.value},
            )
        yield from self._exit()

    # ------------------------------------------------------------------
    # One-sided memory ops: LT_read / LT_write
    # ------------------------------------------------------------------
    @traced_op("op.lt_write", nbytes=lambda a: len(a[2]))
    def lt_write(self, lh: LmrHandle, offset: int, data: bytes):
        """RDMA write into an LMR (generator; returns when data landed)."""
        mapping = lh.require(self, Permission.WRITE)
        yield from self._enter()
        yield from self._metadata()
        yield from self.kernel.onesided.write(mapping, offset, data, self.priority)
        yield from self._exit()

    @traced_op("op.lt_read", nbytes=lambda a: a[2])
    def lt_read(self, lh: LmrHandle, offset: int, nbytes: int):
        """RDMA read from an LMR (generator; returns the bytes)."""
        mapping = lh.require(self, Permission.READ)
        yield from self._enter()
        yield from self._metadata()
        data = yield from self.kernel.onesided.read(
            mapping, offset, nbytes, self.priority
        )
        yield from self._exit()
        return data

    # ------------------------------------------------------------------
    # Memory-like extended ops (§7.1)
    # ------------------------------------------------------------------
    @traced_op("op.lt_memset", nbytes=lambda a: a[3])
    def lt_memset(self, lh: LmrHandle, offset: int, value: int, nbytes: int):
        """Set a range of an LMR to ``value`` (executed at the data)."""
        mapping = lh.require(self, Permission.WRITE)
        if offset + nbytes > mapping.size:
            raise ValueError("memset range outside LMR")
        kernel = self.kernel
        yield from self._enter()
        yield from self._metadata()
        executor = mapping.chunks[0].node_id
        msg = {
            "type": MsgType.MEMSET,
            "chunks": [c.to_wire() for c in mapping.chunks],
            "offset": offset,
            "value": value & 0xFF,
            "nbytes": nbytes,
        }
        if executor == kernel.lite_id:
            yield from kernel.node.cpu.execute(
                nbytes / self.params.memset_bytes_per_us, tag="lite-mgmt"
            )
            for chunk, chunk_off, piece, _ in mapping.plan(offset, nbytes):
                kernel._local_chunk_write(chunk, chunk_off, bytes([value & 0xFF]) * piece)
        else:
            yield from kernel.ctrl_request(executor, msg)
        yield from self._exit()

    @traced_op("op.lt_memcpy", nbytes=lambda a: a[4])
    def lt_memcpy(self, src: LmrHandle, src_off: int, dst: LmrHandle,
                  dst_off: int, nbytes: int):
        """Copy between LMRs; routed to the node holding the source (§7.1)."""
        src_map = src.require(self, Permission.READ)
        dst_map = dst.require(self, Permission.WRITE)
        kernel = self.kernel
        yield from self._enter()
        yield from self._metadata()
        src_nodes = {c.node_id for c in src_map.chunks}
        if len(src_nodes) == 1:
            executor = next(iter(src_nodes))
            if executor == kernel.lite_id:
                data = yield from kernel.onesided.read(src_map, src_off, nbytes)
                yield from kernel.onesided.write(dst_map, dst_off, data)
            else:
                yield from kernel.ctrl_request(
                    executor,
                    {
                        "type": MsgType.MEMCPY,
                        "src_chunks": [c.to_wire() for c in src_map.chunks],
                        "dst_chunks": [c.to_wire() for c in dst_map.chunks],
                        "src_off": src_off,
                        "dst_off": dst_off,
                        "nbytes": nbytes,
                    },
                )
        else:
            # Source spread across machines: pull then push.
            data = yield from kernel.onesided.read(src_map, src_off, nbytes)
            yield from kernel.onesided.write(dst_map, dst_off, data)
        yield from self._exit()

    @traced_op("op.lt_memmove", nbytes=lambda a: a[4])
    def lt_memmove(self, src: LmrHandle, src_off: int, dst: LmrHandle,
                   dst_off: int, nbytes: int):
        """Same data motion as lt_memcpy (overlap-safe by gather-then-write)."""
        yield from self.lt_memcpy(src, src_off, dst, dst_off, nbytes)

    # ------------------------------------------------------------------
    # RPC and messaging (§5)
    # ------------------------------------------------------------------
    def lt_reg_rpc(self, func_id: int) -> None:
        """LT_regRPC: make ``func_id`` receivable on this node."""
        self.kernel.rpc.register(func_id)

    @traced_op("op.lt_rpc", nbytes=lambda a: len(a[2]))
    def lt_rpc(self, server_id: int, func_id: int, data: bytes,
               max_reply: int = 4096, timeout: Optional[float] = None,
               retries: int = 0):
        """LT_RPC: call ``func_id`` at ``server_id`` (generator; returns reply).

        With a ``timeout``, up to ``retries`` same-token resends are
        attempted before :class:`RpcTimeoutError`; the server suppresses
        duplicates, so retries are safe for non-idempotent handlers.
        """
        yield from self._enter()
        yield from self._metadata()
        reply = yield from self.kernel.rpc.call(
            server_id, func_id, data, max_reply=max_reply,
            priority=self.priority, timeout=timeout, retries=retries,
            waiter=self._waiter(),
        )
        yield from self._exit()
        return reply

    @traced_op("op.lt_multicast_rpc", nbytes=lambda a: len(a[2]))
    def lt_multicast_rpc(self, server_ids: Sequence[int], func_id: int,
                         data: bytes, max_reply: int = 4096):
        """Extension (§8.4): the same RPC to many servers, gather replies."""
        yield from self._enter()
        yield from self._metadata()
        procs = [
            self.sim.process(
                self.kernel.rpc.call(
                    server, func_id, data, max_reply=max_reply,
                    priority=self.priority,
                )
            )
            for server in server_ids
        ]
        results = yield self.sim.all_of(procs)
        yield from self._exit()
        return [results[index] for index in range(len(server_ids))]

    @traced_op("op.lt_recv_rpc")
    def lt_recv_rpc(self, func_id: int):
        """LT_recvRPC: block for the next call to ``func_id`` (generator)."""
        yield from self._enter()
        event = self.kernel.rpc.wait_call(func_id)
        waiter = self._waiter()
        if waiter is None:
            call = yield event
        else:
            call = yield from waiter(event)
        yield from self.kernel.rpc.finish_recv(call)
        yield from self._exit()
        return call

    @traced_op("op.lt_reply_rpc", nbytes=lambda a: len(a[1]))
    def lt_reply_rpc(self, call, data: bytes):
        """LT_replyRPC: send the return value (generator; does not wait)."""
        yield from self._enter()
        yield from self.kernel.rpc.reply(call, data)
        yield from self._exit()

    @traced_op("op.lt_reply_recv", nbytes=lambda a: len(a[1]))
    def lt_reply_recv(self, call, data: bytes, func_id: int):
        """Optimized reply-then-receive (§5.2): one crossing for both."""
        yield from self._enter()
        yield from self.kernel.rpc.reply(call, data)
        event = self.kernel.rpc.wait_call(func_id)
        waiter = self._waiter()
        if waiter is None:
            next_call = yield event
        else:
            next_call = yield from waiter(event)
        yield from self.kernel.rpc.finish_recv(next_call)
        yield from self._exit()
        return next_call

    @traced_op("op.lt_send", nbytes=lambda a: len(a[1]))
    def lt_send(self, dst_id: int, data: bytes):
        """LT_send: one-way message to a remote node (generator)."""
        yield from self._enter()
        self.kernel.ctrl_send(
            dst_id,
            {"type": MsgType.USER_MSG, "src": self.kernel.lite_id,
             "data": base64.b64encode(data).decode()},
            ordered=True,
        )
        yield from self._exit()

    @traced_op("op.lt_recv_msg")
    def lt_recv_msg(self):
        """Receive the next LT_send message: returns (src_id, bytes)."""
        yield from self._enter()
        item = yield self.kernel.user_inbox.get()
        yield from self._exit()
        return item

    # ------------------------------------------------------------------
    # Synchronization (§7.2)
    # ------------------------------------------------------------------
    def lt_create_lock(self, name: str, owner_id: Optional[int] = None):
        """Create a distributed lock (generator; returns LiteLock)."""
        owner = owner_id if owner_id is not None else self.kernel.lite_id
        handle = yield from self.lt_malloc(
            8, name=f"__lock:{name}", nodes=owner,
            default_perm=Permission.READ | Permission.WRITE,
        )
        yield from self.lt_memset(handle, 0, 0, 8)
        return LiteLock(name, owner, handle)

    def lt_open_lock(self, name: str):
        """Open an existing lock by name (generator; returns LiteLock)."""
        handle = yield from self.lt_map(
            f"__lock:{name}", Permission.READ | Permission.WRITE
        )
        owner = handle.mapping.chunks[0].node_id
        return LiteLock(name, owner, handle)

    @traced_op("op.lt_lock")
    def lt_lock(self, lock: LiteLock):
        """Acquire: one fetch-add fast path, FIFO wait queue otherwise."""
        mapping = lock.handle.require(self, Permission.WRITE)
        yield from self._enter()
        old = yield from self.kernel.onesided.fetch_add(mapping, 0, 1, self.priority)
        if old != 0:
            if lock.owner_id == self.kernel.lite_id:
                granted = self.kernel.sync.lock_wait(lock.name)
                yield granted
            else:
                yield from self.kernel.ctrl_request(
                    lock.owner_id, {"type": MsgType.LOCK_WAIT, "lock": lock.name}
                )
        yield from self._exit()

    @traced_op("op.lt_unlock")
    def lt_unlock(self, lock: LiteLock):
        """Release: decrement; wake the FIFO-next waiter if any."""
        mapping = lock.handle.require(self, Permission.WRITE)
        yield from self._enter()
        old = yield from self.kernel.onesided.fetch_add(
            mapping, 0, WORD_MASK, self.priority
        )
        if old == 0:
            raise LiteError(f"unlock of unheld lock {lock.name!r}")
        if old > 1:
            if lock.owner_id == self.kernel.lite_id:
                yield self.sim.timeout(self.params.lite_metadata_us)
                self.kernel.sync.lock_release(lock.name)
            else:
                yield from self.kernel.ctrl_request(
                    lock.owner_id, {"type": MsgType.LOCK_RELEASE, "lock": lock.name}
                )
        yield from self._exit()

    @traced_op("op.lt_barrier")
    def lt_barrier(self, name: str, n: int, owner_id: Optional[int] = None):
        """LT_barrier: wait until ``n`` participants reached ``name``."""
        owner = owner_id if owner_id is not None else min(
            self.kernel.manager.members
        )
        yield from self._enter()
        if owner == self.kernel.lite_id:
            released = self.kernel.sync.barrier_arrive(name, n)
            yield released
        else:
            yield from self.kernel.ctrl_request(
                owner, {"type": MsgType.BARRIER, "name": name, "n": n}
            )
        yield from self._exit()

    @traced_op("op.lt_fetch_add")
    def lt_fetch_add(self, lh: LmrHandle, offset: int, delta: int):
        """Atomic fetch-and-add on an 8-byte LMR word (generator)."""
        mapping = lh.require(self, Permission.WRITE)
        yield from self._enter()
        old = yield from self.kernel.onesided.fetch_add(
            mapping, offset, delta & WORD_MASK, self.priority
        )
        yield from self._exit()
        return old

    @traced_op("op.lt_test_set")
    def lt_test_set(self, lh: LmrHandle, offset: int, expected: int, value: int):
        """Atomic compare-and-swap on an 8-byte LMR word (generator)."""
        mapping = lh.require(self, Permission.WRITE)
        yield from self._enter()
        old = yield from self.kernel.onesided.cmp_swap(
            mapping, offset, expected, value, self.priority
        )
        yield from self._exit()
        return old


class ClientSession:
    """A short-lived logical client on a leased pooled connection.

    The unit of the elastic-churn scenario (INTERNALS §15): serverless
    or autoscaled clients arrive, issue a few ops, and leave, at a rate
    where *control-plane* cost — not data-plane latency — decides the
    time to first op.  ``attach()`` leases a reserved RC connection
    from the kernel's :class:`~repro.cluster.qp_pool.QPPool` toward the
    peer (pool hit: metadata-only grant) or pays the full cold
    bring-up (miss); ``write``/``read`` issue one-sided verbs ops
    against the pool's scratch window on the peer, renewing the lease
    each time; ``detach()`` deregisters the session MR and returns the
    conn to the pool.

    MR registration is **lazy** by default — the first op pays Fig 8's
    pin cost, keeping attach minimal — or **eager** with
    ``eager_mr=True``, moving that cost into attach so the first op is
    pure data plane.  The two knobs trade attach latency against
    time-to-first-op.
    """

    def __init__(self, ctx: LiteContext, peer_lite_id: int,
                 session_id: Optional[int] = None, eager_mr: bool = False,
                 buffer_bytes: int = 4096):
        self.ctx = ctx
        self.kernel = ctx.kernel
        self.sim = ctx.sim
        self.params = ctx.params
        self.peer_lite_id = peer_lite_id
        self.session_id = (next(self.sim.ids.session)
                           if session_id is None else session_id)
        self.eager_mr = eager_mr
        self.buffer_bytes = buffer_bytes
        self.pool = None
        self.conn = None
        self.source: Optional[str] = None    # "hit" | "cold"
        self.mr = None
        self.attach_at: Optional[float] = None    # attach start (sim us)
        self.attached_at: Optional[float] = None  # attach completion
        self.first_op_at: Optional[float] = None  # first op completion
        self.ops = 0

    @property
    def time_to_first_op(self) -> Optional[float]:
        """Attach-start to first-op-completion, or None before then."""
        if self.first_op_at is None or self.attach_at is None:
            return None
        return self.first_op_at - self.attach_at

    def attach(self):
        """Join: lease a conn — pool hit or cold bring-up (generator).

        Returns the lease source (``"hit"`` or ``"cold"``).
        """
        if self.conn is not None:
            raise LiteError(f"session {self.session_id} already attached")
        ctx = self.ctx
        self.attach_at = self.sim.now
        yield from ctx._enter()
        self.pool = self.kernel.qp_pool(self.peer_lite_id)
        self.conn, self.source = yield from self.pool.acquire(self.session_id)
        if self.eager_mr and self.mr is None:
            yield from self._register()
        yield from ctx._exit()
        self.attached_at = self.sim.now
        return self.source

    def _register(self):
        """Register the session's payload MR (Fig 8's base + pin cost)."""
        self.mr = yield from self.kernel.device.reg_mr(
            self.kernel.pd, self.buffer_bytes, Access.ALL
        )

    def write(self, data: bytes, remote_offset: int = 0):
        """One-sided WRITE of ``data`` into the peer scratch (generator)."""
        status = yield from self._op(Opcode.WRITE, len(data), data,
                                     remote_offset)
        return status

    def read(self, nbytes: int, remote_offset: int = 0):
        """One-sided READ from the peer scratch (generator)."""
        status = yield from self._op(Opcode.READ, nbytes, None, remote_offset)
        return status

    def _op(self, opcode, nbytes: int, data, remote_offset: int):
        if self.conn is None:
            raise LiteError(f"session {self.session_id} is not attached")
        pool = self.pool
        if remote_offset < 0 or remote_offset + nbytes > pool.scratch.size:
            raise ValueError("session op exceeds the peer scratch window")
        ctx = self.ctx
        yield from ctx._enter()
        if self.mr is None:
            # Lazy mode: the first op pays registration.
            yield from self._register()
        if data is not None:
            self.mr.write(0, data)
        if not pool.renew(self.session_id):
            # The lease expired (sweeper reclaimed the conn — it may
            # already be parked or granted to another session): the
            # session is revoked, never allowed to post on it again.
            yield from ctx._exit()
            raise LiteError(
                f"session {self.session_id} lease expired", errno=ECONNRESET
            )
        wr = SendWR(
            opcode,
            sgl=[Sge(self.mr, 0, nbytes)],
            remote_addr=pool.scratch.addr + remote_offset,
            rkey=pool.peer_rkey,
        )
        status = yield self.conn.qp.post_send(wr)
        yield from ctx._exit()
        self.ops += 1
        if self.first_op_at is None:
            self.first_op_at = self.sim.now
        return status

    def detach(self):
        """Leave: dereg the session MR and return the conn (generator).

        Returns True when the conn went back to the pool, False when
        the lease had already expired (the sweeper reclaimed it).
        """
        if self.conn is None:
            raise LiteError(f"session {self.session_id} is not attached")
        ctx = self.ctx
        yield from ctx._enter()
        if self.mr is not None:
            yield from self.kernel.device.dereg_mr(self.mr)
            self.mr = None
        released = self.pool.release(self.session_id)
        yield from ctx._exit()
        self.conn = None
        self.source = None
        return released

    def __repr__(self) -> str:
        state = "attached" if self.conn is not None else "detached"
        return (f"ClientSession({self.session_id}, peer={self.peer_lite_id}, "
                f"{state}, source={self.source}, ops={self.ops})")


def rpc_server_loop(ctx: LiteContext, func_id: int, handler):
    """Serve ``func_id`` forever with ``handler(input_bytes) -> bytes``.

    ``handler`` may be a plain function or a generator function (for
    handlers that consume simulated compute time).  Uses the optimized
    reply-and-receive path.
    """
    ctx.lt_reg_rpc(func_id)
    call = yield from ctx.lt_recv_rpc(func_id)
    while True:
        result = handler(call.input)
        if hasattr(result, "send"):
            result = yield from result
        call = yield from ctx.lt_reply_recv(call, result, func_id)


def lite_boot(cluster, qos_mode: Optional[str] = None,
              use_global_mr: bool = True) -> List[LiteKernel]:
    """Install and boot LITE on every node of a cluster, fully meshed.

    Runs the simulator through the boot phase; returns the kernels
    (index 0 has LITE id 1, etc.).  ``use_global_mr=False`` selects the
    per-LMR-MR ablation mode (DESIGN.md §6).
    """
    kernels = [
        LiteKernel(node, cluster.manager, qos_mode, use_global_mr=use_global_mr)
        for node in cluster.nodes
    ]

    def setup():
        for kernel in kernels:
            yield from kernel.boot()
        for index, kernel in enumerate(kernels):
            for other in kernels[index + 1:]:
                yield from kernel.connect(other)

    cluster.run_process(setup())
    return kernels
