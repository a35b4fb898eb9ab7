"""A sharded key-value store on LITE (the paper's motivating workload).

Combines the two classic RDMA-KV designs on top of LITE's abstraction
(cf. Pilaf's one-sided GETs and HERD's RPC path, both cited in §2.2):

- **PUT** is an LT_RPC to the key's shard server, which appends the
  value record to its value-log LMR and updates its index.
- **GET** is (after a one-time location lookup, cached client-side) a
  single **one-sided LT_read** of the value record — the server CPU is
  not involved.  Records are self-verifying (length + version + key
  tag), so a reader that races an overwrite detects the torn record and
  falls back to a fresh lookup RPC.

Because LITE virtualizes the value log as one LMR regardless of size,
the store needs none of the MR-count workarounds of §2.4.
"""

from __future__ import annotations

import json
import struct
import zlib
from typing import Dict, List, Optional, Tuple

from ..core import LiteContext, Permission, rpc_server_loop
from ..core.errors import ENODEV, LiteError

__all__ = ["LiteKVServer", "LiteKVClient", "kv_shard_of"]

_FUNC_KV = 30
_RECORD_HDR = struct.Struct("<IIQ")  # length(4) version(4) keytag(8)
_OPEN = Permission.READ | Permission.WRITE


def kv_shard_of(key: bytes, n_shards: int) -> int:
    """Shard index for a key, the same in every process (CRC-32, not
    the per-process salted ``hash``)."""
    return zlib.crc32(key) % n_shards


def _key_tag(key: bytes) -> int:
    tag = 1469598103934665603
    for byte in key:
        tag = ((tag ^ byte) * 1099511628211) & 0xFFFFFFFFFFFFFFFF
    return tag


class LiteKVServer:
    """One shard: a value-log LMR plus an in-memory index."""

    def __init__(self, kernel, shard_index: int, log_bytes: int = 4 << 20,
                 store_name: str = "kv", replicas: int = 0, log_nodes=None):
        self.ctx = LiteContext(kernel, f"kv-server{shard_index}")
        self.shard_index = shard_index
        self.log_bytes = log_bytes
        self.store_name = store_name
        # Value-log durability: backup copies of the log LMR.  With the
        # recovery layer armed, a crashed shard server's log fails over
        # to a backup node and cached one-sided GETs keep validating
        # (the backup is byte-identical, offsets and versions included).
        self.replicas = replicas
        # Where the value log lives (lt_malloc ``nodes=``; None = the
        # server's own node).  Disaggregated placement lets the server
        # outlive its log — the degraded read-only mode below is only
        # reachable when the log can die while the server survives.
        self.log_nodes = log_nodes
        self.log_lh = None
        self._tail = 0
        # key -> (offset, record_len, version)
        self.index: Dict[bytes, Tuple[int, int, int]] = {}
        # Per-key write mutex: concurrent PUTs from different server
        # threads must not interleave version/offset updates.
        self._key_busy: Dict[bytes, list] = {}
        self.puts = 0
        self.lookups = 0
        # Graceful degradation: flips when the value log fails with
        # ENODEV (last replica gone).  PUTs are refused, GETs continue.
        self.read_only = False

    @property
    def lite_id(self) -> int:
        """The shard server's LITE node id."""
        return self.ctx.lite_id

    def start(self, n_server_threads: int = 2):
        """Create the log LMR and serve PUT/LOOKUP RPCs (generator)."""
        self.log_lh = yield from self.ctx.lt_malloc(
            self.log_bytes,
            name=f"{self.store_name}:log:{self.shard_index}",
            nodes=self.log_nodes,
            default_perm=_OPEN,
            replicas=self.replicas,
        )
        for _ in range(n_server_threads):
            self.ctx.sim.process(
                rpc_server_loop(self.ctx, _FUNC_KV, self._handle),
                name=f"kv-srv{self.shard_index}",
            )

    def _handle(self, request: bytes):
        command = json.loads(request[: request.index(b"\x00")].decode())
        payload = request[request.index(b"\x00") + 1:]
        if command["op"] == "put":
            if self.read_only:
                reply = {"err": "shard is read-only (log lost its last "
                                "replica)", "errno": ENODEV}
            else:
                try:
                    reply = yield from self._do_put(
                        command["key"].encode(), payload
                    )
                except LiteError as exc:
                    if exc.errno == ENODEV:
                        # The value log lost its last replica: degrade
                        # to read-only instead of wedging — GETs keep
                        # serving whatever the index still points at.
                        self.read_only = True
                        reply = {"err": str(exc), "errno": ENODEV}
                    else:
                        raise
        elif command["op"] == "lookup":
            reply = self._do_lookup(command["key"].encode())
        elif command["op"] == "delete":
            reply = self._do_delete(command["key"].encode())
        else:
            reply = {"err": f"unknown op {command['op']!r}"}
        return json.dumps(reply).encode()

    def _lock_key(self, key: bytes):
        """Acquire the per-key write mutex (generator)."""
        while key in self._key_busy:
            gate = self.ctx.sim.event()
            self._key_busy[key].append(gate)
            yield gate
        self._key_busy[key] = []

    def _unlock_key(self, key: bytes) -> None:
        waiters = self._key_busy.pop(key, [])
        for gate in waiters:
            if not gate.triggered:
                gate.succeed()

    def _do_put(self, key: bytes, value: bytes):
        yield from self._lock_key(key)
        try:
            reply = yield from self._do_put_locked(key, value)
        finally:
            self._unlock_key(key)
        return reply

    def _do_put_locked(self, key: bytes, value: bytes):
        previous = self.index.get(key)
        version = (previous[2] + 1) if previous else 1
        record = _RECORD_HDR.pack(len(value), version, _key_tag(key)) + value
        if previous is not None and len(record) <= previous[1]:
            # In-place update: cached readers see the bumped version at
            # the same offset and stay coherent.
            offset = previous[0]
            yield from self.ctx.lt_write(self.log_lh, offset, record)
            self.index[key] = (offset, previous[1], version)
            self.puts += 1
            return {"offset": offset, "len": previous[1], "version": version}
        if self._tail + len(record) > self.log_bytes:
            self._tail = 0  # simplistic wrap; old records are garbage
        offset = self._tail
        self._tail += len(record)
        yield from self.ctx.lt_write(self.log_lh, offset, record)
        if previous is not None:
            # Tombstone the old header so stale cached locations fail
            # validation and re-lookup.
            yield from self.ctx.lt_write(
                self.log_lh, previous[0], _RECORD_HDR.pack(0, 0, 0)
            )
        self.index[key] = (offset, len(record), version)
        self.puts += 1
        return {"offset": offset, "len": len(record), "version": version}

    def _do_lookup(self, key: bytes):
        self.lookups += 1
        entry = self.index.get(key)
        if entry is None:
            return {"miss": True}
        offset, record_len, version = entry
        return {"offset": offset, "len": record_len, "version": version}

    def _do_delete(self, key: bytes):
        return {"ok": self.index.pop(key, None) is not None}


class LiteKVClient:
    """Client with a location cache: GETs are one-sided after warmup."""

    def __init__(self, kernel, servers: List[LiteKVServer], principal: str = "",
                 rpc_timeout_us: Optional[float] = None, rpc_retries: int = 0):
        self.ctx = LiteContext(kernel, principal or "kv-client")
        self.servers = servers
        # Failure policy for the RPC path (None = wait forever, the
        # fault-free default); chaos runs set a timeout + retries.
        self.rpc_timeout_us = rpc_timeout_us
        self.rpc_retries = rpc_retries
        self._log_handles: Dict[int, object] = {}
        self._location_cache: Dict[bytes, Tuple[int, int, int, int]] = {}
        self.onesided_gets = 0
        self.rpc_lookups = 0
        self.validation_retries = 0
        # Shards whose server reported ENODEV: PUTs fail fast locally
        # instead of burning an RPC round trip per attempt.
        self.read_only_shards: set = set()

    def _shard(self, key: bytes) -> LiteKVServer:
        return self.servers[kv_shard_of(key, len(self.servers))]

    def _log_handle(self, server: LiteKVServer):
        handle = self._log_handles.get(server.shard_index)
        if handle is None:
            handle = yield from self.ctx.lt_map(
                f"{server.store_name}:log:{server.shard_index}", _OPEN
            )
            self._log_handles[server.shard_index] = handle
        return handle

    def _rpc(self, server: LiteKVServer, command: dict, payload: bytes = b"",
             max_reply: int = 256):
        request = json.dumps(command).encode() + b"\x00" + payload
        reply = yield from self.ctx.lt_rpc(
            server.lite_id, _FUNC_KV, request, max_reply=max_reply,
            timeout=self.rpc_timeout_us, retries=self.rpc_retries,
        )
        decoded = json.loads(reply.decode())
        if "err" in decoded:
            if "errno" in decoded:
                raise LiteError(decoded["err"], errno=decoded["errno"])
            raise RuntimeError(decoded["err"])
        return decoded

    # -- public API -------------------------------------------------------
    def put(self, key: bytes, value: bytes):
        """Store (generator).  Updates the local location cache.

        Raises ``LiteError(ENODEV)`` without touching the wire once the
        key's shard is known read-only (its value log lost its last
        replica); transient failures surface as retryable ETIMEDOUT.
        """
        server = self._shard(key)
        if server.shard_index in self.read_only_shards:
            raise LiteError(
                f"kv shard {server.shard_index} is read-only", errno=ENODEV
            )
        try:
            reply = yield from self._rpc(
                server, {"op": "put", "key": key.decode()}, payload=value
            )
        except LiteError as exc:
            if exc.errno == ENODEV:
                self.read_only_shards.add(server.shard_index)
            raise
        self._location_cache[key] = (
            server.shard_index, reply["offset"], reply["len"], reply["version"]
        )

    def get(self, key: bytes):
        """Fetch (generator; returns bytes or None).

        Cached location -> one one-sided LT_read, validated against the
        record header; stale/torn records trigger one lookup + retry.
        """
        server = self._shard(key)
        cached = self._location_cache.get(key)
        for _attempt in range(2):
            if cached is None:
                self.rpc_lookups += 1
                reply = yield from self._rpc(server, {"op": "lookup",
                                                      "key": key.decode()})
                if reply.get("miss"):
                    return None
                cached = (server.shard_index, reply["offset"], reply["len"],
                          reply["version"])
            _shard, offset, record_len, version = cached
            handle = yield from self._log_handle(server)
            record = yield from self.ctx.lt_read(handle, offset, record_len)
            value_len, got_version, tag = _RECORD_HDR.unpack_from(record)
            if (tag == _key_tag(key)
                    and got_version >= version
                    and value_len <= record_len - _RECORD_HDR.size):
                self.onesided_gets += 1
                self._location_cache[key] = (_shard, offset, record_len,
                                             got_version)
                return record[_RECORD_HDR.size : _RECORD_HDR.size + value_len]
            # Torn or overwritten record: invalidate and re-lookup.
            self.validation_retries += 1
            cached = None
            self._location_cache.pop(key, None)
        return None

    def delete(self, key: bytes):
        """Remove a key (generator; returns whether it existed)."""
        server = self._shard(key)
        reply = yield from self._rpc(server, {"op": "delete",
                                              "key": key.decode()})
        self._location_cache.pop(key, None)
        return reply["ok"]
