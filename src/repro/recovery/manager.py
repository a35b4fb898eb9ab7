"""Lease-based crash recovery for replicated LMRs (INTERNALS §14).

The :class:`RecoveryManager` closes the loop that PR 1 opened: faults
are no longer terminal.  It layers three deterministic mechanisms on
top of the existing keep-alive / replica machinery:

* **Leases** — every LITE instance holds a lease in the cluster
  manager's table, renewed on a fixed simulated-time cadence whenever
  the node is up and its link is connected (renewal piggybacks on the
  keep-alive heartbeat conceptually, so it costs no extra wire
  traffic).  A crashed or partitioned node simply stops renewing.
* **Failover** — a sweeper declares a node dead when its lease
  expires, fences the QP pools toward it, and walks the replica
  directory: every LMR whose primary lived there gets the smallest
  live, lease-holding backup *promoted* in place — the global
  ``lh -> (node, addr)`` binding is remapped atomically through a
  CHUNKS_UPDATE broadcast, so existing handles keep working without
  any application involvement (the paper's indirection argument,
  §4.1, doing real work).  When the last copy is gone the LMR is
  marked **failed** and every subsequent op fails fast with ENODEV.
* **Rejoin + resync** — when an expired node renews again (it was
  restarted by the fault plan), its peers are resurrected and the
  sweeper schedules a resync for every copy it lost: the current
  primary is stride-copied back over the stale chunks, retrying while
  the per-LMR version counter moves underneath the copy (write
  ordering), after which the node rejoins the replica set.

Everything runs in simulated time off the one shared event loop, so a
given (fault plan, seed) recovers identically on every run.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from ..core.errors import LiteError
from ..core.lmr import ChunkInfo, MappedLmr, MasterRecord, Permission
from ..core.protocol import MsgType

__all__ = ["RecoveryManager"]

# Defaults chosen against the keep-alive defaults: a lease outlives a
# couple of missed renewals but expires well before a typical chaos
# plan's restart, keeping unavailability windows tight.
DEFAULT_LEASE_TTL_US = 2000.0
DEFAULT_RENEW_INTERVAL_US = 500.0
DEFAULT_SWEEP_INTERVAL_US = 500.0


class RecoveryManager:
    """Crash-to-rejoin coordinator for one cluster (opt-in via arm())."""

    def __init__(
        self,
        cluster,
        kernels,
        lease_ttl_us: float = DEFAULT_LEASE_TTL_US,
        renew_interval_us: float = DEFAULT_RENEW_INTERVAL_US,
        sweep_interval_us: float = DEFAULT_SWEEP_INTERVAL_US,
    ):
        if lease_ttl_us <= renew_interval_us:
            raise ValueError("lease TTL must exceed the renew interval")
        self.cluster = cluster
        self.sim = cluster.sim
        self.manager = cluster.manager
        self.kernels = list(kernels)
        self._by_id = {kernel.lite_id: kernel for kernel in self.kernels}
        self.lease_ttl_us = lease_ttl_us
        self.renew_interval_us = renew_interval_us
        self.sweep_interval_us = sweep_interval_us
        # Lifecycle state.
        self.dead: Set[int] = set()
        self._rejoining: Set[int] = set()
        self._resync_inflight: Set[Tuple[int, int]] = set()
        self._last_renew: Dict[int, float] = {}
        self._armed = False
        self._stopped = False
        # Stats.  ``promotions`` counts failovers (one per dead node);
        # ``promoted_lmrs`` the LMRs whose backup took over in them.
        self.promotions = 0
        self.rejoins = 0
        self.resyncs = 0
        self.failed_lmrs = 0
        self.promoted_lmrs = 0
        self.dropped_updates = 0
        self.failed_resyncs = 0
        self.exhausted_resyncs = 0
        self.promotion_samples: List[float] = []
        self.unavailability_samples: List[float] = []

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def arm(self) -> "RecoveryManager":
        """Grant initial leases and start the renew/sweep loops.

        Until this is called the recovery layer is an exact no-op (no
        processes, no lease table entries) — unarmed runs stay
        byte-identical to pre-recovery builds.
        """
        if self._armed:
            raise RuntimeError("recovery manager already armed")
        self._armed = True
        now = self.sim.now
        for kernel in self.kernels:
            self.manager.grant_lease(kernel.lite_id, now + self.lease_ttl_us)
            self._last_renew[kernel.lite_id] = now
            self.sim.process(
                self._renew_loop(kernel), name=f"lease-renew-{kernel.lite_id}"
            )
        self.sim.process(self._sweep_loop(), name="lease-sweep")
        return self

    def stop(self) -> None:
        """Stop renewing and sweeping (loops exit at their next tick)."""
        self._stopped = True

    # ------------------------------------------------------------------
    # Lease loops
    # ------------------------------------------------------------------
    def _renew_loop(self, kernel):
        node = kernel.node
        fabric = node.fabric
        while True:
            yield self.sim.timeout(self.renew_interval_us)
            if self._stopped:
                return
            if node.crashed or not fabric.link_up(node.node_id):
                continue
            self.manager.grant_lease(
                kernel.lite_id, self.sim.now + self.lease_ttl_us
            )
            self._last_renew[kernel.lite_id] = self.sim.now
            if (kernel.lite_id in self.dead
                    and kernel.lite_id not in self._rejoining):
                self._rejoining.add(kernel.lite_id)
                self.sim.process(
                    self._rejoin(kernel), name=f"rejoin-{kernel.lite_id}"
                )

    def _sweep_loop(self):
        while True:
            yield self.sim.timeout(self.sweep_interval_us)
            if self._stopped:
                return
            now = self.sim.now
            for lite_id in sorted(self._by_id):
                if lite_id in self.dead:
                    continue
                if not self.manager.lease_valid(lite_id, now):
                    self.dead.add(lite_id)
                    self.sim.process(
                        self._failover(lite_id), name=f"failover-{lite_id}"
                    )
            # Lost-but-alive copies (a fan-out write failed during a
            # link blip, or a node finished rejoining): resync them
            # back into the replica set.
            for lmr_id in sorted(self.manager.replicas):
                entry = self.manager.replicas[lmr_id]
                if entry["failed"]:
                    continue
                for holder in sorted(entry["lost"]):
                    key = (lmr_id, holder)
                    if (holder in self.dead or holder in self._rejoining
                            or key in self._resync_inflight):
                        continue
                    if not self.manager.lease_valid(holder, now):
                        continue
                    self._resync_inflight.add(key)
                    self.sim.process(
                        self._resync_task(lmr_id, holder),
                        name=f"resync-{lmr_id}-{holder}",
                    )

    # ------------------------------------------------------------------
    # Failover: fencing, promotion, degradation
    # ------------------------------------------------------------------
    def _failover(self, dead_id: int):
        t0 = self.sim.now
        for kernel in self.kernels:
            if kernel.lite_id == dead_id:
                continue
            info = kernel.peers.get(dead_id)
            if info is not None:
                info.alive = False
        # Pooled control-plane conns (cluster/qp_pool.py): pool policy
        # is that no lease ever hands out a conn toward a dead peer.
        # The dead node's own pools fence as well: every conn they park
        # points at a peer that just declared *it* dead, and its
        # sessions' leases die with the node.
        for kernel in self.kernels:
            pool = kernel.qp_pools.get(dead_id)
            if pool is not None:
                pool.fence_peer()
        dead_kernel = self._by_id.get(dead_id)
        if dead_kernel is not None:
            for pool in dead_kernel.qp_pools.values():
                pool.fence_peer()
        for lmr_id in sorted(self.manager.replicas):
            entry = self.manager.replicas[lmr_id]
            if entry["failed"]:
                continue
            yield from self._repair_entry(lmr_id, entry, dead_id)
        promotion = self.sim.now - t0
        self.promotions += 1
        self.promotion_samples.append(promotion)
        unavailability = self.sim.now - self._last_renew.get(dead_id, t0)
        self.unavailability_samples.append(unavailability)

    def _repair_entry(self, lmr_id: int, entry: dict, dead_id: int):
        # A backup copy on the dead node is lost (kept for resync).
        self.manager.mark_replica_stale(lmr_id, dead_id)
        primary_dead = (entry["master"] == dead_id
                        or any(wire[0] == dead_id for wire in entry["primary"]))
        if not primary_dead:
            # Replica set shrank but the primary is intact: push the
            # new (smaller) fan-out set to every live mapper.
            yield from self._broadcast_update(lmr_id, entry)
            return
        now = self.sim.now
        candidates = [
            backup for backup in sorted(entry["backups"])
            if backup not in self.dead and self.manager.lease_valid(backup, now)
        ]
        if not candidates:
            entry["failed"] = True
            self.failed_lmrs += 1
            yield from self._broadcast_update(lmr_id, entry)
            return
        new_master = candidates[0]
        old_primary = entry["primary"]
        entry["primary"] = entry["backups"].pop(new_master)
        # The old primary's chunks become the dead node's resync target
        # when they all lived there (the common single-node placement);
        # multi-node placements just drop them.
        if old_primary and all(wire[0] == dead_id for wire in old_primary):
            entry["lost"][dead_id] = old_primary
        entry["master"] = new_master
        name = entry["name"]
        if name in self.manager.names:
            self.manager.names[name] = new_master
        self._rehome_record(lmr_id, entry, new_master)
        self.promoted_lmrs += 1
        yield from self._broadcast_update(lmr_id, entry)

    def _rehome_record(self, lmr_id: int, entry: dict, new_master: int) -> None:
        """Reconstruct the MasterRecord on the promoted backup, under
        its old lmr id.  Explicit ACL grants die with the old master; the
        creator's full rights and the recorded default permission
        survive.
        """
        kernel = self._by_id[new_master]
        record = MasterRecord(
            lmr_id, entry["name"], entry["size"],
            [ChunkInfo.from_wire(w) for w in entry["primary"]],
            creator=entry["creator"],
            default_perm=Permission(entry.get("dperm", 0)))
        record.mapped_by = {
            lite_id for lite_id in sorted(self._by_id)
            if lite_id not in self.dead
        }
        record.replicas = {
            backup: [ChunkInfo.from_wire(w) for w in wires]
            for backup, wires in entry["backups"].items()
        }
        record.version = entry["version"]
        kernel.registry[record.name] = record
        kernel._records_by_id[lmr_id] = record

    def _broadcast_update(self, lmr_id: int, entry: dict):
        """Atomically retarget every live mapping of ``lmr_id``.

        The source kernel's own mappings flip synchronously (that is
        the atomic remap — the directory entry and the master-side view
        change in one event); remote mappers learn through concurrent
        CHUNKS_UPDATE requests.  Unreachable mappers are skipped — they
        are either dead (their mappings die with them) or will be
        repaired by a later sweep.
        """
        live = [lite_id for lite_id in sorted(self._by_id)
                if lite_id not in self.dead]
        if not live:
            return
        src_id = entry["master"] if entry["master"] in live else live[0]
        src = self._by_id[src_id]
        chunks = [ChunkInfo.from_wire(w) for w in entry["primary"]]
        replicas = {
            backup: [ChunkInfo.from_wire(w) for w in wires]
            for backup, wires in entry["backups"].items()
        }
        for mapping in src.mappings_by_lmr.get(lmr_id, []):
            mapping.retarget(chunks)
            mapping.master_id = entry["master"]
            mapping.replica_chunks = {b: list(c)
                                      for b, c in replicas.items()}
            mapping.failed = entry["failed"]
        message = {
            "type": MsgType.CHUNKS_UPDATE,
            "lmr_id": lmr_id,
            "chunks": list(entry["primary"]),
            "master": entry["master"],
            "replicas": {backup: list(wires)
                         for backup, wires in entry["backups"].items()},
            "failed": entry["failed"],
        }
        procs = [
            self.sim.process(self._push_update(src, dst, dict(message)))
            for dst in live
            if dst != src_id
        ]
        if procs:
            yield self.sim.all_of(procs)

    def _push_update(self, src, dst: int, message: dict):
        try:
            yield from src.ctrl_request(dst, message)
        except LiteError:
            # Mapper unreachable: its mappings are repaired on a later
            # sweep (or are gone with the node).
            self.dropped_updates += 1

    # ------------------------------------------------------------------
    # Rejoin + resync
    # ------------------------------------------------------------------
    def _rejoin(self, kernel):
        rejoin_id = kernel.lite_id
        try:
            for other in self.kernels:
                if other.lite_id == rejoin_id:
                    continue
                theirs = other.peers.get(rejoin_id)
                if theirs is not None:
                    theirs.alive = True
                    for qp in theirs.qps:
                        if qp.state == "ERROR":
                            qp.reset()
                mine = kernel.peers.get(other.lite_id)
                if mine is not None:
                    mine.alive = True
                    for qp in mine.qps:
                        if qp.state == "ERROR":
                            qp.reset()
            self.dead.discard(rejoin_id)
            self.rejoins += 1
            # Give the re-registration a metadata tick so rejoin is an
            # observable simulated-time event, then let the sweeper
            # schedule resyncs for every copy this node lost.
            yield self.sim.timeout(kernel.params.lite_metadata_us)
        finally:
            self._rejoining.discard(rejoin_id)

    def _resync_task(self, lmr_id: int, holder: int):
        try:
            yield from self._resync(lmr_id, holder)
        finally:
            self._resync_inflight.discard((lmr_id, holder))

    def _resync(self, lmr_id: int, holder: int):
        """Copy the current primary back over a stale copy, then rejoin
        it to the replica set.  Retries while the version counter moves
        under the copy (a concurrent write would otherwise leave a torn
        mix of old and new bytes on the backup)."""
        entry = self.manager.replicas.get(lmr_id)
        if entry is None or entry["failed"]:
            return
        lost = entry["lost"].get(holder)
        if lost is None:
            return
        master_id = entry["master"]
        master = self._by_id.get(master_id)
        if master is None or master_id in self.dead:
            return
        src_map = MappedLmr(
            0, "", entry["size"],
            [ChunkInfo.from_wire(w) for w in entry["primary"]], 0,
        )
        dst_map = MappedLmr(
            0, "", entry["size"],
            [ChunkInfo.from_wire(w) for w in lost], 0,
        )
        stride = max(1, int(master.params.lite_chunk_bytes))
        try:
            for _attempt in range(4):
                version_before = entry["version"]
                offset = 0
                while offset < entry["size"]:
                    nbytes = min(stride, entry["size"] - offset)
                    data = yield from master.onesided.read(
                        src_map, offset, nbytes
                    )
                    yield from master.onesided.write(dst_map, offset, data)
                    offset += nbytes
                if entry["version"] == version_before:
                    break
            else:
                # Still racing writes after the retry budget: leave the
                # copy out of the set; a later sweep tries again.
                self.exhausted_resyncs += 1
                return
        except LiteError:
            # Source or target became unreachable mid-copy.
            self.failed_resyncs += 1
            return
        entry["backups"][holder] = entry["lost"].pop(holder)
        record = master._records_by_id.get(lmr_id)
        if record is not None:
            record.replicas[holder] = list(dst_map.chunks)
        self.resyncs += 1
        yield from self._broadcast_update(lmr_id, entry)

    def __repr__(self) -> str:
        return (f"RecoveryManager(ttl={self.lease_ttl_us}, "
                f"dead={sorted(self.dead)}, promotions={self.promotions}, "
                f"rejoins={self.rejoins}, resyncs={self.resyncs})")
