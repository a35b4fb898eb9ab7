"""QP pooling & leasing: the microsecond control plane (INTERNALS §15).

LITE's shared-QP mesh makes the *data* plane cheap, but until now every
workload got its connections for free: ``LiteKernel.connect()`` charged
one fabric round trip per QP pair and nothing else, and no scenario
ever set a connection up mid-run.  Elastic workloads (serverless
bursts, autoscale-up) churn through short-lived clients whose *first*
op is dominated by control-plane work: ibv_create_qp plus the
RESET->INIT->RTR->RTS ladder on both endpoints, the librdmacm
handshake, and MR registration (paper §2.4 and Fig 8; KRCORE measures
the same path at millisecond scale on stock verbs).

:class:`QPPool` amortizes that path LITE-style.  Each (kernel, peer)
pair owns a pool of pre-built reserved RC connections, leased to
logical client sessions (:class:`repro.core.api.ClientSession`) and
returned to the pool on detach:

* **Acquire** — a pool *hit* pops the oldest usable reserved conn for
  a metadata-only grant; a *miss* pays the full cold bring-up (QP
  create + state ladder on both ends + CM handshake via
  ``net/rdma_cm.cm_handshake``) in the acquiring client's timeline.
* **Leases** — grant/renew/expire reuse the ``repro.recovery``
  cadence.  The authoritative lease table is the cluster manager's
  ``qp_leases`` dict (JSON-clean, snapshot/restore-able like every
  other manager table, read through ``kernel.manager`` so a manager
  restart mid-churn is transparent).  An armed sweeper reaps expired
  sessions on a fixed simulated-time interval; every expiry returns
  exactly one conn — a client detaching *after* the sweeper got there
  is a remembered no-op (``LruDict`` expiry memo), never a double
  park.
* **Fencing** — pool policy, not a cache: when a peer crashes or its
  lease expires, ``RecoveryManager._failover`` calls :meth:`fence_peer`
  so acquire discards the conns and release destroys them instead of
  ever handing them out again.

Determinism: the free list is FIFO, conn ids come from a per-pool
counter, the sweeper reaps in sorted session order, and nothing here
consults wall clock or global RNG — two runs with the same seed are
bit-identical, with or without the fast path.
"""

from __future__ import annotations

from typing import Dict, List

from ..hw.caches import LruDict
from ..net.rdma_cm import cm_handshake

__all__ = ["PooledConn", "QPPool"]

# Reaped-session ids remembered for duplicate-release suppression (a
# client detaching after the sweeper expired its lease must be a no-op,
# not a second park of the same conn).
_EXPIRED_MEMO = 256

# Per-peer scratch window sessions write into on the remote node
# (covered by the peer's global physical MR, LITE-style: no per-client
# remote registration).
_SCRATCH_BYTES = 64 * 1024

# Pool policy defaults, owned here: conns prebuilt per peer, conns
# parked at most (raised to the reserve), and the QP-lease TTL on the
# recovery cadence (the sweep interval is ``repro.recovery``'s).
DEFAULT_RESERVE = 0
DEFAULT_CAP = 8
DEFAULT_LEASE_TTL_US = 2000.0


class PooledConn:
    """One reserved RC connection owned by a :class:`QPPool`."""

    __slots__ = ("conn_id", "qp", "peer_qp", "fenced", "leases")

    def __init__(self, conn_id: int, qp, peer_qp):
        self.conn_id = conn_id
        self.qp = qp              # local end: the leasing side posts here
        self.peer_qp = peer_qp    # remote end
        self.fenced = False       # peer crashed / was declared dead
        self.leases = 0           # sessions that have held this conn

    def usable(self) -> bool:
        """True while the conn may be handed to a session."""
        return (not self.fenced and self.qp.state == "RTS"
                and self.peer_qp.state == "RTS")

    def __repr__(self) -> str:
        return (f"PooledConn({self.conn_id}, qp={self.qp.qpn}, "
                f"peer_qp={self.peer_qp.qpn}, fenced={self.fenced})")


class QPPool:
    """Pre-built reserved RC connections toward one peer, leased out.

    Created lazily by ``LiteKernel.qp_pool(peer_lite_id)``; its
    reserve is built by :meth:`prebuild`.  ``None`` arguments take the
    module defaults.
    """

    def __init__(self, kernel, peer_kernel, reserve=None, cap=None,
                 lease_ttl_us=None, sweep_interval_us=None):
        self.kernel = kernel
        self.peer_kernel = peer_kernel
        self.sim = kernel.sim
        self.params = kernel.params
        self.reserve = DEFAULT_RESERVE if reserve is None else reserve
        self.cap = max(DEFAULT_CAP, self.reserve) if cap is None else cap
        if sweep_interval_us is None:
            # Reuse the recovery cadence (lazy import: repro.recovery
            # pulls in repro.core, which this module must not at import
            # time).
            from ..recovery.manager import DEFAULT_SWEEP_INTERVAL_US
            sweep_interval_us = DEFAULT_SWEEP_INTERVAL_US
        self.lease_ttl_us = (DEFAULT_LEASE_TTL_US
                             if lease_ttl_us is None else lease_ttl_us)
        self.sweep_interval_us = sweep_interval_us
        # Remote scratch window for session ops (global-MR covered).
        self.scratch = peer_kernel.node.memory.alloc(_SCRATCH_BYTES)
        self.peer_rkey = peer_kernel.global_mr.rkey
        self._free: List[PooledConn] = []          # FIFO reserve
        self._leased: Dict[int, PooledConn] = {}   # session id -> conn
        self._conn_counter = 0
        self._expired = LruDict(_EXPIRED_MEMO, name="qp-lease-expired")
        self._armed = False
        self._stopped = False
        # Stats (plain counters; asserted on by the churn test battery).
        self.hits = 0
        self.misses = 0
        self.expiries = 0
        self.fenced_discards = 0
        self.destroyed = 0
        self.built = 0

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    @property
    def manager(self):
        """The cluster manager holding the lease table.

        Read through the kernel on every use: a manager restart swaps
        ``kernel.manager`` for a restored replica and the pool must
        follow it mid-churn.
        """
        return self.kernel.manager

    @property
    def parked(self) -> int:
        """Reserved conns currently parked in the pool."""
        return len(self._free)

    @property
    def leased(self) -> int:
        """Conns currently out on lease."""
        return len(self._leased)

    # ------------------------------------------------------------------
    # Sweeper lifecycle (the repro.recovery cadence pattern)
    # ------------------------------------------------------------------
    def arm(self) -> "QPPool":
        """Start the lease-expiry sweeper (idempotent)."""
        if self._armed:
            return self
        self._armed = True
        self._stopped = False
        self.sim.process(
            self._sweep_loop(),
            name=(f"qp-pool-sweep-{self.kernel.lite_id}"
                  f"-{self.peer_kernel.lite_id}"),
        )
        return self

    def stop(self) -> None:
        """Stop sweeping (the loop exits at its next tick)."""
        self._stopped = True

    def _sweep_loop(self):
        while True:
            yield self.sim.timeout(self.sweep_interval_us)
            if self._stopped:
                self._armed = False
                return
            self.sweep()

    def sweep(self) -> int:
        """Reap every expired lease; each expiry returns exactly one conn."""
        now = self.sim.now
        leases = self.manager.qp_leases
        reaped = 0
        for sid in sorted(self._leased):
            entry = leases.get(sid)
            if entry is not None and entry["expires"] > now:
                continue
            conn = self._leased.pop(sid)
            leases.pop(sid, None)
            self._expired.put(sid, now)
            self.expiries += 1
            self._park(conn)
            reaped += 1
        return reaped

    # ------------------------------------------------------------------
    # Bring-up
    # ------------------------------------------------------------------
    def prebuild(self):
        """Build the reserve's conns, up to the cap; generator.

        Run at set-up (``run_churn`` does, before its first arrival) so
        the reserve's bring-up cost lands at connection-setup time, not
        on the first unlucky client.
        """
        for _ in range(self.reserve):
            if len(self._free) >= self.cap:
                break
            conn = yield from self._build_conn()
            self._free.append(conn)

    def _build_conn(self):
        """The cold path: full two-endpoint bring-up (generator)."""
        kernel = self.kernel
        peer = self.peer_kernel
        qp = kernel.device.create_qp(
            kernel.pd, "RC", send_cq=None, recv_cq=None
        )
        peer_qp = peer.device.create_qp(
            peer.pd, "RC", send_cq=None, recv_cq=None
        )
        # Both endpoints' create+transition ladders are driven (and
        # paid) by the initiating side, like librdmacm's blocking
        # connect; then the CM handshake's three round trips.
        yield from qp.bringup()
        yield from peer_qp.bringup()
        yield from cm_handshake(kernel.node, peer.node)
        kernel.device.connect(qp, peer_qp)
        self._conn_counter += 1
        self.built += 1
        return PooledConn(self._conn_counter, qp, peer_qp)

    # ------------------------------------------------------------------
    # Lease operations
    # ------------------------------------------------------------------
    def acquire(self, session_id: int, ttl_us=None):
        """Lease a conn to ``session_id``; returns ``(conn, source)``.

        ``source`` is ``"hit"`` (reserved conn, metadata-only grant) or
        ``"cold"`` (full bring-up paid here).  Fenced or errored conns
        found at the head of the free list are discarded, never handed
        out.
        """
        if session_id in self._leased:
            raise ValueError(
                f"session {session_id} already holds a QP lease"
            )
        # Lease-grant bookkeeping against the manager table.
        grant_cost = self.params.lite_metadata_us
        yield self.sim.timeout(grant_cost)
        self.kernel.node.cpu.charge("qp-pool", grant_cost)
        conn = None
        while self._free:
            cand = self._free.pop(0)
            if not cand.usable():
                self._destroy(cand, fenced=True)
                continue
            conn = cand
            break
        if conn is not None:
            source = "hit"
            self.hits += 1
        else:
            source = "cold"
            self.misses += 1
            conn = yield from self._build_conn()
        self._grant(session_id, conn, ttl_us)
        return conn, source

    def _grant(self, session_id: int, conn: PooledConn, ttl_us=None) -> None:
        ttl = self.lease_ttl_us if ttl_us is None else ttl_us
        self._leased[session_id] = conn
        conn.leases += 1
        # Re-attach under a previously reaped id: clear the stale expiry
        # marker so this grant's eventual release isn't eaten by it.
        self._expired.invalidate_many((session_id,))
        self.manager.qp_leases[session_id] = {
            "holder": self.kernel.lite_id,
            "peer": self.peer_kernel.lite_id,
            "conn": conn.conn_id,
            "expires": self.sim.now + ttl,
        }

    def renew(self, session_id: int) -> bool:
        """Extend a live lease (zero-cost: piggybacks on the op's post)."""
        if session_id not in self._leased:
            return False
        entry = self.manager.qp_leases.get(session_id)
        if entry is None:
            return False
        entry["expires"] = self.sim.now + self.lease_ttl_us
        return True

    def release(self, session_id: int) -> bool:
        """Return a leased conn to the pool.

        False when the lease already expired — the sweeper parked the
        conn then, so this release is a recorded no-op (exactly one
        park per lease, ever).
        """
        conn = self._leased.pop(session_id, None)
        if conn is None:
            return False
        self.manager.qp_leases.pop(session_id, None)
        self._park(conn)
        return True

    def _park(self, conn: PooledConn) -> None:
        if not conn.usable() or len(self._free) >= self.cap:
            self._destroy(conn, fenced=not conn.usable())
            return
        self._free.append(conn)

    def _destroy(self, conn: PooledConn, fenced: bool = False) -> None:
        if fenced:
            self.fenced_discards += 1
        self.destroyed += 1
        self.kernel.device.destroy_qp(conn.qp)
        self.peer_kernel.device.destroy_qp(conn.peer_qp)

    # ------------------------------------------------------------------
    # Fencing (pool policy)
    # ------------------------------------------------------------------
    def fence_peer(self) -> int:
        """Fence every conn: the peer crashed or its lease expired.

        Marks the conns so acquire discards them and release destroys
        them.  Returns how many conns were newly fenced.
        """
        count = 0
        for conn in self._free:
            if not conn.fenced:
                conn.fenced = True
                count += 1
        for sid in sorted(self._leased):
            conn = self._leased[sid]
            if not conn.fenced:
                conn.fenced = True
                count += 1
        return count

    def __repr__(self) -> str:
        return (f"QPPool({self.kernel.lite_id}->{self.peer_kernel.lite_id}, "
                f"parked={self.parked}/{self.cap}, leased={self.leased}, "
                f"hits={self.hits}, misses={self.misses}, "
                f"expiries={self.expiries})")
