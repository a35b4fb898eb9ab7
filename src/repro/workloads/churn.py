"""Elastic connection-churn workload (INTERNALS §15).

The KRCORE scenario: N short-lived logical clients arrive on a seeded
schedule, each attaches a :class:`~repro.core.api.ClientSession` toward
one peer (pooled-lease hit or cold bring-up miss), issues a few
one-sided ops, and detaches, returning its conn to the
:class:`~repro.cluster.qp_pool.QPPool`.  A fraction of clients may
*abandon* instead of detaching, exercising the lease-expiry sweeper.

:func:`run_churn` is the driver used by the churn test battery
(tests/test_qp_pool.py) and the sec2.4-adjacent figure
(benchmarks/test_sec24_churn.py);
:func:`churn_point` is the module-level (picklable) sweep point for
serial==parallel byte-identity sweeps.

Everything is seeded: arrival gaps come from one ``random.Random(seed)``
stream, session ids are sequential, and the stats fingerprint
``(sim.now, sim._seq)`` is bit-identical across repeat runs with the
same seed in the same fast-path mode (``sim.now`` also across modes;
``_seq`` counts real enqueues, and a fast run makes fewer).
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional

from ..core.api import ClientSession, LiteContext

__all__ = ["ChurnStats", "run_churn", "churn_point"]


class ChurnStats:
    """Outcome of one :func:`run_churn` drive."""

    def __init__(self):
        # Per-lease-source time-to-first-op and attach-latency samples.
        self.ttfo: Dict[str, List[float]] = {"hit": [], "cold": []}
        self.attach_us: Dict[str, List[float]] = {"hit": [], "cold": []}
        self.hits = 0
        self.misses = 0
        self.ops_ok = 0
        self.ops_failed = 0
        self.abandoned = 0
        self.detached = 0
        self.released = 0
        # Pool counters, copied at finish().
        self.expiries = 0
        self.fenced_discards = 0
        self.destroyed = 0
        self.built = 0
        self.parked_end = 0
        self.sim_us = 0.0
        self.fingerprint = (0.0, 0)

    def record(self, session: ClientSession) -> None:
        """Fold one finished session in."""
        source = session.source or "cold"
        if source == "hit":
            self.hits += 1
        else:
            self.misses += 1
        ttfo = session.time_to_first_op
        if ttfo is not None:
            self.ttfo[source].append(ttfo)
        if session.attached_at is not None and session.attach_at is not None:
            self.attach_us[source].append(
                session.attached_at - session.attach_at
            )

    def finish(self, sim, pool) -> None:
        self.expiries = pool.expiries
        self.fenced_discards = pool.fenced_discards
        self.destroyed = pool.destroyed
        self.built = pool.built
        self.parked_end = pool.parked
        self.sim_us = sim.now
        self.fingerprint = (sim.now, sim._seq)

    def median_ttfo(self, source: str) -> Optional[float]:
        """Median time-to-first-op for ``"hit"`` or ``"cold"`` leases."""
        samples = sorted(self.ttfo.get(source, ()))
        if not samples:
            return None
        return samples[len(samples) // 2]

    def ops_per_ms(self) -> float:
        """Steady-state completed-op throughput over the whole drive."""
        if self.sim_us <= 0:
            return 0.0
        return self.ops_ok / (self.sim_us / 1000.0)

    def __repr__(self) -> str:
        return (f"ChurnStats(hits={self.hits}, misses={self.misses}, "
                f"ops_ok={self.ops_ok}, abandoned={self.abandoned}, "
                f"expiries={self.expiries}, fp={self.fingerprint})")


def run_churn(cluster, kernels, n_clients: int = 24, seed: int = 0,
              ops_per_client: int = 4, op_bytes: int = 256,
              mean_gap_us: float = 20.0, pooled: bool = True,
              reserve: int = 2, cap: Optional[int] = None,
              eager_mr: bool = False, abandon_every: int = 0,
              lease_ttl_us: Optional[float] = None,
              client_kernel: int = 0, peer_kernel: int = 1,
              kernel_level: bool = False) -> ChurnStats:
    """Drive ``n_clients`` short-lived sessions on a seeded schedule.

    ``pooled=False`` forces every attach cold (reserve 0, cap 0: no
    conn is ever parked) — the baseline the pooled run is measured
    against.  ``abandon_every=k`` makes every k-th client leave without
    detaching, so its lease expires and the sweeper reclaims the conn.
    Arms the pool's sweeper for the duration of the drive and stops it
    before returning, leaving the simulator drainable.
    """
    sim = cluster.sim
    src = kernels[client_kernel]
    dst = kernels[peer_kernel]
    if pooled:
        pool = src.qp_pool(dst.lite_id, reserve=reserve, cap=cap,
                           lease_ttl_us=lease_ttl_us)
    else:
        pool = src.qp_pool(dst.lite_id, reserve=0, cap=0,
                           lease_ttl_us=lease_ttl_us)
    stats = ChurnStats()
    rng = random.Random(seed)
    gaps = [rng.uniform(0.2, 2.0) * mean_gap_us for _ in range(n_clients)]

    def client(index: int):
        ctx = LiteContext(src, f"churn{index}", kernel_level=kernel_level)
        session = ClientSession(
            ctx, dst.lite_id, session_id=index + 1,
            eager_mr=eager_mr, buffer_bytes=op_bytes,
        )
        yield from session.attach()
        payload = bytes([index & 0xFF]) * op_bytes
        offset = (index % 8) * (op_bytes + 64)
        for _ in range(ops_per_client):
            status = yield from session.write(payload, remote_offset=offset)
            if getattr(status, "name", str(status)) in ("SUCCESS", "0"):
                stats.ops_ok += 1
            else:
                stats.ops_failed += 1
        stats.record(session)
        if abandon_every and (index + 1) % abandon_every == 0:
            # Leave without detaching: the lease expires and the
            # sweeper returns the conn (exactly once).
            stats.abandoned += 1
            return
        released = yield from session.detach()
        stats.detached += 1
        if released:
            stats.released += 1

    def driver():
        pool.arm()
        if pooled and pool.reserve and pool.parked == 0:
            yield from pool.prebuild()
        procs = []
        for index in range(n_clients):
            yield sim.timeout(gaps[index])
            procs.append(
                sim.process(client(index), name=f"churn-client-{index}")
            )
        yield sim.all_of(procs)
        # Let abandoned leases expire and the sweeper reap them.
        if abandon_every:
            yield sim.timeout(pool.lease_ttl_us + 2 * pool.sweep_interval_us)
        pool.stop()
        yield sim.timeout(pool.sweep_interval_us)

    cluster.run_process(driver())
    cluster.sim.run()  # drain the sweeper's final tick
    stats.finish(sim, pool)
    return stats


def churn_point(point):
    """One sweep point: ``(n_clients, pooled, seed)`` -> result row.

    Module-level (picklable) for :func:`repro.sweep.run_sweep`; builds
    its own two-node cluster so points share zero state.
    """
    from ..cluster import Cluster
    from ..core.api import lite_boot

    n_clients, pooled, seed = point
    cluster = Cluster(2)
    kernels = lite_boot(cluster)
    stats = run_churn(
        cluster, kernels, n_clients=int(n_clients),
        pooled=bool(pooled), seed=int(seed),
    )
    return {
        "clients": int(n_clients),
        "pooled": 1 if pooled else 0,
        "seed": int(seed),
        "hits": stats.hits,
        "misses": stats.misses,
        "ttfo_hit_med": stats.median_ttfo("hit"),
        "ttfo_cold_med": stats.median_ttfo("cold"),
        "ops_ok": stats.ops_ok,
        "ops_per_ms": stats.ops_per_ms(),
        "expiries": stats.expiries,
        "sim_us": stats.sim_us,
        "fingerprint": list(stats.fingerprint),
    }
