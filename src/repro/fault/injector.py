"""The fault injector: turns a :class:`FaultPlan` into live failures.

The injector owns three mechanisms:

* **Scheduled events** — each crash / link-down / flap becomes one
  simulator process that toggles fabric link state at the planned times.
* **Packet loss** — when the plan has loss rules, the injector installs
  itself as the fabric's ``fault`` hook and answers ``should_drop``
  from a private seeded RNG, so a given ``(plan, seed)`` drops exactly
  the same frames on every run.
* **Fault tolerance arming** — :meth:`arm_lite` flips the LITE kernels
  from the infinite-patience default into timeout/retry mode and starts
  their keep-alive loops.

Zero-cost-when-disabled is a hard requirement: installing an **empty**
plan schedules no events and leaves ``fabric.fault`` as ``None``, so
the simulation is byte-identical to one without an injector.
"""

from __future__ import annotations

import random

from .plan import FaultPlan

__all__ = ["FaultInjector"]


class FaultInjector:
    """Executes a :class:`FaultPlan` against one cluster."""

    def __init__(self, cluster, plan: FaultPlan, seed: int = 0):
        self.cluster = cluster
        self.plan = plan
        self.seed = seed
        self._rng = random.Random(seed)
        self._installed = False
        # Stats.
        self.crashes = 0
        self.restarts = 0
        self.link_transitions = 0
        self.frames_dropped = 0

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------
    def install(self) -> "FaultInjector":
        """Arm the plan: spawn schedulers and hook the fabric.

        Idempotent-hostile by design (installing twice would double the
        faults), so a second call raises.  Installing an empty plan is
        an exact no-op: no processes, no fabric hook, no heap events.
        """
        if self._installed:
            raise RuntimeError("fault plan already installed")
        self._installed = True
        plan = self.plan
        if plan.empty:
            return self
        cluster = self.cluster
        plan.validate([node.node_id for node in cluster.nodes])
        if plan.losses:
            if cluster.fabric.fault is not None:
                raise RuntimeError("fabric already has a fault hook")
            cluster.fabric.fault = self
        sim = cluster.sim
        for crash in plan.crashes:
            sim.process(self._drive_crash(crash), name=f"fault-crash-{crash.node_id}")
        for outage in plan.link_downs:
            sim.process(
                self._drive_link_down(outage), name=f"fault-link-{outage.node_id}"
            )
        for flap in plan.flaps:
            sim.process(self._drive_flap(flap), name=f"fault-flap-{flap.node_id}")
        return self

    def arm_lite(self, kernels, keepalive_interval_us=None,
                 miss_limit=None) -> None:
        """Switch LITE kernels to timeout/retry mode + start keep-alive.

        Without this, control-plane requests wait forever (the seed
        default) and a crashed peer turns into a hang instead of a
        ``LiteError(ETIMEDOUT)``.  The timeout and retry budget come
        from ``SimParams``; keep-alive starts only when
        ``keepalive_interval_us`` is given, with ``miss_limit``.
        """
        for kernel in kernels:
            kernel.enable_fault_tolerance()
            if keepalive_interval_us is not None:
                kernel.start_keepalive(keepalive_interval_us, miss_limit)

    # ------------------------------------------------------------------
    # Fabric hook
    # ------------------------------------------------------------------
    def should_drop(self, src: int, dst: int, nbytes: int, flow) -> bool:
        """Per-transfer loss decision (called by ``Fabric.transfer``).

        One RNG draw per transfer that matches at least one active rule
        (never more, so rule order cannot change the stream), using the
        highest matching rate.
        """
        now = self.cluster.sim.now
        rate = 0.0
        for rule in self.plan.losses:
            if rule.matches(now, src, dst):
                rate = max(rate, rule.rate)
        if rate <= 0.0:
            return False
        if self._rng.random() < rate:
            self.frames_dropped += 1
            return True
        return False

    # ------------------------------------------------------------------
    # Schedulers
    # ------------------------------------------------------------------
    def _set_link(self, node_id: int, up: bool) -> None:
        self.cluster.fabric.set_link_state(node_id, up)
        self.link_transitions += 1

    def _node(self, node_id: int):
        for node in self.cluster.nodes:
            if node.node_id == node_id:
                return node
        raise ValueError(f"no node {node_id}")  # pre-validated; defensive

    def _drive_crash(self, crash):
        yield self.cluster.sim.timeout(crash.at_us)
        node = self._node(crash.node_id)
        node.crashed = True
        self._set_link(crash.node_id, False)
        self.crashes += 1
        if crash.restart_at_us is None:
            return
        yield self.cluster.sim.timeout(crash.restart_at_us - crash.at_us)
        node.crashed = False
        self._set_link(crash.node_id, True)
        self.restarts += 1

    def _drive_link_down(self, outage):
        yield self.cluster.sim.timeout(outage.at_us)
        self._set_link(outage.node_id, False)
        if outage.up_at_us is None:
            return
        yield self.cluster.sim.timeout(outage.up_at_us - outage.at_us)
        self._set_link(outage.node_id, True)

    def _drive_flap(self, flap):
        sim = self.cluster.sim
        yield sim.timeout(flap.start_us)
        while sim.now < flap.end_us:
            self._set_link(flap.node_id, False)
            yield sim.timeout(min(flap.down_us, flap.end_us - sim.now))
            self._set_link(flap.node_id, True)
            if sim.now >= flap.end_us:
                break
            yield sim.timeout(flap.up_us)

    def __repr__(self) -> str:
        return (f"FaultInjector(seed={self.seed}, {self.plan!r}, "
                f"crashes={self.crashes}, restarts={self.restarts}, "
                f"dropped={self.frames_dropped})")
