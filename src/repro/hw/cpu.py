"""CPU model: cores, busy-time accounting, and wait strategies.

CPU *time* accounting is central to the paper's Figure 13 (CPU time per
RPC under the Facebook workload) and the §5.3 comparison (LITE 4.3 s vs
HERD 8.7 s / FaSST 8.8 s for the same request load).  Three wait
strategies are modelled:

- ``busy_wait``   — burn a core until the event fires (HERD/FaSST pollers).
- ``adaptive_wait`` — LITE's model (§5.2): busy-check a shared page for a
  short window, then sleep and pay a wakeup latency when woken.
- ``sleep_wait``  — block immediately (classic kernel threads / TCP).
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Optional

from ..sim import Event, Resource, Simulator
from .params import SimParams

__all__ = ["CpuSet"]


class CpuSet:
    """A node's cores plus per-tag busy-time ledger."""

    def __init__(self, sim: Simulator, params: SimParams,
                 cores: Optional[int] = None, node_id: Optional[int] = None):
        self.sim = sim
        self.params = params
        self.node_id = node_id
        self.cores = cores if cores is not None else params.cores_per_node
        self._resource = Resource(sim, capacity=self.cores)
        self.busy_time: Dict[str, float] = defaultdict(float)

    # -- accounting -----------------------------------------------------
    def charge(self, tag: str, amount: float) -> None:
        """Record CPU time without occupying a core (poll accounting)."""
        if amount < 0:
            raise ValueError(f"negative CPU charge: {amount}")
        self.busy_time[tag] += amount

    def total_busy(self) -> float:
        """Total CPU time charged across every tag."""
        return sum(self.busy_time.values())

    def reset_accounting(self) -> None:
        """Zero the busy-time ledger (benchmark phase boundaries)."""
        self.busy_time.clear()

    # -- execution ------------------------------------------------------
    def execute(self, duration: float, tag: str = "compute"):
        """Occupy one core for ``duration`` µs (queues if all busy)."""
        if duration < 0:
            raise ValueError(f"negative execute duration: {duration}")
        tracer = self.sim.tracer
        span = (tracer.begin("cpu.execute", node=self.node_id, tag=tag)
                if tracer is not None else None)
        try:
            yield self._resource.request()
            try:
                yield self.sim.timeout(duration)
                self.busy_time[tag] += duration
            finally:
                self._resource.release()
        finally:
            if span is not None:
                tracer.end(span)

    # -- wait strategies --------------------------------------------------
    def busy_wait(self, event: Event, tag: str = "poll"):
        """Busy-poll until ``event`` fires; charges the full wait.

        Returns the event's value.  Adds half a poll-loop iteration of
        latency (average discovery delay of a polling loop).
        """
        tracer = self.sim.tracer
        span = (tracer.begin("cpu.wait", node=self.node_id, strategy="busy")
                if tracer is not None else None)
        try:
            start = self.sim.now
            value = yield event
            self.busy_time[tag] += self.sim.now - start
            discover = self.params.poll_loop_us / 2
            yield self.sim.timeout(discover)
            self.busy_time[tag] += discover
            return value
        finally:
            if span is not None:
                tracer.end(span)

    def adaptive_wait(self, event: Event, tag: str = "adaptive"):
        """LITE's busy-check-then-sleep wait (§5.2).

        Busy-checks a shared ready page for ``adaptive_busy_window_us``;
        if the result is not ready by then, sleeps and pays the thread
        wakeup latency when the event finally fires.
        """
        tracer = self.sim.tracer
        span = (tracer.begin("cpu.wait", node=self.node_id, strategy="adaptive")
                if tracer is not None else None)
        try:
            params = self.params
            start = self.sim.now
            value = yield event
            waited = self.sim.now - start
            if waited <= params.adaptive_busy_window_us:
                # Result arrived within the busy window: charged in full,
                # found within one poll iteration.
                self.busy_time[tag] += waited
                discover = params.poll_loop_us / 2
                yield self.sim.timeout(discover)
                self.busy_time[tag] += discover
            else:
                # Burned the busy window, slept, then paid a wakeup.
                self.busy_time[tag] += params.adaptive_busy_window_us
                yield self.sim.timeout(params.thread_wakeup_us)
                self.busy_time[tag] += params.thread_wakeup_us
            return value
        finally:
            if span is not None:
                tracer.end(span)

    def sleep_wait(self, event: Event, tag: str = "sleep"):
        """Block immediately; pay only wakeup latency and cost."""
        tracer = self.sim.tracer
        span = (tracer.begin("cpu.wait", node=self.node_id, strategy="sleep")
                if tracer is not None else None)
        try:
            value = yield event
            yield self.sim.timeout(self.params.thread_wakeup_us)
            self.busy_time[tag] += self.params.thread_wakeup_us
            return value
        finally:
            if span is not None:
                tracer.end(span)
