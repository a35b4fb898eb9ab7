"""Shared-resource primitives built on the event engine.

These mirror the small set of coordination constructs the LITE stack and
its applications need: counted resources (NIC processing slots, CPU
cores, round-robin-arbitrated links) and FIFO stores (message queues,
completion queues).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Optional

from .engine import Event, Simulator, SimulationError

__all__ = ["Resource", "FairResource", "Store"]


class Resource:
    """A counted resource with FIFO waiters.

    ``request()`` returns an event that fires once a slot is granted; the
    holder must call ``release()`` exactly once per granted request.
    """

    def __init__(self, sim: Simulator, capacity: int = 1):
        if capacity < 1:
            raise SimulationError(f"capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.in_use = 0
        self._waiters: Deque[Event] = deque()

    def request(self) -> Event:
        """Event granting one slot (immediately or when freed)."""
        event = self.sim.event()
        if self.in_use < self.capacity:
            self.in_use += 1
            event.succeed()
        else:
            self._waiters.append(event)
        return event

    def release(self) -> None:
        """Return one slot; hands it to the FIFO-next waiter."""
        if self.in_use <= 0:
            raise SimulationError("release() without a matching request()")
        if self._waiters:
            self._waiters.popleft().succeed()
        else:
            self.in_use -= 1


class FairResource:
    """Capacity-1 resource with round-robin arbitration across *flows*.

    Models how an RNIC/link scheduler serves backlogged QPs: each flow
    (QP) gets an equal share of grant slots, regardless of how many
    requests any single flow has queued.  ``request(flow)`` with the
    same flow key lands in that flow's FIFO; grants rotate round-robin
    over flows with waiters.  This is what makes HW-Sep-style QoS
    (reserving QPs per priority class) actually shape bandwidth.  Every
    fabric port's tx and rx side is one of these (hw/fabric.py).
    """

    def __init__(self, sim: Simulator, capacity: int = 1):
        if capacity < 1:
            raise SimulationError(f"capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.in_use = 0
        self._queues: "dict[object, Deque[Event]]" = {}
        self._rr: Deque[object] = deque()  # flows with waiters, RR order

    def request(self, flow: object = None) -> Event:
        event = self.sim.event()
        if self.in_use < self.capacity:
            self.in_use += 1
            event.succeed()
            return event
        queue = self._queues.get(flow)
        if queue is None:
            queue = self._queues[flow] = deque()
            self._rr.append(flow)
        queue.append(event)
        return event

    def release(self) -> None:
        if self.in_use <= 0:
            raise SimulationError("release() without a matching request()")
        while self._rr:
            flow = self._rr[0]
            queue = self._queues.get(flow)
            if not queue:
                self._rr.popleft()
                del self._queues[flow]
                continue
            event = queue.popleft()
            self._rr.rotate(-1)
            if not queue:
                # Flow drained: drop it from rotation.
                try:
                    self._rr.remove(flow)
                except ValueError:
                    pass
                del self._queues[flow]
            event.succeed()
            return
        self.in_use -= 1


class Store:
    """An unbounded FIFO of items with blocking ``get``.

    ``put`` never blocks (queues in LITE and Verbs have explicit overflow
    handling at a higher level); ``get`` returns an event that fires with
    the next item.
    """

    def __init__(self, sim: Simulator):
        self.sim = sim
        self.items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()

    def put(self, item: Any) -> None:
        """Enqueue an item (never blocks); wakes one getter."""
        if self._getters:
            self._getters.popleft().succeed(item)
        else:
            self.items.append(item)

    def get(self) -> Event:
        """Event yielding the next item (FIFO)."""
        event = self.sim.event()
        if self.items:
            event.succeed(self.items.popleft())
        else:
            self._getters.append(event)
        return event

    def try_get(self) -> Optional[Any]:
        """Non-blocking pop; returns None when empty (CQ polling)."""
        if self.items:
            return self.items.popleft()
        return None

    def __len__(self) -> int:
        return len(self.items)
