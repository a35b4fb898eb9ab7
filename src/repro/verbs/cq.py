"""Completion queues."""

from __future__ import annotations

from typing import List, Optional

from ..sim import Event, Simulator, Store
from .wr import WorkCompletion

__all__ = ["CompletionQueue"]


class CompletionQueue:
    """A CQ: RNICs push CQEs, software polls (or waits) for them.

    ``poll`` is the non-blocking Verbs-style drain; ``wait_wc`` returns
    an event for the next CQE so pollers can be modelled without
    simulating every idle poll-loop iteration (CPU accounting for the
    idle spin is done by :meth:`repro.hw.cpu.CpuSet.busy_wait`).
    """

    _next_id = 0

    def __init__(self, sim: Simulator, depth: int = 4096, name: str = ""):
        CompletionQueue._next_id += 1
        self.cq_id = CompletionQueue._next_id
        self.sim = sim
        self.depth = depth
        self.name = name or f"cq{self.cq_id}"
        self._store = Store(sim)
        self.pushed = 0
        self.polled = 0
        self.overflows = 0

    def push(self, wc: WorkCompletion) -> None:
        """RNIC side: append a CQE (drops + counts on overflow)."""
        if len(self._store) >= self.depth:
            # Real hardware would raise a fatal async event; count it and
            # drop, so benches can assert it never happens.
            self.overflows += 1
            return
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.instant("cq.cqe", cq=self.name, opcode=wc.opcode.value,
                           nbytes=wc.byte_len)
        wc.completed_at = self.sim.now
        self.pushed += 1
        self._store.put(wc)

    def poll(self, max_entries: int = 16) -> List[WorkCompletion]:
        """Drain up to ``max_entries`` CQEs immediately available.

        This is ``ibv_poll_cq(cq, max_entries, ...)``: one software poll
        harvesting a whole backlog of completions in a single call — the
        §5.2 completion-coalescing primitive.  Callers model the CPU cost
        as one poll charge per *call*, not per CQE (see
        :meth:`repro.hw.cpu.CpuSet.adaptive_poll`).
        """
        out: List[WorkCompletion] = []
        while len(out) < max_entries:
            wc = self._store.try_get()
            if wc is None:
                break
            out.append(wc)
        self.polled += len(out)
        return out

    # Verbs-style alias.
    poll_cq = poll

    def wait_wc(self) -> Event:
        """Event that fires with the next CQE (consumes it)."""
        event = self._store.get()
        if event.triggered:
            self.polled += 1
        else:
            event.callbacks.append(self._count_polled)
        return event

    def _count_polled(self, _event) -> None:
        self.polled += 1

    def __len__(self) -> int:
        return len(self._store)
