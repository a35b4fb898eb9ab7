"""Discrete-event simulation engine.

A compact, from-scratch engine in the style of SimPy: a :class:`Simulator`
owns a time-ordered event queue, and :class:`Process` objects are Python
generators that ``yield`` :class:`Event` instances to wait on them.

All simulated time is in **microseconds** (float), matching the latency
scales reported in the LITE paper.

The engine is the wall-clock hot path of every benchmark, so its object
model is deliberately slotted and allocation-light: all event classes
carry ``__slots__``, and :class:`Timeout` instances — by far the most
frequently allocated event kind — are recycled through a free-list pool
once the engine can prove (via the reference count) that no simulation
code still holds them.

The scheduler has two tiers (see docs/INTERNALS.md §12):

- a FIFO *now-queue* for events due at the current instant (process
  resumptions, ``succeed()``/``fail()``, zero timeouts) — the majority
  of all enqueues, served with no comparisons and no tuple allocation;
- one binary *heap* keyed ``(time, seq)`` for every later deadline.
  Pending timers peak at 40 on the benchmark workloads and ~100
  over the figure suite, where a C ``heappush`` is a handful of tuple
  comparisons; a nearer tier in front of it measured slower.

The total order is that of a single heap keyed ``(time, seq)``:
``seq`` increments on every enqueue, heap entries carry it explicitly,
and now-queue entries are provably newer (larger ``seq``) than any
same-timestamp heap entry, so FIFO order *is* seq order.  Cancelled
events are discarded lazily at the queue front and compacted wholesale
when they exceed half of all pending entries.
"""

from __future__ import annotations

import heapq
import itertools
import os
from collections import deque
from dataclasses import dataclass, fields
from sys import getrefcount
from types import GeneratorType
from typing import Any, Callable, Generator, Iterable, List, Optional

__all__ = [
    "Simulator",
    "Event",
    "Timeout",
    "Process",
    "AllOf",
    "AnyOf",
    "SimulationError",
]


class SimulationError(Exception):
    """Raised for illegal uses of the simulation API."""


PENDING = object()

# Cap on the recycled-Timeout free list (objects, not bytes).
_TIMEOUT_POOL_MAX = 4096
# Cap on the recycled plain-Event free list.
_EVENT_POOL_MAX = 4096

# Lazy-cancellation compaction: rebuild the queues once cancelled
# entries outnumber live ones, but never bother below this many.
_COMPACT_MIN_CANCELLED = 64


class Event:
    """A one-shot occurrence at a point in simulated time.

    Events start *pending*; they are later *triggered* (succeed or fail)
    and their callbacks run when the simulator pops them off the heap.
    """

    __slots__ = ("sim", "callbacks", "_value", "_ok", "_defused", "_cancelled")

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = PENDING
        self._ok: Optional[bool] = None
        self._defused = False
        self._cancelled = False

    @property
    def triggered(self) -> bool:
        """True once succeed()/fail() has been called."""
        return self._value is not PENDING

    @property
    def processed(self) -> bool:
        """True once the callbacks have run (value is final)."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True when the event succeeded (raises if pending)."""
        if self._ok is None:
            raise SimulationError("event not yet triggered")
        return self._ok

    @property
    def value(self) -> Any:
        """The event's result (raises if still pending)."""
        if self._value is PENDING:
            raise SimulationError("event not yet triggered")
        return self._value

    def succeed(self, value: Any = None, delay: float = 0.0) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._value is not PENDING:
            raise SimulationError("event already triggered")
        self._ok = True
        self._value = value
        sim = self.sim
        if delay == 0.0:
            # Inlined delay-0 _enqueue: the dominant case (resource
            # grants, completions) goes straight to the now-queue.
            sim._seq += 1
            sim._nowq.append(self)
        else:
            sim._enqueue(delay, self)
        return self

    def fail(self, exception: BaseException, delay: float = 0.0) -> "Event":
        """Trigger the event as failed with ``exception``."""
        if self._value is not PENDING:
            raise SimulationError("event already triggered")
        if not isinstance(exception, BaseException):
            raise SimulationError("fail() needs an exception instance")
        self._ok = False
        self._value = exception
        sim = self.sim
        if delay == 0.0:
            sim._seq += 1
            sim._nowq.append(self)
        else:
            sim._enqueue(delay, self)
        return self

    @property
    def cancelled(self) -> bool:
        """True once cancel() was called before the callbacks ran."""
        return self._cancelled

    def cancel(self) -> None:
        """Cancel the event: its callbacks never run.

        The main use is retiring the loser of a timeout-vs-completion
        race (``AnyOf([reply, timeout])``): cancelling the pending timer
        keeps long retry deadlines from pinning the event heap.  A
        cancelled event stays lazily in the heap and is discarded when
        it reaches the front.  No-op on an already-processed event.
        Cancelling an event that a process is directly waiting on leaves
        that process parked forever — only cancel events nobody waits on.
        """
        if self.callbacks is None or self._cancelled:
            return
        self._cancelled = True
        sim = self.sim
        cancelled = sim._ncancelled + 1
        sim._ncancelled = cancelled
        if (cancelled >= _COMPACT_MIN_CANCELLED
                and cancelled * 2 > len(sim._heap) + len(sim._nowq)):
            sim._compact()

    def _run_callbacks(self) -> None:
        callbacks, self.callbacks = self.callbacks, None
        for callback in callbacks:
            callback(self)
        if self._ok is False and not self._defused:
            raise self._value


class Timeout(Event):
    """An event that fires ``delay`` microseconds after creation."""

    __slots__ = ()

    def __init__(self, sim: "Simulator", delay: float, value: Any = None):
        if delay < 0:
            raise SimulationError(f"negative timeout delay: {delay}")
        super().__init__(sim)
        self._ok = True
        self._value = value
        sim._enqueue(delay, self)


class Process(Event):
    """Wraps a generator; it is itself an event that fires on return.

    The generator yields :class:`Event` objects.  When a yielded event
    succeeds, its value is sent back into the generator; when it fails,
    the exception is thrown into the generator.
    """

    __slots__ = ("_generator", "name", "_ctx", "_cb")

    def __init__(self, sim: "Simulator", generator: Generator, name: str = ""):
        super().__init__(sim)
        if type(generator) is not GeneratorType and (
                not hasattr(generator, "send")
                or not hasattr(generator, "throw")):
            raise SimulationError(f"process target is not a generator: {generator!r}")
        self._generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        # Tracing context: a spawned process inherits the spawner's
        # current span, like task-local state in an async runtime.
        tracer = sim.tracer
        self._ctx = tracer.current if tracer is not None else None
        # The one bound-method object this process ever subscribes with
        # (a fresh `self._resume` per park would allocate every time).
        self._cb = self._resume
        # Bootstrap: resume once at the current time (inlined delay-0
        # enqueue — straight to the now-queue).
        start = sim.event()
        start._ok = True
        start._value = None
        start.callbacks.append(self._cb)
        sim._seq += 1
        sim._nowq.append(start)

    @property
    def is_alive(self) -> bool:
        """True while the process generator has not finished."""
        return self._value is PENDING

    def _resume(self, event: Event) -> None:
        sim = self.sim
        generator = self._generator
        send = generator.send
        tracer = sim.tracer
        if tracer is not None:
            tracer.current = self._ctx
        while True:
            try:
                if event._ok:
                    target = send(event._value)
                else:
                    event._defused = True
                    target = generator.throw(event._value)
            except StopIteration as exc:
                if tracer is not None:
                    tracer.current = None
                self.succeed(exc.value)
                return
            except BaseException as exc:
                if tracer is not None:
                    tracer.current = None
                self.fail(exc)
                return

            cls = type(target)
            if (cls is not Timeout and cls is not Event
                    and not isinstance(target, Event)):
                exc = SimulationError(
                    f"process {self.name!r} yielded a non-event: {target!r}"
                )
                try:
                    generator.throw(exc)
                except StopIteration as stop:
                    if tracer is not None:
                        tracer.current = None
                    self.succeed(stop.value)
                    return
                except BaseException as err:
                    if tracer is not None:
                        tracer.current = None
                    self.fail(err)
                    return
                continue

            if target.callbacks is None:
                # Already processed; resume immediately with its value.
                event = target
                continue

            target.callbacks.append(self._cb)
            if tracer is not None:
                # Park the span context with the process across the wait.
                self._ctx = tracer.current
                tracer.current = None
            return


class _Condition(Event):
    """Base for AllOf/AnyOf composite events."""

    __slots__ = ("events", "_pending")

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim)
        self.events = list(events)
        self._pending = 0
        already_processed = None
        for event in self.events:
            if not isinstance(event, Event):
                raise SimulationError(f"non-event in condition: {event!r}")
            if event.callbacks is None:
                if already_processed is None:
                    already_processed = []
                already_processed.append(event)
            else:
                self._pending += 1
                event.callbacks.append(self._observe)
        if already_processed:
            for event in already_processed:
                if self.triggered:
                    break
                self._pre_observe(event)
        self._check_start()

    def _observe(self, event: Event) -> None:
        raise NotImplementedError

    def _pre_observe(self, event: Event) -> None:
        """Handle an event that was already processed at condition birth."""
        raise NotImplementedError

    def _check_start(self) -> None:
        raise NotImplementedError

    def _results(self) -> dict:
        return {
            index: event._value
            for index, event in enumerate(self.events)
            if event.callbacks is None and event._ok
        }


class AllOf(_Condition):
    """Fires when every constituent event has fired."""

    __slots__ = ()

    def _observe(self, event: Event) -> None:
        if event._ok is False:
            # Defuse even when the condition already fired: a second
            # concurrent failure must not crash the run.
            event._defused = True
        if self._value is not PENDING:
            return
        if event._ok is False:
            self.fail(event._value)
            return
        self._pending -= 1
        if self._pending <= 0:
            self.succeed(self._results())

    def _pre_observe(self, event: Event) -> None:
        if event._ok is False:
            self.fail(event._value)

    def _check_start(self) -> None:
        if self._value is PENDING and self._pending <= 0:
            self.succeed(self._results())


class AnyOf(_Condition):
    """Fires when the first constituent event fires.

    The timeout-vs-completion races wait on it (core/kernel.py,
    core/rpc.py), cancelling the losing timer afterwards.
    """

    __slots__ = ()

    def _observe(self, event: Event) -> None:
        if event._ok is False:
            # Losers failing after the race resolved must not crash.
            event._defused = True
        if self._value is not PENDING:
            return
        if event._ok is False:
            self.fail(event._value)
            return
        self.succeed(self._results())

    def _pre_observe(self, event: Event) -> None:
        if event._ok is False:
            self.fail(event._value)
        else:
            self.succeed(self._results())

    def _check_start(self) -> None:
        return None


class Ids:
    """The id counters of one simulation, one per kind.

    Keys, QPNs, LMR ids, handles, tokens, ports and job names are unique
    within the cluster that hands them out, as on a real fabric (paper
    §4.1: "an lh of an LMR is local to a process on a node").  Their
    digit counts set control-message sizes, so each simulator counts
    from the same start: two simulations in one process see the same
    ids and the same simulated time.  Allocation is ``next(sim.ids.kind)``.
    """

    __slots__ = ("key", "qpn", "kernel_token", "rpc_token", "anon",
                 "session", "lmr", "lh", "tcp_conn", "hadoop_port",
                 "powergraph_port", "mr_job", "graph_job", "dsm_job")

    def __init__(self):
        count = itertools.count
        self.key = count(1000)
        self.hadoop_port = count(20000)
        self.powergraph_port = count(30000)
        for kind in ("qpn", "kernel_token", "rpc_token", "anon", "session",
                     "lmr", "lh", "tcp_conn", "mr_job", "graph_job",
                     "dsm_job"):
            setattr(self, kind, count(1))


@dataclass
class FastPathStats:
    """The fast-path counters of one simulation (host-side only, not
    sim state): ``verbs/fastpath.py`` counts on ``qp.sim.fastpath``.

    ``attempts``/``commits`` count both entries (LITE's post-time one
    and the native start-hop one).  Every declined attempt is also
    counted once, under the first entry condition that failed (the
    ``rej_*`` counters; INTERNALS §13 lists what each check covers), so
    attempts = commits + rejects.  ``snapshot(cluster).fastpath`` is a
    copy, and ``Snapshot.delta`` subtracts it.
    """

    attempts: int = 0
    commits: int = 0
    mismodels: int = 0
    table_builds: int = 0
    rej_shape: int = 0
    rej_qp_state: int = 0
    rej_pred: int = 0
    rej_sq: int = 0
    rej_nowq: int = 0
    rej_table: int = 0
    rej_pipeline: int = 0
    rej_port: int = 0
    rej_floor: int = 0
    rej_miss: int = 0
    rej_target: int = 0
    rej_recv: int = 0
    rej_horizon: int = 0

    def delta(self, baseline: "FastPathStats") -> "FastPathStats":
        """Counts since ``baseline``."""
        return FastPathStats(*(
            getattr(self, f.name) - getattr(baseline, f.name)
            for f in fields(self)))


class Simulator:
    """The event loop: owns simulated time and the pending-event queues.

    Pending events live in one of two structures sharing a single total
    order keyed ``(time, seq)``:

    - ``_nowq``: deque of events due exactly at ``now`` (FIFO = seq
      order; see module docstring for why that holds);
    - ``_heap``: binary heap of ``(time, seq, event)`` tuples for every
      later deadline.

    ``_seq`` still increments on *every* enqueue (it doubles as the
    engine's total-event counter for benchmarks), even though now-queue
    entries never materialize their tuple.
    """

    __slots__ = ("now", "_heap", "_seq", "_timeout_pool", "_event_pool",
                 "tracer", "_nowq", "_ncancelled", "_fpq", "fastpath_enabled",
                 "ids", "fastpath")

    def __init__(self):
        self.now: float = 0.0
        self._heap: list = []
        self._seq = 0
        # Recycled Timeout / plain-Event instances (see step()).  Bounded
        # deques: append on a full pool silently evicts the oldest, so
        # the hot recycle path needs no length check.  Kept because they
        # pay: rpc_fanin ran 17% slower without them (INTERNALS §12).
        self._timeout_pool: deque = deque(maxlen=_TIMEOUT_POOL_MAX)
        self._event_pool: deque = deque(maxlen=_EVENT_POOL_MAX)
        # Observability hook (repro.obs.Tracer); None = tracing off.
        self.tracer = None
        self._nowq: deque = deque()
        # Cancelled events still sitting in a queue (compaction trigger).
        self._ncancelled = 0
        # Fast-path batch queue: ``(when, seq, fn)`` tuples scheduled by
        # run-to-completion op commits (see verbs/fastpath.py).  Each
        # entry is one *batch dispatch*: the callable applies every state
        # transition (resource releases, CQE pushes, completion wake-ups)
        # that lands at that instant, replacing one scheduled event per
        # transition.  Entries are never cancelled, and seqs are unique,
        # so the callable is never compared.  A queue of its own, so
        # that fp_horizon() sees ordinary events only.
        self._fpq: list = []
        # Kill switch for run-to-completion op execution.  Read once at
        # construction; tests may also flip the attribute directly.
        self.fastpath_enabled = os.environ.get("REPRO_NO_FASTPATH", "") != "1"
        self.ids = Ids()
        self.fastpath = FastPathStats()

    # -- scheduling -----------------------------------------------------
    def _enqueue(self, delay: float, event: Event) -> None:
        seq = self._seq + 1
        self._seq = seq
        now = self.now
        when = now + delay
        if when == now:
            # Due this instant: plain FIFO, no tuple, no comparisons.
            self._nowq.append(event)
        else:
            heapq.heappush(self._heap, (when, seq, event))

    def _earliest(self):
        """The earliest live heap entry, or ``None``.

        Cancelled entries at the front are discarded on the way.  The
        now-queue is *not* considered: its entries sort after any
        same-timestamp heap entry (larger seq), so callers handle it
        separately.
        """
        heap = self._heap
        while heap:
            entry = heap[0]
            if not entry[2]._cancelled:
                return entry
            heapq.heappop(heap)
            self._ncancelled -= 1
        return None

    def fp_schedule(self, when: float, fn: Callable[[], None]) -> None:
        """Schedule a fast-path batch dispatch at absolute time ``when``.

        ``fn`` runs with ``now == when``, ordered against ordinary
        events by ``(when, seq)`` exactly as if it had been enqueued
        here as an event.  It must only *enqueue* further work (succeed
        events, release resources), never run callbacks synchronously.
        Callers pass ``when > now`` (a commit window has positive cost):
        a same-instant dispatch has no recorded order against now-queue
        entries, which carry no seq.
        """
        seq = self._seq + 1
        self._seq = seq
        heapq.heappush(self._fpq, (when, seq, fn))

    def fp_nowq_inert(self) -> bool:
        """True when popping the whole now-queue would run nothing.

        A triggered entry with no callbacks — typically the completion
        event of the handler process that just posted — executes no code
        when popped, and nothing can subscribe to it first: under a
        commit the only actors left at this instant are the other
        now-queue entries, which this same test found inert.  (A failed
        entry is never inert: popping it raises.)
        """
        for event in self._nowq:
            if event.callbacks or event._ok is False:
                return False
        return True

    def fp_horizon(self) -> float:
        """Earliest pending *ordinary* event time (``inf`` if none).

        Fast-path commit asks: "can anything already scheduled observe
        intermediate state before this op would finish?"  Pending batch
        dispatches are invisible — they belong to already-committed fast
        ops whose interleaving is accounted for — so only the now-queue
        (unless inert, see :meth:`fp_nowq_inert`) and the heap are
        consulted.

        The horizon is cluster-global: there is one event loop for every
        simulated host, so a single comparison covers both ends of a
        committed op — a pending event on either host (a fault-plan
        crash, a lease sweep, an unrelated op) bounds the same horizon
        and vetoes the commit.
        """
        if self._nowq and not self.fp_nowq_inert():
            return self.now
        entry = self._earliest()
        return entry[0] if entry is not None else float("inf")

    def _compact(self) -> None:
        """Rebuild the queues without their cancelled entries.

        Triggered from :meth:`Event.cancel` once cancelled entries
        outnumber live ones, so chaos/keep-alive workloads that cancel
        long retry deadlines by the thousand do not accrete dead timers
        (the queues are mutated in place: ``run()`` holds references).
        """
        heap = self._heap
        live = [entry for entry in heap if not entry[2]._cancelled]
        heapq.heapify(live)
        heap[:] = live
        nowq = self._nowq
        for _ in range(len(nowq)):
            event = nowq.popleft()
            if not event._cancelled:
                nowq.append(event)
        self._ncancelled = 0

    def event(self) -> Event:
        """A fresh untriggered event."""
        pool = self._event_pool
        if pool:
            event = pool.pop()
            event.callbacks = []
            event._value = PENDING
            event._ok = None
            event._defused = False
            event._cancelled = False
            return event
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """An event firing ``delay`` us from now."""
        pool = self._timeout_pool
        if pool:
            if delay < 0:
                raise SimulationError(f"negative timeout delay: {delay}")
            event = pool.pop()
            event.callbacks = []
            event._value = value
            event._ok = True
            event._defused = False
            event._cancelled = False
            # _enqueue inlined: timeouts are the hottest enqueue source.
            seq = self._seq + 1
            self._seq = seq
            now = self.now
            when = now + delay
            if when == now:
                self._nowq.append(event)
            else:
                heapq.heappush(self._heap, (when, seq, event))
            return event
        return Timeout(self, delay, value)

    def process(self, generator: Generator, name: str = "") -> Process:
        """Spawn ``generator`` as a concurrent process."""
        return Process(self, generator, name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Event firing when every given event has fired."""
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Event firing when the first given event fires."""
        return AnyOf(self, events)

    # -- execution ------------------------------------------------------
    def step(self) -> None:
        """Pop and execute the next scheduled event.

        The plain one-event-at-a-time form: ``run(until=...)`` is built
        on it, and tests/test_scheduler.py checks the inlined ``run()``
        loop against it.
        """
        nowq = self._nowq
        while nowq and nowq[0]._cancelled:
            nowq.popleft()
            self._ncancelled -= 1
        # The heap top and the fast-path batch queue's compete on
        # (when, seq); seqs are unique, so the third field never compares.
        entry = self._earliest()
        source = self._heap
        fpq = self._fpq
        if fpq and (entry is None or fpq[0] < entry):
            entry = fpq[0]
            source = fpq
        if nowq and (entry is None or entry[0] != self.now):
            # Only a same-instant heap/fp entry (smaller seq) may precede
            # something due this very instant.
            event = nowq.popleft()
        elif entry is None:
            return
        else:
            when = entry[0]
            if when < self.now:
                raise SimulationError("time went backwards")
            heapq.heappop(source)
            self.now = when
            if source is fpq:
                entry[2]()
                return
            event = entry[2]
        # Drop the tuple so the refcount-2 recycle proof below holds.
        entry = None
        event._run_callbacks()
        # Recycle Timeouts/Events nobody references anymore: the queue
        # entry is gone and the waiter resumed, so a refcount of 2
        # (local + getrefcount argument) proves the object is garbage.
        cls = type(event)
        if cls is Timeout:
            if getrefcount(event) == 2:
                self._timeout_pool.append(event)
        elif cls is Event:
            if getrefcount(event) == 2:
                self._event_pool.append(event)

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        nowq = self._nowq
        while nowq and nowq[0]._cancelled:
            nowq.popleft()
            self._ncancelled -= 1
        when = self.now if nowq else self.fp_horizon()
        fpq = self._fpq
        return fpq[0][0] if fpq and fpq[0][0] < when else when

    def run(self, until: Optional[float] = None, stop: Optional[Event] = None):
        """Run until the queues drain, ``until`` passes, or ``stop`` fires.

        Returns the value of ``stop`` if given and it fired.

        The unbounded form (``until is None``) is the wall-clock hot
        loop of every benchmark, so the dispatch is inlined here rather
        than calling :meth:`step` per event.  It cycles three phases:

        1. pop every heap entry due at the current instant (they carry
           smaller seqs than anything in the now-queue);
        2. drain the now-queue with *no* heap checks — nothing processed
           in this phase can schedule a new heap entry that is due at
           the current instant;
        3. advance ``now`` to the heap top and loop (phase 1 pops it).

        Phases 1 and 2 repeat one dispatch body on purpose: merging them
        would put a heap-top test on every now-queue pop, the hottest
        loop in the repo.  Event processing order is identical to
        repeated :meth:`step`.
        """
        if stop is not None and not isinstance(stop, Event):
            raise SimulationError("stop must be an Event")
        nowq = self._nowq
        heap = self._heap
        if until is not None:
            if until < self.now:
                raise SimulationError(f"until={until} is before now={self.now}")
            while nowq or heap or self._fpq:
                if stop is not None and stop.callbacks is None:
                    break
                if self.peek() > until:
                    self.now = until
                    break
                self.step()
        else:
            heappop = heapq.heappop
            popleft = nowq.popleft
            timeout_pool = self._timeout_pool
            event_pool = self._event_pool
            timeout_cls = Timeout
            event_cls = Event
            refcount = getrefcount
            fpq = self._fpq
            running = not (stop is not None and stop.callbacks is None)
            while running and (nowq or heap or fpq):
                # -- phase 1: heap entries due at the current instant --
                # (plus fast-path batch dispatches, merged in (when, seq)
                # order; their callables only enqueue further work, so
                # they cannot trigger ``stop`` mid-phase.)
                # No heap tuple is held across a dispatch: the refcount-2
                # recycle proof needs the popped entry gone.
                now = self.now
                while True:
                    due = heap and heap[0][0] == now
                    if fpq and fpq[0][0] == now and (
                        not due or fpq[0][1] < heap[0][1]
                    ):
                        fn = heappop(fpq)[2]
                        fn()
                        continue
                    if not due:
                        break
                    event = heappop(heap)[2]
                    if event._cancelled:
                        self._ncancelled -= 1
                        continue
                    callbacks = event.callbacks
                    event.callbacks = None
                    for callback in callbacks:
                        callback(event)
                    if event._ok is False and not event._defused:
                        raise event._value
                    cls = type(event)
                    if cls is timeout_cls:
                        if refcount(event) == 2:
                            timeout_pool.append(event)
                    elif cls is event_cls:
                        if refcount(event) == 2:
                            event_pool.append(event)
                    if stop is not None and stop.callbacks is None:
                        running = False
                        break
                if not running:
                    break
                # -- phase 2: the now-queue ---------------------------
                while nowq:
                    event = popleft()
                    if event._cancelled:
                        self._ncancelled -= 1
                        continue
                    callbacks = event.callbacks
                    event.callbacks = None
                    for callback in callbacks:
                        callback(event)
                    if event._ok is False and not event._defused:
                        raise event._value
                    cls = type(event)
                    if cls is timeout_cls:
                        if refcount(event) == 2:
                            timeout_pool.append(event)
                    elif cls is event_cls:
                        if refcount(event) == 2:
                            event_pool.append(event)
                    if stop is not None and stop.callbacks is None:
                        running = False
                        break
                if not running:
                    break
                # -- phase 3: advance the clock -----------------------
                # (_earliest() inlined, once per simulated instant.)  Only
                # the time is needed — phase 1 pops everything due at the
                # new instant in (time, seq) order.
                when = None
                while heap:
                    top = heap[0]
                    if top[2]._cancelled:
                        heappop(heap)
                        self._ncancelled -= 1
                        continue
                    when = top[0]
                    top = None
                    break
                if fpq:
                    fpq_when = fpq[0][0]
                    if when is None or fpq_when < when:
                        # Pure fast-path stretch: every pending batch
                        # dispatch up to the heap top runs in this tight
                        # drain.  The callables only enqueue to the
                        # now-queue (never to the heap), so ``when`` —
                        # the earliest ordinary time — cannot move while
                        # draining, and same-instant (when, seq)
                        # interleaving with heap entries is phase 1's job
                        # the moment the drain reaches ``when``.
                        self.now = fpq_when
                        while True:
                            fn = heappop(fpq)[2]
                            fn()
                            if nowq or not fpq:
                                break
                            fpq_when = fpq[0][0]
                            if when is not None and fpq_when >= when:
                                break
                            self.now = fpq_when
                        continue
                if when is None:
                    break
                if when < self.now:
                    raise SimulationError("time went backwards")
                self.now = when
        if stop is not None:
            if not stop.triggered:
                raise SimulationError(
                    "simulation ran out of events before stop condition fired"
                )
            if stop._ok:
                return stop._value
            stop._defused = True
            raise stop._value
        return None

    def run_process(self, generator: Generator, until: Optional[float] = None):
        """Convenience: spawn ``generator`` and run until it finishes."""
        proc = self.process(generator)
        return self.run(until=until, stop=proc)
