"""The scheduler against a reference (INTERNALS §12).

A seeded program generator drives everything the engine orders —
``timeout()`` over every delay regime, delayed ``succeed()``,
``cancel()``, ``fp_schedule()``, timeout-vs-completion races, a
keep-alive cancel storm, processes that spawn processes — and the same
program is executed three ways: the inlined ``run()`` loop,
``run(until=...)`` in random slices (the ``peek()`` + ``step()`` form),
and a reference simulator that keeps one list sorted on ``(when, seq)``.
All three must agree on what fired, when, in which order, and on the
final ``_seq``.
"""

import random
from bisect import insort

import pytest

from repro.sim import Event, Simulator, Timeout


# ------------------------------------------------------ reference --


class _NowStamp:
    """Now-queue stand-in: the engine's inlined delay-0 enqueues bump
    ``_seq`` themselves and then call ``_nowq.append(event)``."""

    def __init__(self, sim):
        self._sim = sim

    def append(self, event):
        sim = self._sim
        insort(sim.pending, (sim.now, sim._seq, event))

    def __len__(self):
        return 0  # Event.cancel() sizes the queues for compaction


class ReferenceSimulator(Simulator):
    """One list kept sorted on ``(when, seq)`` — the total order itself.

    No tiers, no pools, no lazy-cancel bookkeeping, no inlined loop;
    events, processes and conditions are the engine's own classes.
    """

    __slots__ = ("pending",)

    def __init__(self):
        super().__init__()
        self.pending = []
        self._nowq = _NowStamp(self)

    def _enqueue(self, delay, event):
        self._seq += 1
        insort(self.pending, (self.now + delay, self._seq, event))

    def fp_schedule(self, when, fn):
        self._seq += 1
        insort(self.pending, (when, self._seq, fn))

    def event(self):
        return Event(self)

    def timeout(self, delay, value=None):
        return Timeout(self, delay, value)

    def run(self):
        while self.pending:
            when, _seq, item = self.pending.pop(0)
            if isinstance(item, Event):
                if not item._cancelled:
                    self.now = when
                    item._run_callbacks()
            else:
                self.now = when
                item()


# -------------------------------------------------------- program --


def _later(rng) -> float:
    """A strictly positive delay; quantized, so that many deadlines tie
    on one instant and the ``seq`` tie-break does real work."""
    regime = rng.randrange(4)
    if regime == 0:
        return rng.randrange(1, 8) / 8  # sub-µs
    if regime == 1:
        return float(rng.randrange(1, 251))  # wire / processing delays
    if regime == 2:
        return float(rng.randrange(256, 4000))  # deadlines
    return rng.uniform(0.0, 300.0) + 1e-3  # irregular


def _delay(rng) -> float:
    return 0.0 if rng.randrange(5) == 0 else _later(rng)


def _worker(sim, rng, log, armed, name, depth):
    for step in range(rng.randrange(5, 25)):
        action = rng.randrange(7)
        tag = f"{name}.{step}"
        if action == 0:
            yield sim.timeout(_delay(rng))
        elif action == 1:
            event = sim.event()
            event.succeed(tag, delay=_delay(rng))
            assert (yield event) == tag
        elif action == 2:
            # A callback-only timer; some other step may cancel it.
            timer = sim.timeout(_delay(rng))
            timer.callbacks.append(
                lambda _e, tag=tag: log.append((sim.now, "timer", tag)))
            armed.append(timer)
        elif action == 3:
            if armed:
                armed.pop(rng.randrange(len(armed))).cancel()
        elif action == 4:
            # A fast-path batch dispatch: strictly later than now (every
            # commit window has positive cost) and enqueue-only.
            gate = sim.event()

            def dispatch(gate=gate, tag=tag):
                log.append((sim.now, "fp", tag))
                gate.succeed(tag)

            sim.fp_schedule(sim.now + _later(rng), dispatch)
            if rng.randrange(2):
                assert (yield gate) == tag
        elif action == 5:
            # Timeout-vs-completion race; the losing timer is retired.
            reply = sim.event()
            reply.succeed(tag, delay=_delay(rng))
            deadline = sim.timeout(_delay(rng))
            yield sim.any_of([reply, deadline])
            deadline.cancel()
        elif depth < 3:
            child = sim.process(
                _worker(sim, rng, log, armed, f"{name}/{step}", depth + 1))
            if rng.randrange(2):
                yield child
        log.append((sim.now, "step", tag))


def _keepalive(sim, rng, log):
    """Arm a far deadline, finish fast, cancel: the pattern whose dead
    timers the engine compacts away mid-run."""
    for beat in range(300):
        deadline = sim.timeout(float(rng.randrange(3000, 6000)))
        yield sim.timeout(rng.randrange(1, 8) / 8)
        deadline.cancel()
        log.append((sim.now, "beat", beat))


def _execute(mode: str, seed: int):
    """Run the seed's program; returns (firing log, final seq, final now).

    One RNG is shared by every process of the program, so a single
    out-of-order firing changes every draw after it.
    """
    sim = ReferenceSimulator() if mode == "reference" else Simulator()
    rng = random.Random(seed)
    log = []
    armed = []
    for index in range(6):
        sim.process(_worker(sim, rng, log, armed, f"w{index}", 0))
    sim.process(_keepalive(sim, rng, log))
    if mode == "sliced":
        slicer = random.Random(seed + 1)
        while sim.peek() != float("inf"):
            sim.run(until=sim.peek()
                    + slicer.choice((0.0, 0.125, 1.0, 40.0, 700.0)))
    else:
        sim.run()
    return log, sim._seq, sim.now


@pytest.mark.parametrize("seed", range(8))
def test_run_step_and_reference_agree(seed, monkeypatch):
    compactions = []
    compact = Simulator._compact

    def counting_compact(sim):
        if type(sim) is Simulator:
            compactions.append(sim.now)
        compact(sim)

    monkeypatch.setattr(Simulator, "_compact", counting_compact)
    reference = _execute("reference", seed)
    assert not compactions
    inlined = _execute("run", seed)
    ran = len(compactions)
    sliced = _execute("sliced", seed)

    assert len(reference[0]) > 500, "the program must do real work"
    assert {kind for _now, kind, _tag in reference[0]} == {
        "step", "timer", "fp", "beat"}
    assert inlined == reference
    # A slice may end past the last event, so the clock is not compared.
    assert sliced[:2] == reference[:2]
    # Compaction ran in both engine forms (when exactly is theirs to
    # choose: the two discard dead heap tops at different moments).
    assert 0 < ran < len(compactions)


def test_reference_orders_same_instant_entries_by_seq():
    """The reference itself: a heap-bound, a fast-path and a now-queue
    entry due at one instant fire in creation order."""
    sim = ReferenceSimulator()
    fired = []

    def at_ten():
        yield sim.timeout(10.0)
        sim.event().succeed().callbacks.append(lambda _e: fired.append("zero"))

    sim.timeout(10.0).callbacks.append(lambda _e: fired.append("timeout"))
    sim.fp_schedule(10.0, lambda: fired.append("fp"))
    sim.process(at_ten())
    sim.run()
    assert fired == ["timeout", "fp", "zero"] and sim.now == 10.0
