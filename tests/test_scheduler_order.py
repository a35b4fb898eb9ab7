"""Scheduler tests for the now-queue + heap engine (INTERNALS §12).

Pins the two ordering invariants — total order by (time, seq) and
same-timestamp FIFO — plus the lazy-cancellation compaction bound: a
seeded cancel-storm chaos run must never grow the pending queues in
proportion to the number of cancelled timers.  (The reference-model
check lives in tests/test_scheduler.py.)
"""

import random

from repro.sim import Simulator
from repro.sim.engine import _COMPACT_MIN_CANCELLED


def _pending(sim) -> int:
    """Entries currently sitting in any scheduler tier (live or dead)."""
    return len(sim._heap) + len(sim._nowq)


# ------------------------------------------------------- ordering --


def test_same_timestamp_fifo_across_tiers():
    """Events landing on one timestamp fire in creation (seq) order even
    when they were armed at different distances: far in advance, from
    100 µs away, and with delay 0 at the deadline itself (now-queue)."""
    sim = Simulator()
    fired = []

    def late_armer():
        # Arm when=500 from t=400.
        yield sim.timeout(400.0)
        near_ev = sim.timeout(100.0)
        near_ev.callbacks.append(lambda _e: fired.append("near"))

    def at_deadline():
        # Wake exactly at 500 and push a delay-0 event: now-queue.
        yield sim.timeout(500.0)
        zero_ev = sim.timeout(0.0)
        zero_ev.callbacks.append(lambda _e: fired.append("nowq"))

    far_ev = sim.timeout(500.0)  # armed first, from t=0
    far_ev.callbacks.append(lambda _e: fired.append("far"))
    sim.process(late_armer())
    sim.process(at_deadline())
    sim.run()

    # All three fired at the same instant...
    assert sim.now == 500.0
    # ...and strictly in seq (creation) order: far (armed at t=0) before
    # near (armed at t=400) before nowq (armed at t=500; the at_deadline
    # process itself woke after the far event, its own timeout has a
    # later seq).
    assert fired == ["far", "near", "nowq"]


def test_randomized_total_order_across_tiers():
    """A seeded mix of delays from zero to milliseconds fires in exactly
    sorted-(when, seq) order."""
    sim = Simulator()
    rng = random.Random(11)
    fired = []
    delays = []
    for _ in range(400):
        bucket = rng.randrange(4)
        if bucket == 0:
            delays.append(0.0)  # now-queue
        elif bucket == 1:
            delays.append(rng.uniform(0.01, 4.0))  # dense
        elif bucket == 2:
            delays.append(rng.uniform(4.0, 250.0))  # sparse
        else:
            delays.append(rng.uniform(260.0, 9_000.0))  # far
    for index, delay in enumerate(delays):
        event = sim.timeout(delay)
        event.callbacks.append(
            lambda _e, index=index: fired.append((sim.now, index)))
    sim.run()

    expected = sorted(range(len(delays)), key=lambda i: (delays[i], i))
    assert [index for _time, index in fired] == expected
    for (time_fired, index) in fired:
        assert time_fired == delays[index]


# ----------------------------------------------- compaction bound --


def test_heap_stays_bounded_under_cancel_storm():
    """Satellite regression: the keep-alive pattern (arm a far deadline,
    complete fast, cancel) must not accrete dead timers.

    Under pure lazy cancellation every cancelled deadline sits in the
    heap until its distant expiry — pending grows linearly with op
    count (tens of thousands here).  Compaction must keep the resident
    total within a small constant factor of the live population.
    """
    sim = Simulator()
    rng = random.Random(7)
    workers = 8
    rounds = 3_000
    peak = [0]
    cancelled = [0]

    def worker():
        for _ in range(rounds):
            deadline = sim.timeout(10_000.0 + rng.random())
            yield sim.timeout(0.25 + rng.random())
            deadline.cancel()
            cancelled[0] += 1
            peak[0] = max(peak[0], _pending(sim))

    def driver():
        procs = [sim.process(worker()) for _ in range(workers)]
        for proc in procs:
            yield proc

    sim.run_process(driver())

    assert cancelled[0] == workers * rounds
    # Live population is ~2 timers per worker; allow compaction slack of
    # a few trigger thresholds, but nothing within an order of magnitude
    # of the 24 000 cancels issued.
    bound = 8 * _COMPACT_MIN_CANCELLED + 4 * workers
    assert peak[0] <= bound, (
        f"pending peaked at {peak[0]} entries (> {bound}): "
        f"cancelled timers are accreting in the scheduler"
    )


def test_cancel_storm_result_unchanged_by_compaction():
    """Compaction is invisible to simulation semantics: final time and
    any timers that do survive still fire exactly once, in order."""
    sim = Simulator()
    fired = []

    def churn():
        for index in range(500):
            doomed = sim.timeout(5_000.0)
            keeper = sim.timeout(2.0 + index)
            keeper.callbacks.append(
                lambda _e, index=index: fired.append(index))
            yield sim.timeout(1.0)
            doomed.cancel()

    sim.run_process(churn())
    sim.run()
    assert fired == list(range(500))
    # Keeper ``index`` is armed at t=index with delay 2+index, so the
    # last one fires at 2*499 + 2.
    assert sim.now == 1000.0
