"""Unit tests for the discrete-event engine."""

import pytest

from repro.sim import (
    AllOf,
    AnyOf,
    SimulationError,
    Simulator,
)


def test_timeout_advances_clock():
    sim = Simulator()

    def proc():
        yield sim.timeout(3.5)
        return sim.now

    assert sim.run_process(proc()) == 3.5
    assert sim.now == 3.5


def test_timeout_value_passthrough():
    sim = Simulator()

    def proc():
        value = yield sim.timeout(1, "payload")
        return value

    assert sim.run_process(proc()) == "payload"


def test_negative_timeout_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.timeout(-1)


def test_events_fire_in_time_order():
    sim = Simulator()
    order = []

    def waiter(delay, label):
        yield sim.timeout(delay)
        order.append(label)

    sim.process(waiter(5, "b"))
    sim.process(waiter(2, "a"))
    sim.process(waiter(9, "c"))
    sim.run()
    assert order == ["a", "b", "c"]


def test_fifo_order_for_simultaneous_events():
    sim = Simulator()
    order = []

    def waiter(label):
        yield sim.timeout(1)
        order.append(label)

    for label in "abcd":
        sim.process(waiter(label))
    sim.run()
    assert order == list("abcd")


def test_process_return_value_and_join():
    sim = Simulator()

    def child():
        yield sim.timeout(2)
        return 99

    def parent():
        value = yield sim.process(child())
        return value + 1

    assert sim.run_process(parent()) == 100


def test_event_succeed_wakes_waiter():
    sim = Simulator()
    gate = sim.event()
    seen = []

    def waiter():
        value = yield gate
        seen.append((sim.now, value))

    def firer():
        yield sim.timeout(4)
        gate.succeed("go")

    sim.process(waiter())
    sim.process(firer())
    sim.run()
    assert seen == [(4.0, "go")]


def test_event_double_trigger_rejected():
    sim = Simulator()
    event = sim.event()
    event.succeed()
    with pytest.raises(SimulationError):
        event.succeed()


def test_failed_event_raises_in_process():
    sim = Simulator()
    gate = sim.event()
    caught = []

    def waiter():
        try:
            yield gate
        except RuntimeError as exc:
            caught.append(str(exc))

    def firer():
        yield sim.timeout(1)
        gate.fail(RuntimeError("boom"))

    sim.process(waiter())
    sim.process(firer())
    sim.run()
    assert caught == ["boom"]


def test_unhandled_process_exception_propagates_via_stop():
    sim = Simulator()

    def exploder():
        yield sim.timeout(1)
        raise ValueError("bad")

    with pytest.raises(ValueError, match="bad"):
        sim.run_process(exploder())


def test_all_of_waits_for_every_event():
    sim = Simulator()

    def proc():
        timeouts = [sim.timeout(d, d) for d in (3, 1, 2)]
        results = yield sim.all_of(timeouts)
        return (sim.now, sorted(results.values()))

    now, values = sim.run_process(proc())
    assert now == 3.0
    assert values == [1, 2, 3]


def test_any_of_returns_on_first():
    sim = Simulator()

    def proc():
        results = yield sim.any_of([sim.timeout(5, "slow"), sim.timeout(1, "fast")])
        return (sim.now, list(results.values()))

    now, values = sim.run_process(proc())
    assert now == 1.0
    assert values == ["fast"]


def test_all_of_with_pretriggered_events():
    sim = Simulator()

    def proc():
        done = sim.event()
        done.succeed("x")
        yield sim.timeout(1)
        results = yield sim.all_of([done])
        return results[0]

    assert sim.run_process(proc()) == "x"


def test_run_until_stops_clock():
    sim = Simulator()
    ticks = []

    def ticker():
        while True:
            yield sim.timeout(10)
            ticks.append(sim.now)

    sim.process(ticker())
    sim.run(until=35)
    assert ticks == [10, 20, 30]
    assert sim.now == 35
    with pytest.raises(SimulationError):  # the clock never rewinds
        sim.run(until=34)
    assert sim.now == 35


def test_yielding_non_event_is_an_error():
    sim = Simulator()

    def bad():
        yield 42

    with pytest.raises(SimulationError):
        sim.run_process(bad())


def test_run_out_of_events_with_pending_stop_raises():
    sim = Simulator()
    never = sim.event()

    def idle():
        yield sim.timeout(1)

    sim.process(idle())
    with pytest.raises(SimulationError):
        sim.run(stop=never)


def test_nested_processes_three_deep():
    sim = Simulator()

    def leaf():
        yield sim.timeout(1)
        return 1

    def middle():
        value = yield sim.process(leaf())
        yield sim.timeout(1)
        return value + 1

    def root():
        value = yield sim.process(middle())
        return value + 1

    assert sim.run_process(root()) == 3
    assert sim.now == 2.0


# ---------------------------------------------------------------------------
# Cancellable timers and heap pruning
# ---------------------------------------------------------------------------
def test_cancelled_timeout_never_fires_or_advances_time():
    sim = Simulator()
    timer = sim.timeout(50)
    timer.cancel()
    assert timer.cancelled
    sim.run()
    assert sim.now == 0.0  # the heap was pruned, time never advanced


def test_cancel_after_processed_is_a_noop():
    sim = Simulator()
    timer = sim.timeout(5)
    sim.run()
    timer.cancel()
    assert not timer.cancelled
    assert timer.processed


def test_cancelling_race_loser_releases_the_heap():
    """The canonical timeout-vs-reply race: cancelling the losing timer
    means the simulation does not idle until the timer's deadline."""
    sim = Simulator()

    def proc():
        reply = sim.timeout(1, value="reply")
        timer = sim.timeout(1000)
        results = yield sim.any_of([reply, timer])
        timer.cancel()
        return results

    results = sim.run_process(proc())
    assert results == {0: "reply"}
    sim.run()
    assert sim.now == 1.0  # never crawled to the timer's t=1000


def test_peek_skips_cancelled_events():
    sim = Simulator()
    early = sim.timeout(3)
    sim.timeout(7)
    early.cancel()
    assert sim.peek() == 7.0


def test_any_of_both_branches_at_same_timestamp():
    """Two events at the same instant: FIFO order decides the winner and
    the loser still completes without corrupting the condition."""
    sim = Simulator()
    first = sim.timeout(5, value="first")
    second = sim.timeout(5, value="second")

    def proc():
        results = yield sim.any_of([first, second])
        return results

    results = sim.run_process(proc())
    assert results == {0: "first"}
    sim.run()  # drain the loser
    assert second.processed
    assert sim.now == 5.0


def test_process_termination_leaves_pending_events_harmless():
    """A stop-condition exit with events still queued must not wedge:
    the leftovers drain on the next run()."""
    sim = Simulator()
    sim.timeout(100)

    def quick():
        yield sim.timeout(1)
        return "done"

    proc = sim.process(quick())
    assert sim.run(stop=proc) == "done"
    assert sim.now == 1.0
    sim.run()
    assert sim.now == 100.0


def test_any_of_concurrent_failures_do_not_crash():
    """A second failing event after the condition resolved is defused."""
    sim = Simulator()

    def boom(delay):
        yield sim.timeout(delay)
        raise RuntimeError("boom")

    p1 = sim.process(boom(1))
    p2 = sim.process(boom(1))

    def waiter():
        try:
            yield sim.any_of([p1, p2])
        except RuntimeError:
            return "caught"

    assert sim.run_process(waiter()) == "caught"


def test_timeout_pool_recycles_without_changing_values():
    """Recycled Timeout objects must deliver their new value/delay."""
    sim = Simulator()
    seen = []

    def chain():
        for index in range(200):
            value = yield sim.timeout(0.5, value=index)
            seen.append(value)

    sim.run_process(chain())
    assert seen == list(range(200))
    assert sim.now == 100.0
    assert len(sim._timeout_pool) > 0  # the free list is actually in use


def test_timeout_pool_never_recycles_held_references():
    """A Timeout someone still holds is not reused underneath them."""
    sim = Simulator()
    held = []

    def holder():
        first = sim.timeout(1, value="keep-me")
        held.append(first)
        yield first
        # Allocate more timeouts; none may be the held object.
        for _ in range(10):
            yield sim.timeout(1)
        return first.value

    assert sim.run_process(holder()) == "keep-me"
    assert held[0] not in sim._timeout_pool
    assert held[0].value == "keep-me"
