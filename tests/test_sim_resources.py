"""Unit tests for simulation resources (Resource, Store)."""

import pytest

from repro.sim import (
    Resource,
    SimulationError,
    Simulator,
    Store,
)


def test_resource_grants_up_to_capacity():
    sim = Simulator()
    res = Resource(sim, capacity=2)
    granted = []

    def user(label, hold):
        yield res.request()
        granted.append((label, sim.now))
        yield sim.timeout(hold)
        res.release()

    sim.process(user("a", 10))
    sim.process(user("b", 10))
    sim.process(user("c", 10))
    sim.run()
    assert granted[0] == ("a", 0.0)
    assert granted[1] == ("b", 0.0)
    assert granted[2] == ("c", 10.0)


def test_resource_fifo_waiters():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    order = []

    def user(label):
        yield res.request()
        order.append(label)
        yield sim.timeout(1)
        res.release()

    for label in "abc":
        sim.process(user(label))
    sim.run()
    assert order == ["a", "b", "c"]


def test_release_without_request_raises():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    with pytest.raises(SimulationError):
        res.release()


def test_resource_invalid_capacity():
    sim = Simulator()
    with pytest.raises(SimulationError):
        Resource(sim, capacity=0)


def test_store_fifo_and_blocking_get():
    sim = Simulator()
    store = Store(sim)
    got = []

    def consumer():
        for _ in range(3):
            item = yield store.get()
            got.append((sim.now, item))

    def producer():
        store.put("x")
        yield sim.timeout(5)
        store.put("y")
        store.put("z")

    sim.process(consumer())
    sim.process(producer())
    sim.run()
    assert got == [(0.0, "x"), (5.0, "y"), (5.0, "z")]


def test_store_try_get():
    sim = Simulator()
    store = Store(sim)
    assert store.try_get() is None
    store.put(1)
    assert store.try_get() == 1
    assert store.try_get() is None
