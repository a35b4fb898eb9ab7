"""Fixtures shared by the Verbs-level test files, and the Hypothesis
profile of each test tier."""

import pytest
from hypothesis import settings

from repro.cluster import Cluster

# Tier 1 (the default ``-m 'not slow'``) replays the same examples on
# every run, so a pass or a coverage count never depends on the draw.
# A run that selects the slow tests (``-m slow``, ``-m ""``) keeps
# random exploration: that tier is where new counterexamples are found.
settings.register_profile("tier1", derandomize=True)


def pytest_configure(config):
    if "not slow" in config.getoption("markexpr"):
        settings.load_profile("tier1")


@pytest.fixture
def pair():
    """Two connected RC QPs across two nodes, with 4 KB MRs."""
    cluster = Cluster(2)
    state = {}

    def setup():
        a, b = cluster[0], cluster[1]
        pd_a, pd_b = a.device.alloc_pd(), b.device.alloc_pd()
        state["mr_a"] = yield from a.device.reg_mr(pd_a, 4096)
        state["mr_b"] = yield from b.device.reg_mr(pd_b, 4096)
        state["qa"] = a.device.create_qp(pd_a, "RC")
        state["qb"] = b.device.create_qp(pd_b, "RC")
        a.device.connect(state["qa"], state["qb"])

    cluster.run_process(setup())
    state["cluster"] = cluster
    return state
