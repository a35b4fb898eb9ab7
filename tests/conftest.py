"""Fixtures shared by the Verbs-level test files."""

import pytest

from repro.cluster import Cluster


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
