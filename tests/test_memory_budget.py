"""Host-memory ceilings for registration state (Fig 4's premise, §2.4).

tracemalloc counts the bytes Python allocates, which is deterministic
for one interpreter version, so these ceilings catch a regression in
what one registration or one first write costs in host RAM the way the
calls-per-op ceiling in ``test_fastpath_ctrl.py`` catches host work.
Each case traces from before the cluster is built (so frees of earlier
objects are subtracted), warms every first-use path, then measures a
window with the collector off and divides by the objects it made.

Run ``python tests/test_memory_budget.py`` to print the measured values.
"""

import gc
import sys
import tracemalloc

import pytest

from repro.cluster import Cluster
from repro.core import LiteContext, lite_boot
from repro.determinism import reset_global_counters
from repro.verbs import Access

KB = 1024

# Bytes per object, as measured per interpreter version; a rise of more
# than 10% fails.  Before short first-touch pages, the shared empty
# block table and slotted LMR records, 3.11 read 543.9 / 4,313.1 /
# 2,572.8.  Unlisted versions are held to the largest listed value.
_BUDGET = {
    (3, 11): {"mr_unwritten": 479.9, "first_write_64": 569.1,
              "remote_lt_malloc": 2076.8},
    (3, 13): {"mr_unwritten": 479.9, "first_write_64": 569.1,
              "remote_lt_malloc": 2068.8},
}


def _window(run, count):
    """Traced bytes ``run()`` leaves reachable, per object."""
    gc.collect()
    gc.disable()
    try:
        before = tracemalloc.get_traced_memory()[0]
        run()
        gc.collect()
        after = tracemalloc.get_traced_memory()[0]
    finally:
        gc.enable()
    return (after - before) / count


def _registered_mrs(count=256):
    """Bytes per never-written 4 KB MR, then per 64 B first write."""
    reset_global_counters()
    cluster = Cluster(2)
    device = cluster[1].device
    pd = device.alloc_pd()
    mrs = []

    def reg(n):
        for _ in range(n):
            mrs.append((yield from device.reg_mr(pd, 4 * KB, Access.ALL)))

    cluster.run_process(reg(count))
    unwritten = _window(lambda: cluster.run_process(reg(count)), count)
    data = b"w" * 64

    def first_writes():
        for mr in mrs[count:]:
            mr.region.write(0, data)

    return unwritten, _window(first_writes, count)


def _remote_lt_mallocs(count=100):
    """Bytes per kernel-level 4 KB lt_malloc on a remote node, after the
    control slots and every first-use path are warm."""
    reset_global_counters()
    cluster = Cluster(2)
    cluster.sim.fastpath_enabled = True
    kernels = lite_boot(cluster)
    ctx = LiteContext(kernels[0], "budget", kernel_level=True)
    target = kernels[1].lite_id
    keep = []

    def mallocs(n):
        for _ in range(n):
            keep.append((yield from ctx.lt_malloc(4 * KB, nodes=target)))

    cluster.run_process(mallocs(600))
    return _window(lambda: cluster.run_process(mallocs(count)), count)


def _measure():
    tracemalloc.start()
    try:
        unwritten, first_write = _registered_mrs()
        return {"mr_unwritten": unwritten, "first_write_64": first_write,
                "remote_lt_malloc": _remote_lt_mallocs()}
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def measured():
    return _measure()


@pytest.mark.parametrize("case", ["mr_unwritten", "first_write_64",
                                  "remote_lt_malloc"])
def test_registration_memory_ceiling(measured, case):
    budget = _BUDGET.get(sys.version_info[:2])
    if budget is None:
        budget = {name: max(row[name] for row in _BUDGET.values())
                  for name in measured}
    ceiling = 1.1 * budget[case]
    assert measured[case] <= ceiling, (
        f"{case}: {measured[case]:,.1f} traced bytes per object, ceiling "
        f"{ceiling:,.1f}")


if __name__ == "__main__":
    for name, value in _measure().items():
        print(f"{name}: {value:.1f}")
