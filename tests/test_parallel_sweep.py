"""Parallel sweep runner: serial == parallel, byte for byte.

The contract of ``repro.sweep`` (INTERNALS §12) is that ``--jobs N`` is
a pure wall-clock optimization: per-point results, their order, and any
table built from them must be identical to a serial run.  That requires
per-point isolation of every id — which these tests verify directly by
returning counter-derived ids from the points.
"""

import json
import multiprocessing

from repro.sweep import resolve_jobs, run_sweep

JOBS = 4


def _point(ops: int) -> dict:
    """One self-contained sweep point: boot a cluster, run ops, report
    deterministic results plus counter-derived ids (qpn, LMR handle)
    that leak any isolation failure between points or workers."""
    from repro.cluster import Cluster
    from repro.core import LiteContext, lite_boot

    cluster = Cluster(2)
    kernels = lite_boot(cluster)
    ctx = LiteContext(kernels[0], "sweep", kernel_level=True)
    holder = {}

    def setup():
        holder["lh"] = yield from ctx.lt_malloc(1 << 16, nodes=2)

    cluster.run_process(setup())
    payload = b"z" * 64

    def driver():
        for _ in range(ops):
            yield from ctx.lt_write(holder["lh"], 0, payload)

    cluster.run_process(driver())
    device = cluster[0].device
    pd = device.alloc_pd()
    probe_qp = device.create_qp(pd, "RC", send_cq=None)
    lh = holder["lh"]
    return {
        "ops": ops,
        "sim_us": cluster.sim.now,
        "events": cluster.sim._seq,
        "lh_id": lh.lh_id,
        "lmr_id": lh.mapping.lmr_id,
        "probe_qpn": probe_qp.qpn,
    }


def test_parallel_matches_serial_byte_identical():
    points = [20, 30, 40, 50, 60, 70]
    serial = run_sweep(_point, points, jobs=1)
    parallel = run_sweep(_point, points, jobs=JOBS)
    assert serial == parallel
    # Byte identity of the canonical serialization, not just equality:
    # float results must round-trip bit-exact through the worker pool.
    assert json.dumps(serial, sort_keys=True) == \
        json.dumps(parallel, sort_keys=True)
    # Results came back in point order, not completion order.
    assert [r["ops"] for r in parallel] == points


def test_worker_isolation_resets_global_counters():
    """Identical points must yield identical counter-derived ids no
    matter which worker ran them or how many ran before: a pool worker
    evaluates several points in one process, so an id shared between
    two simulations shows up as drifting qpn/handle ids."""
    points = [25] * (2 * JOBS)  # every worker sees at least ~2 points
    serial = run_sweep(_point, points, jobs=1)
    parallel = run_sweep(_point, points, jobs=JOBS)
    assert serial == parallel
    first = serial[0]
    for result in serial[1:] + parallel:
        assert result == first


def test_parallel_run_is_repeatable():
    points = [15, 35, 55]
    first = run_sweep(_point, points, jobs=JOBS)
    second = run_sweep(_point, points, jobs=JOBS)
    assert first == second


def test_results_tables_identical():
    """The figure runner's rendering: a table printed from a parallel
    sweep is character-identical to one printed from a serial sweep."""
    from benchmarks.figures import render

    points = [20, 40, 60]

    def render_table(jobs):
        rows = [
            (ops, result["sim_us"], result["events"])
            for ops, result in zip(points, run_sweep(_point, points,
                                                     jobs=jobs))
        ]
        return render("sweep determinism probe", ["ops", "sim_us", "events"],
                      rows)

    serial_table = render_table(1)
    parallel_table = render_table(JOBS)
    assert serial_table == parallel_table


def test_resolve_jobs():
    assert resolve_jobs(3) == 3
    assert resolve_jobs(-2) == 1
    assert resolve_jobs(2) == 2
    assert resolve_jobs(0) == multiprocessing.cpu_count()
