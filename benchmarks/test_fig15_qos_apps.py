"""Figure 15: QoS with real applications (LITE-Log and LITE-Graph).

LITE-Log (network-bound commits) and LITE-Graph (CPU-heavy PageRank)
run at high priority against constant low-priority background writers.
Bars are performance normalized to the No-QoS run (higher is better),
plus the no-background-traffic ceiling.

Expected: SW-Pri recovers most of the no-background performance;
HW-Sep helps but less; LITE-Graph is less affected than LITE-Log
because it is more CPU-intensive (paper §6.2).
"""

from repro.apps.graph import LiteGraph, PartitionedGraph
from repro.apps.litelog import LiteLog
from repro.core import PRIORITY_HIGH, PRIORITY_LOW, LiteContext, Permission
from repro.hw import SimParams
from repro.workloads import powerlaw_graph

from .common import lite_pair
from .figures import Figure
from .test_sec81_litelog import commit_loop

QOS_PARAMS = SimParams(lite_qp_factor_k=4, lite_qp_window=4)
LOG_WINDOW_US = 4_000.0


def qos_cluster(mode, background: bool, n_nodes: int = 4):
    """LITE nodes in QoS ``mode``; with ``background``, low-priority writers
    hammer every other node with 4 KB writes until the returned list is
    appended to.  Returns (cluster, kernels, that list)."""
    cluster, kernels, _ = lite_pair(params=QOS_PARAMS, n_nodes=n_nodes)
    for kernel in kernels:
        kernel.qos.mode = mode
    stop_flag = []
    if not background:
        return cluster, kernels, stop_flag

    def setup():
        creator = LiteContext(kernels[0], "bg-creator")
        for kernel in kernels[1:]:
            yield from creator.lt_malloc(
                1 << 18, name=f"bg{kernel.lite_id}", nodes=kernel.lite_id,
                default_perm=Permission.READ | Permission.WRITE,
            )

    cluster.run_process(setup())

    def bg_thread(index):
        ctx = LiteContext(kernels[0], f"bg{index}", priority=PRIORITY_LOW)
        target = kernels[1 + index % (len(kernels) - 1)].lite_id
        lh = yield from ctx.lt_map(f"bg{target}")
        payload = b"b" * 4096
        while not stop_flag:
            yield from ctx.lt_write(lh, 0, payload)

    for index in range(12):
        cluster.sim.process(bg_thread(index))
    return cluster, kernels, stop_flag


def litelog_perf(mode, background: bool) -> float:
    cluster, kernels, stop_flag = qos_cluster(mode, background)
    sim = cluster.sim
    committed = [0]

    def writer(node_index, writer_id):
        ctx = LiteContext(
            kernels[node_index], f"log{writer_id}", priority=PRIORITY_HIGH
        )
        return commit_loop(ctx, "qlog", writer_id, LOG_WINDOW_US, [b"x" * 64],
                           committed)

    def driver():
        creator = LiteContext(kernels[0], "log-creator", priority=PRIORITY_HIGH)
        yield from LiteLog.create(creator, "qlog", 1 << 22, home_node=2)
        yield sim.timeout(200)  # let background traffic ramp
        procs = [
            sim.process(writer(node_index, node_index * 4 + thread))
            for node_index in (0, 3)
            for thread in range(4)
        ]
        yield sim.all_of(procs)
        stop_flag.append(True)

    cluster.run_process(driver())
    return committed[0] / LOG_WINDOW_US  # commits per us


def litegraph_perf(mode, background: bool) -> float:
    cluster, kernels, stop_flag = qos_cluster(mode, background)
    edges = powerlaw_graph(400, 6, seed=15)
    graph = PartitionedGraph(400, edges, 4)
    engine = LiteGraph(kernels, graph, threads_per_node=4)

    def driver():
        yield cluster.sim.timeout(200)
        yield from engine.run(4)
        stop_flag.append(True)

    cluster.run_process(driver())
    return 1.0 / engine.elapsed_us  # higher is better


def run_fig15(_jobs):
    rows = []
    for app_name, runner in (("LITE-Log", litelog_perf),
                             ("LITE-Graph", litegraph_perf)):
        baseline = runner(None, background=True)        # No QoS
        no_bg = runner(None, background=False)
        sw = runner("sw-pri", background=True)
        hw = runner("hw-sep", background=True)
        rows.append(
            (app_name, no_bg / baseline, sw / baseline, hw / baseline, 1.0)
        )
    return rows


FIG15 = Figure(
    "fig15", "Figure 15: QoS with real applications (performance vs No-QoS)",
    ["app", "No b/g traffic", "SW-Pri", "HW-Sep", "No QoS"], run_fig15,
    claim="SW-Pri recovers most of the no-background performance, HW-Sep "
          "less; the graph is less affected.",
    checks={
        "background traffic hurts: the clean run is the ceiling (> 1.05x)":
            lambda t: all(r["No b/g traffic"] > 1.05 for r in t),
        "SW-Pri beats HW-Sep (> 0.95x) for both apps":
            lambda t: all(r["SW-Pri"] > r["HW-Sep"] * 0.95 for r in t),
        "SW-Pri recovers a share of the ceiling (> 1.02x) for both apps":
            lambda t: all(r["SW-Pri"] > 1.02 for r in t),
        "LITE-Graph (CPU-bound) is less affected than LITE-Log": lambda t: (
            (t["LITE-Log"]["No b/g traffic"] - 1.0)
            > (t["LITE-Graph"]["No b/g traffic"] - 1.0) * 0.9),
    },
)
