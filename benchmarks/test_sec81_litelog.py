"""§8.1: LITE-Log commit throughput and scaling.

The paper reports ~833 K commits/s with two nodes concurrently
committing single-entry (16 B) transactions, and that throughput scales
with node count and transaction size.
"""

from repro.apps.litelog import LiteLog, LogWriter
from repro.core import LiteContext

from .common import lite_pair
from .figures import Figure

WINDOW_US = 4000.0
THREADS_PER_NODE = 3


def commit_loop(ctx, log_name: str, writer_id: int, window_us: float,
                entries: list, committed: list):
    """Open LITE-Log ``log_name`` and commit ``entries`` as one transaction
    after another for ``window_us``, counting commits in ``committed[0]``."""
    log = yield from LiteLog.open(ctx, log_name)
    writer = LogWriter(log, writer_id=writer_id)
    end = ctx.sim.now + window_us
    while ctx.sim.now < end:
        for entry in entries:
            writer.append(entry)
        yield from writer.commit()
        committed[0] += 1


def commit_rate(n_writer_nodes: int, entry_bytes: int,
                entries_per_tx: int = 1) -> float:
    cluster, kernels, _ = lite_pair(n_nodes=n_writer_nodes + 1)
    sim = cluster.sim
    home = kernels[-1].lite_id
    committed = [0]
    entries = [b"e" * entry_bytes] * entries_per_tx

    def writer(node, writer_id):
        ctx = LiteContext(kernels[node], f"w{writer_id}")
        return commit_loop(ctx, "tput", writer_id, WINDOW_US, entries,
                           committed)

    def driver():
        creator = LiteContext(kernels[0], "creator")
        yield from LiteLog.create(creator, "tput", 1 << 23, home_node=home)
        procs = [
            sim.process(writer(node, node * 8 + thread))
            for node in range(n_writer_nodes)
            for thread in range(THREADS_PER_NODE)
        ]
        yield sim.all_of(procs)

    cluster.run_process(driver())
    return committed[0] / (WINDOW_US / 1e6)  # commits per second


def run_sec81(_jobs):
    rows = []
    for writers, entry, per_tx in (
        (1, 16, 1),
        (2, 16, 1),
        (4, 16, 1),
        (2, 128, 1),
        (2, 16, 8),
    ):
        rate = commit_rate(writers, entry, per_tx)
        rows.append(
            (f"{writers} node(s), {per_tx}x{entry}B", rate / 1000.0)
        )
    return rows


RATE = "K commits/s"

SEC81 = Figure(
    "sec81", "Sec 8.1: LITE-Log commit throughput (K commits/s)",
    ["configuration", RATE], run_sec81,
    claim="~833 K commits/s with 2 committing nodes of 16 B transactions, "
          "scaling with nodes.",
    checks={
        "2 nodes of 16 B transactions commit 400-1600 K/s (paper: ~833 K/s)":
            lambda t: 400 < t["2 node(s), 1x16B"][RATE] < 1600,
        "2 committing nodes beat 1":
            lambda t: t["2 node(s), 1x16B"][RATE] > t["1 node(s), 1x16B"][RATE],
        "4 committing nodes beat 2":
            lambda t: t["4 node(s), 1x16B"][RATE] > t["2 node(s), 1x16B"][RATE],
        "bigger transactions never commit faster (latency-bound regime)":
            lambda t: (t["2 node(s), 1x128B"][RATE]
                       <= t["2 node(s), 1x16B"][RATE] * 1.02),
    },
)
