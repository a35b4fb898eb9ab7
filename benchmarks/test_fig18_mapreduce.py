"""Figure 18: WordCount — Phoenix vs LITE-MR (2/4/8 workers) vs Hadoop.

Same corpus, same total thread count (8) for every system.  Expected
shape: LITE-MR beats Hadoop by ~4-5.5x; LITE-MR's map+reduce phases
beat single-node Phoenix (per-node split index), its merge phase is
worse (distributed 2-way merging); LITE-MR improves mildly with more
workers.
"""

from repro.apps.mapreduce import HadoopMR, LiteMR, PhoenixMR
from repro.cluster import Cluster
from repro.core import lite_boot
from repro.workloads import generate_corpus

from .figures import Figure

TOTAL_THREADS = 8
WORKER_COUNTS = (2, 4, 8)


def run_fig18(_jobs):
    corpus = generate_corpus(256, 500, vocab_size=2000, seed=18)
    systems = [("Phoenix", 1, lambda c: PhoenixMR(c[0], n_threads=TOTAL_THREADS))]
    for workers in WORKER_COUNTS:
        systems += [
            (f"LITE-MR-{workers}", workers + 1,
             lambda c: LiteMR(lite_boot(c), total_threads=TOTAL_THREADS)),
            (f"Hadoop-{workers}", workers + 1,
             lambda c: HadoopMR(c.nodes, total_threads=TOTAL_THREADS)),
        ]
    rows, reference = [], None
    for name, n_nodes, make in systems:
        cluster = Cluster(n_nodes)
        engine = make(cluster)
        out = cluster.run_process(engine.run(corpus))
        if reference is None:
            reference = out  # Phoenix's counts
        assert out == reference, f"{name} result mismatch"
        rows.append((name, *(engine.phase_times[phase] / 1000.0
                             for phase in ("map", "reduce", "merge", "total"))))
    return rows


def _per_scale(check):
    """``check(lite_row, hadoop_row, phoenix_row)`` at every worker count."""
    return lambda t: all(
        check(t[f"LITE-MR-{workers}"], t[f"Hadoop-{workers}"], t["Phoenix"])
        for workers in WORKER_COUNTS)


FIG18 = Figure(
    "fig18", "Figure 18: WordCount run time (ms), 8 threads total",
    ["system", "map", "reduce", "merge", "total"], run_fig18,
    claim="Hadoop 4.3-5.3x slower than LITE-MR; LITE-MR beats Phoenix in "
          "map+reduce and loses in merge.",
    checks={
        # Paper: 4.3-5.3x.
        "Hadoop 3.5-7x slower than LITE-MR at every scale": _per_scale(
            lambda lite, hadoop, _p: 3.5 < hadoop["total"] / lite["total"] < 7.0),
        "LITE-MR's map+reduce beat Phoenix's (split per-node index)":
            _per_scale(lambda lite, _h, phoenix: (
                lite["map"] + lite["reduce"]
                < phoenix["map"] + phoenix["reduce"])),
        "LITE-MR's distributed merge is slower than Phoenix's":
            _per_scale(lambda lite, _h, phoenix: lite["merge"] > phoenix["merge"]),
        "more workers help (amortized LMR management, §8.2)": lambda t: (
            t["LITE-MR-8"]["total"] <= t["LITE-MR-2"]["total"] * 1.05),
        "LITE-MR-4 beats Phoenix end to end":
            lambda t: t["LITE-MR-4"]["total"] < t["Phoenix"]["total"],
    },
)
