"""§2.4 control-plane axis: connection setup cost vs QP pooling.

Stock verbs pays ibv_create_qp + the RESET→INIT→RTR→RTS ladder on both
endpoints, a librdmacm handshake, and MR registration before a new
client's first op — milliseconds on real hardware (the KRCORE
motivation measurements).  LITE's kernel-space indirection lets one
node pre-build reserved RC connections and *lease* them: an elastic
client's attach is then a metadata-only grant and its time-to-first-op
collapses to data-plane scale.

The figure drives the elastic-churn workload (INTERNALS §15) pooled vs
cold across client counts, and splits the eager-vs-lazy MR registration
knob to show where the registration cost lands (attach vs first op).
"""

from repro.cluster import Cluster
from repro.core import lite_boot
from repro.workloads.churn import churn_point, run_churn

from .common import print_table, sweep

CLIENTS = [8, 16, 32]
SEED = 42


def _median(samples):
    ordered = sorted(samples)
    if not ordered:
        return None
    return ordered[len(ordered) // 2]


def test_churn_ttfo_pooled_vs_cold():
    points = [(n, pooled, SEED) for n in CLIENTS for pooled in (True, False)]
    results = {(row["clients"], bool(row["pooled"])): row
               for row in sweep(churn_point, points)}
    rows = []
    for n in CLIENTS:
        pooled = results[(n, True)]
        cold = results[(n, False)]
        ttfo_pooled = pooled["ttfo_hit_med"]
        ttfo_cold = cold["ttfo_cold_med"]
        rows.append([
            n,
            ttfo_pooled,
            ttfo_cold,
            ttfo_cold / ttfo_pooled,
            pooled["hits"],
            pooled["misses"],
            pooled["ops_per_ms"],
            cold["ops_per_ms"],
        ])
    print_table(
        "sec2.4 elastic churn: time-to-first-op, pooled lease vs cold bring-up",
        ["clients", "pooled TTFO (us)", "cold TTFO (us)", "speedup",
         "hits", "misses", "pooled ops/ms", "cold ops/ms"],
        rows,
        note="median over one seeded arrival schedule; pooled = reserved-QP "
             "lease grant, cold = create+transition ladder + CM handshake "
             "per client",
    )
    for row in rows:
        clients, ttfo_pooled, ttfo_cold, speedup = row[0], row[1], row[2], row[3]
        assert ttfo_pooled is not None and ttfo_cold is not None
        # The acceptance bar: pooled attach must collapse TTFO by >= 5x.
        assert speedup >= 5.0, (
            f"{clients} clients: pooled TTFO {ttfo_pooled:.2f} us is only "
            f"{speedup:.1f}x below cold {ttfo_cold:.2f} us"
        )
        # Pooled leases must also not cost steady-state throughput.
        # (Near-parity, not a win: the reserve's prebuild happens before
        # the first arrival and shifts the whole schedule by its cost.)
        assert row[6] >= row[7] * 0.9


def test_churn_eager_vs_lazy_registration():
    """The MR knob moves Fig 8's pin cost between attach and first op."""

    def once(eager):
        cluster = Cluster(2)
        kernels = lite_boot(cluster)
        stats = run_churn(
            cluster, kernels, n_clients=16, seed=SEED,
            eager_mr=eager, mean_gap_us=40.0,
        )
        attach_med = _median(stats.attach_us["hit"])
        ttfo_med = stats.median_ttfo("hit")
        return attach_med, ttfo_med, stats

    lazy_attach, lazy_ttfo, lazy_stats = once(False)
    eager_attach, eager_ttfo, eager_stats = once(True)
    print_table(
        "sec2.4 elastic churn: eager vs lazy MR registration (pool hits)",
        ["mode", "attach (us)", "TTFO (us)", "first op after attach (us)"],
        [
            ["lazy", lazy_attach, lazy_ttfo, lazy_ttfo - lazy_attach],
            ["eager", eager_attach, eager_ttfo, eager_ttfo - eager_attach],
        ],
        note="both pay the same registration cost inside the TTFO window; "
             "eager moves it into attach so the first op is pure data plane",
    )
    assert lazy_stats.hits and eager_stats.hits
    # Eager attach pays registration up front...
    assert eager_attach > lazy_attach
    # ...so the post-attach first op gets cheaper by about that much.
    assert eager_ttfo - eager_attach < lazy_ttfo - lazy_attach
    # Either way the total control-plane window stays the same scale
    # (the knob moves cost, it does not create or destroy it).
    assert abs(eager_ttfo - lazy_ttfo) < max(eager_ttfo, lazy_ttfo) * 0.5
