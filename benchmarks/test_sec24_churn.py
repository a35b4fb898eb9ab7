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

from statistics import median_high

from repro.cluster import Cluster
from repro.core import lite_boot
from repro.sweep import run_sweep
from repro.workloads.churn import churn_point, run_churn

from .figures import Figure

CLIENTS = [8, 16, 32]
SEED = 42


def _measured(*cells) -> bool:
    """No cell is a missing sample (``None``, printed ``-``)."""
    return all(cell is not None for cell in cells)


def run_ttfo(jobs):
    points = [(n, pooled, SEED) for n in CLIENTS for pooled in (True, False)]
    results = {(row["clients"], bool(row["pooled"])): row
               for row in run_sweep(churn_point, points, jobs=jobs)}
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
            ttfo_cold / ttfo_pooled if _measured(ttfo_pooled, ttfo_cold)
            else None,
            pooled["hits"],
            pooled["misses"],
            pooled["ops_per_ms"],
            cold["ops_per_ms"],
        ])
    return rows


SEC24_CHURN_TTFO = Figure(
    "sec24-churn-ttfo",
    "sec2.4 elastic churn: time-to-first-op, pooled lease vs cold bring-up",
    ["clients", "pooled TTFO (us)", "cold TTFO (us)", "speedup", "hits",
     "misses", "pooled ops/ms", "cold ops/ms"],
    run_ttfo,
    note="median over one seeded arrival schedule; pooled = reserved-QP "
         "lease grant, cold = create+transition ladder + CM handshake "
         "per client",
    claim="A new client's connection setup costs milliseconds of QP "
          "creation, state transitions and handshake; leasing a pre-built "
          "kernel connection makes its first op data-plane scale.",
    checks={
        "every client count has a pooled and a cold TTFO": lambda t: all(
            _measured(r["pooled TTFO (us)"], r["cold TTFO (us)"]) for r in t),
        "pooled attach collapses TTFO by >= 5x at every client count":
            lambda t: all(_measured(r["speedup"]) and r["speedup"] >= 5.0
                          for r in t),
        # Near-parity, not a win: the reserve's prebuild happens before
        # the first arrival and shifts the whole schedule by its cost.
        "pooled leases cost no steady-state throughput (>= 0.9x cold)":
            lambda t: all(r["pooled ops/ms"] >= r["cold ops/ms"] * 0.9
                          for r in t),
    },
)


def run_registration(_jobs):
    """The MR knob moves Fig 8's pin cost between attach and first op."""
    rows = []
    for mode, eager in (("lazy", False), ("eager", True)):
        cluster = Cluster(2)
        kernels = lite_boot(cluster)
        stats = run_churn(
            cluster, kernels, n_clients=16, seed=SEED,
            eager_mr=eager, mean_gap_us=40.0,
        )
        hits = stats.attach_us["hit"]
        attach = median_high(hits) if hits else None
        ttfo = stats.median_ttfo("hit")
        rows.append([mode, attach, ttfo,
                     ttfo - attach if _measured(attach, ttfo) else None])
    return rows


SEC24_CHURN_MR = Figure(
    "sec24-churn-mr",
    "sec2.4 elastic churn: eager vs lazy MR registration (pool hits)",
    ["mode", "attach (us)", "TTFO (us)", "first op after attach (us)"],
    run_registration,
    note="both pay the same registration cost inside the TTFO window; "
         "eager moves it into attach so the first op is pure data plane",
    claim="Registering an MR pins its pages (Fig 8); eager registration "
          "moves that cost from a client's first op into its attach.",
    # Every comparison needs both modes measured: a missing sample
    # fails it rather than raising.
    checks={
        "both modes lease from the pool (a hit's attach and TTFO measured)":
            lambda t: all(_measured(r["attach (us)"], r["TTFO (us)"])
                          for r in t),
        "eager attach pays registration up front": lambda t: (
            _measured(*t.col("attach (us)"))
            and t["eager"]["attach (us)"] > t["lazy"]["attach (us)"]),
        "so the post-attach first op gets cheaper": lambda t: (
            _measured(*t.col("first op after attach (us)"))
            and t["eager"]["first op after attach (us)"]
            < t["lazy"]["first op after attach (us)"]),
        # The knob moves cost, it does not create or destroy it.
        "the total control-plane window stays the same scale (< 0.5x apart)":
            lambda t: _measured(*t.col("TTFO (us)")) and (
                abs(t["eager"]["TTFO (us)"] - t["lazy"]["TTFO (us)"])
                < max(t["eager"]["TTFO (us)"], t["lazy"]["TTFO (us)"]) * 0.5),
    },
)
