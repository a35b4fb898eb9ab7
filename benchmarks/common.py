"""Shared benchmark harness: setup helpers and drivers.

Every ``benchmarks/test_fig*.py`` declares one or more figures
(``benchmarks/figures.py``); these are the clusters and measurement
loops they share.
"""

from __future__ import annotations

import statistics
from typing import Callable, List, Optional

from repro.baselines import FasstEndpoint, HerdServer
from repro.cluster import Cluster
from repro.core import LiteContext, lite_boot
from repro.hw import SimParams
from repro.verbs import Access, Opcode, SendWR, Sge


# ---------------------------------------------------------------- setup --


def lite_pair(params: Optional[SimParams] = None, n_nodes: int = 2):
    """A booted LITE cluster plus one user context per node."""
    cluster = Cluster(n_nodes, params=params)
    kernels = lite_boot(cluster)
    contexts = [LiteContext(k, f"bench{k.lite_id}") for k in kernels]
    return cluster, kernels, contexts


def lite_lmr(size: int, params: Optional[SimParams] = None):
    """A booted LITE pair plus node 1's context and an LMR of ``size`` bytes
    on node 2: ``(cluster, ctx, lh)``."""
    cluster, _kernels, contexts = lite_pair(params=params)
    lh = cluster.run_process(contexts[0].lt_malloc(size, nodes=2))
    return cluster, contexts[0], lh


def verbs_pair(mr_bytes: int):
    """Two nodes with connected RC QPs and one registered MR each."""
    cluster = Cluster(2)

    def setup():
        a, b = cluster[0], cluster[1]
        pd_a, pd_b = a.device.alloc_pd(), b.device.alloc_pd()
        mr_a = yield from a.device.reg_mr(pd_a, mr_bytes, Access.ALL)
        mr_b = yield from b.device.reg_mr(pd_b, mr_bytes, Access.ALL)
        qa = a.device.create_qp(pd_a, "RC", send_cq=None)
        qb = b.device.create_qp(pd_b, "RC", send_cq=None)
        a.device.connect(qa, qb)
        return dict(cluster=cluster, pd_a=pd_a, pd_b=pd_b, mr_a=mr_a,
                    mr_b=mr_b, qa=qa, qb=qb)

    return cluster.run_process(setup())


def settle(cluster) -> None:
    """Run 5 µs of simulated time, so server loops spawned just before
    reach their first wait."""

    def idle():
        yield cluster.sim.timeout(5)

    cluster.run_process(idle())


def tcp_connection(cluster, port: int, serve):
    """A TCP connection from node 0 to node 1, which accepts it and runs
    ``serve(conn)`` (a generator function) on its end."""
    sim = cluster.sim
    listener = cluster[1].tcp.listen(port)

    def server():
        conn = yield from listener.accept()
        yield from serve(conn)

    def setup():
        sim.process(server())
        yield sim.timeout(1)
        return (yield from cluster[0].tcp.connect(1, port))

    return cluster.run_process(setup())


def herd_clients(cluster, n_threads: int, n_clients: int, handler) -> list:
    """``n_clients`` HERD clients on node 1 of a server on node 2 that runs
    ``handler`` on ``n_threads`` threads."""

    def setup():
        server = HerdServer(cluster[1], n_threads=n_threads)
        yield from server.build(handler)
        clients = []
        for _ in range(n_clients):
            client = yield from server.connect_client(cluster[0])
            clients.append(client)
        return clients

    return cluster.run_process(setup())


def fasst_pairs(cluster, n_pairs: int, handler) -> list:
    """``n_pairs`` FaSST endpoints (QP + master) on node 1, each with its own
    endpoint on node 2 running ``handler``: ``[(client, server), ...]``."""

    def setup():
        pairs = []
        for _ in range(n_pairs):
            a = FasstEndpoint(cluster[0])
            b = FasstEndpoint(cluster[1], handler=handler)
            yield from a.build()
            yield from b.build()
            pairs.append((a, b))
        return pairs

    return cluster.run_process(setup())


# -------------------------------------------------------------- drivers --


def latency_of(cluster, op_factory: Callable[[], object], count: int = 200,
               warmup: int = 20) -> float:
    """Average latency of ``count`` sequential ops (µs).

    ``op_factory()`` must return a fresh generator per call.
    """
    sim = cluster.sim
    samples: List[float] = []

    def driver():
        for _ in range(warmup):
            yield from op_factory()
        for _ in range(count):
            start = sim.now
            yield from op_factory()
            samples.append(sim.now - start)

    cluster.run_process(driver())
    return statistics.fmean(samples)


def throughput_run(cluster, ops: List[Callable[[], object]],
                   duration_us: float, warmup_us: float = 200.0):
    """Sustained op rate: one blocking loop per op factory in ``ops``.

    Every loop runs ``ops[i]()`` until the warm-up and the window have
    passed; returns the completions inside the window per µs.
    """
    sim = cluster.sim
    stop_at = sim.now + warmup_us + duration_us
    counted = [0]

    def worker(op_factory):
        while sim.now < stop_at:
            yield from op_factory()
            if sim.now >= stop_at - duration_us:
                counted[0] += 1

    def driver():
        yield sim.all_of([sim.process(worker(op)) for op in ops])

    cluster.run_process(driver())
    return counted[0] / duration_us


def verbs_write_op(state, size: int, remote_offset: int = 0, mr=None,
                   qp=None):
    """One unsignaled RC write of ``size`` bytes from a verbs_pair state:
    into its remote MR (or ``mr``) at ``remote_offset``, posted on its QP
    (or ``qp``)."""
    mr = mr or state["mr_b"]
    wr = SendWR(
        Opcode.WRITE,
        sgl=[Sge(state["mr_a"], 0, size)],
        remote_addr=mr.base_addr + remote_offset,
        rkey=mr.rkey,
        signaled=False,
    )
    status = yield (qp or state["qa"]).post_send(wr)
    return status
