"""Chaos tests: the fault-injection subsystem end to end.

Covers the layered failure semantics: fabric link state and drops, RC
QP timeout/retry/error-state behavior, LITE timeout/retry with
idempotent resends, keep-alive failure detection, and full applications
(KV store, MapReduce) surviving randomized fault plans — plus the
zero-cost-when-disabled guarantee for empty plans.
"""

from collections import Counter

import pytest

from repro.apps.kvstore import LiteKVClient, LiteKVServer
from repro.apps.mapreduce import LiteMR
from repro.apps.mapreduce.common import wordcount_map
from repro.cluster import Cluster
from repro.core import (
    ENODEV,
    ETIMEDOUT,
    LiteContext,
    LiteError,
    RpcTimeoutError,
    lite_boot,
    rpc_server_loop,
)
from repro.core.protocol import MsgType
from repro.fault import FaultInjector, FaultPlan, PacketLoss
from repro.hw import FabricError, SimParams
from repro.verbs import Opcode, SendWR, Sge, WcStatus
from repro.workloads import generate_corpus

from tests import ab


# ---------------------------------------------------------------------------
# FaultPlan construction and validation
# ---------------------------------------------------------------------------
def test_plan_rejects_bad_arguments():
    plan = FaultPlan()
    with pytest.raises(ValueError):
        plan.crash(0, -1.0)
    with pytest.raises(ValueError):
        plan.crash(0, 100.0, restart_at_us=50.0)
    with pytest.raises(ValueError):
        plan.link_flap(0, 100.0, 50.0, 10.0, 10.0)
    with pytest.raises(ValueError):
        plan.packet_loss(0.0)
    with pytest.raises(ValueError):
        plan.packet_loss(1.5)
    assert plan.empty  # nothing was added by the failed calls


def test_plan_validate_rejects_unknown_nodes():
    cluster = Cluster(2)
    plan = FaultPlan().crash(7, 100.0)
    with pytest.raises(ValueError, match="unknown node"):
        FaultInjector(cluster, plan).install()


def test_install_twice_raises():
    cluster = Cluster(2)
    injector = FaultInjector(cluster, FaultPlan())
    injector.install()
    with pytest.raises(RuntimeError):
        injector.install()


def test_random_plan_is_reproducible():
    nodes = [0, 1, 2, 3]
    plan_a = FaultPlan.random(42, nodes, 10000.0, crashes=2, flaps=1,
                              loss_rate=0.02)
    plan_b = FaultPlan.random(42, nodes, 10000.0, crashes=2, flaps=1,
                              loss_rate=0.02)
    assert plan_a.describe() == plan_b.describe()
    plan_c = FaultPlan.random(43, nodes, 10000.0, crashes=2, flaps=1,
                              loss_rate=0.02)
    assert plan_a.describe() != plan_c.describe()


def test_random_plan_spares_the_spared_node():
    for seed in range(10):
        plan = FaultPlan.random(seed, [0, 1, 2], 1000.0, crashes=2, spare=0)
        assert len(plan.crashes) == 2
        assert all(crash.node_id != 0 for crash in plan.crashes)


def test_loss_rule_window_and_flow_matching():
    rule = PacketLoss(0.5, start_us=100.0, end_us=200.0, src=1)
    assert not rule.matches(50.0, 1, 2)
    assert rule.matches(100.0, 1, 2)
    assert rule.matches(199.0, 1, 0)
    assert not rule.matches(200.0, 1, 2)
    assert not rule.matches(150.0, 2, 1)


# ---------------------------------------------------------------------------
# Fabric satellites: link state, detach, loopback accounting
# ---------------------------------------------------------------------------
def test_fabric_link_state_and_detach_validation():
    cluster = Cluster(2)
    fabric = cluster.fabric
    assert fabric.link_up(0) and fabric.link_up(1)
    fabric.set_link_state(1, False)
    assert not fabric.link_up(1)
    fabric.set_link_state(1, True)
    with pytest.raises(FabricError):
        fabric.set_link_state(9, False)
    with pytest.raises(FabricError):
        fabric.detach(9)
    fabric.detach(1)
    assert not fabric.link_up(1)
    with pytest.raises(FabricError):
        cluster.sim.run_process(fabric.transfer(0, 1, 64))


def rc_write_after_detach(run):
    """A warm RC WRITE, then ``detach(1)``, then one more WRITE: returns
    the error the second one raised and the instant it raised it."""
    cluster = run.cluster(2)
    a, b = cluster[0], cluster[1]
    state = {}

    def driver():
        pd_a, pd_b = a.device.alloc_pd(), b.device.alloc_pd()
        state["mr_a"] = yield from a.device.reg_mr(pd_a, 4096)
        state["mr_b"] = yield from b.device.reg_mr(pd_b, 4096)
        qa = a.device.create_qp(pd_a, "RC")
        a.device.connect(qa, b.device.create_qp(pd_b, "RC"))
        assert (yield qa.post_send(_write_wr(state))) is WcStatus.SUCCESS
        cluster.fabric.detach(1)
        try:
            yield qa.post_send(_write_wr(state))
        except FabricError as exc:
            state["raised"] = (type(exc), cluster.sim.now)

    cluster.run_process(driver())
    return state.get("raised")


def test_detached_port_fails_the_same_in_both_modes():
    """A cost table still holds the detached ``Port``: it must decline
    (the port is marked down before it is dropped) so the WR fails on
    the generator path exactly as it does with the fast path off."""
    raised = ab.check(rc_write_after_detach)["fast"].outcomes
    assert raised is not None and raised[0] is FabricError


def test_loopback_transfer_updates_port_counters():
    cluster = Cluster(1)
    port = cluster.nodes[0].port
    cluster.sim.run_process(cluster.fabric.transfer(0, 0, 1500))
    assert port.tx_bytes == 1500
    assert port.rx_bytes == 1500


def test_transfer_into_down_link_pays_wire_time_then_drops():
    cluster = Cluster(2)
    fabric = cluster.fabric
    fabric.set_link_state(1, False)
    proc = cluster.sim.process(fabric.transfer(0, 1, 4096))
    from repro.hw import LinkDownError

    with pytest.raises(LinkDownError):
        cluster.run(stop=proc)
    # The frame serialized out of the sender before dying in the fabric.
    assert cluster.sim.now > 0.0
    assert fabric.dropped_transfers == 1
    assert cluster.nodes[0].port.tx_bytes == 4096
    assert cluster.nodes[1].port.rx_bytes == 0


# ---------------------------------------------------------------------------
# Verbs: RC retry blowout, error state, flush, reset; UC silent loss
# ---------------------------------------------------------------------------
@pytest.fixture
def rc_pair():
    """Two connected RC QPs with a short retry budget for fast tests."""
    params = SimParams(qp_timeout_us=50.0, qp_retry_cnt=2)
    cluster = Cluster(2, params=params)
    state = {"cluster": cluster}

    def setup():
        a, b = cluster[0], cluster[1]
        pd_a, pd_b = a.device.alloc_pd(), b.device.alloc_pd()
        state["mr_a"] = yield from a.device.reg_mr(pd_a, 4096)
        state["mr_b"] = yield from b.device.reg_mr(pd_b, 4096)
        state["qa"] = a.device.create_qp(pd_a, "RC")
        state["qb"] = b.device.create_qp(pd_b, "RC")
        a.device.connect(state["qa"], state["qb"])

    cluster.run_process(setup())
    return state


def _write_wr(state, data=b"x" * 64):
    state["mr_a"].write(0, data)
    return SendWR(
        Opcode.WRITE,
        sgl=[Sge(state["mr_a"], 0, len(data))],
        remote_addr=state["mr_b"].base_addr,
        rkey=state["mr_b"].rkey,
    )


def test_rc_write_to_down_link_retries_then_errors(rc_pair):
    cluster, qa = rc_pair["cluster"], rc_pair["qa"]
    cluster.fabric.set_link_state(1, False)
    statuses = []

    def proc():
        status = yield qa.post_send(_write_wr(rc_pair))
        statuses.append(status)

    start = cluster.sim.now
    cluster.run_process(proc())
    assert statuses == [WcStatus.RETRY_EXC_ERR]
    assert qa.state == "ERROR"
    assert qa.retries == 2  # qp_retry_cnt exhausted
    # 3 attempts with 2 local-ACK-timeout waits in between.
    assert cluster.sim.now - start >= 2 * 50.0


def test_errored_qp_flushes_until_reset(rc_pair):
    cluster, qa = rc_pair["cluster"], rc_pair["qa"]
    cluster.fabric.set_link_state(1, False)
    statuses = []

    def proc():
        statuses.append((yield qa.post_send(_write_wr(rc_pair))))
        # QP is now in ERROR: later posts flush without touching the wire.
        wire_before = cluster.fabric.transfer_count
        statuses.append((yield qa.post_send(_write_wr(rc_pair))))
        assert cluster.fabric.transfer_count == wire_before
        # Link heals + QP reset -> traffic flows again.
        cluster.fabric.set_link_state(1, True)
        qa.reset()
        statuses.append((yield qa.post_send(_write_wr(rc_pair, b"recovered!"))))

    cluster.run_process(proc())
    assert statuses == [
        WcStatus.RETRY_EXC_ERR,
        WcStatus.WR_FLUSH_ERR,
        WcStatus.SUCCESS,
    ]
    assert qa.state == "RTS"
    assert rc_pair["mr_b"].read(0, 10) == b"recovered!"


def test_uc_loss_is_silent(rc_pair):
    """UC has no ACK protocol: a dropped frame is simply gone."""
    cluster = rc_pair["cluster"]
    a, b = cluster[0], cluster[1]
    pd_a, pd_b = a.device.alloc_pd(), b.device.alloc_pd()
    state = {}

    def setup():
        state["mr_a"] = yield from a.device.reg_mr(pd_a, 1024)
        state["mr_b"] = yield from b.device.reg_mr(pd_b, 1024)
        qa = a.device.create_qp(pd_a, "UC")
        qb = b.device.create_qp(pd_b, "UC")
        a.device.connect(qa, qb)
        state["qa"] = qa

    cluster.run_process(setup())
    cluster.fabric.set_link_state(1, False)
    state["mr_a"].write(0, b"vanishes")

    def proc():
        wr = SendWR(
            Opcode.WRITE,
            sgl=[Sge(state["mr_a"], 0, 8)],
            remote_addr=state["mr_b"].base_addr,
            rkey=state["mr_b"].rkey,
        )
        status = yield state["qa"].post_send(wr)
        assert status is WcStatus.SUCCESS  # sender never learns
        assert state["qa"].retries == 0

    cluster.run_process(proc())
    assert state["mr_b"].read(0, 8) == b"\x00" * 8


def test_brief_link_flap_is_masked_by_rc_retry(rc_pair):
    """An outage shorter than the retry budget is invisible to the app."""
    cluster, qa = rc_pair["cluster"], rc_pair["qa"]
    cluster.fabric.set_link_state(1, False)

    def heal():
        yield cluster.sim.timeout(60.0)  # between attempt 1 and 2
        cluster.fabric.set_link_state(1, True)

    statuses = []

    def proc():
        statuses.append((yield qa.post_send(_write_wr(rc_pair, b"survived"))))

    cluster.sim.process(heal())
    cluster.run_process(proc())
    assert statuses == [WcStatus.SUCCESS]
    assert qa.retries >= 1
    assert rc_pair["mr_b"].read(0, 8) == b"survived"


# ---------------------------------------------------------------------------
# LITE: fail-fast semantics, keep-alive, RPC retry
# ---------------------------------------------------------------------------
def _fast_fail_params():
    """Short transport budgets so failure tests run in simulated ms."""
    return SimParams(
        qp_timeout_us=50.0, qp_retry_cnt=1,
        lite_retry_cnt=1, lite_retry_backoff_us=50.0,
        lite_ctrl_timeout_us=500.0, lite_ctrl_retries=1,
    )


def test_rpc_to_crashed_peer_times_out_with_etimedout():
    """A dead server yields LiteError(ETIMEDOUT) in bounded time, no hang."""
    cluster = Cluster(3, params=_fast_fail_params())
    kernels = lite_boot(cluster)
    client = LiteContext(kernels[0], "c")
    server = LiteContext(kernels[1], "s")
    cluster.sim.process(rpc_server_loop(server, 1, lambda d: d))
    FaultInjector(
        cluster, FaultPlan().crash(cluster.nodes[1].node_id, 200.0)
    ).install()

    def proc():
        yield cluster.sim.timeout(10.0)
        reply = yield from client.lt_rpc(2, 1, b"warm", max_reply=64,
                                         timeout=300.0)
        assert reply == b"warm"
        yield cluster.sim.timeout(400.0)  # crash happens here
        yield from client.lt_rpc(2, 1, b"lost", max_reply=64,
                                 timeout=300.0, retries=2)

    proc_event = cluster.sim.process(proc())
    with pytest.raises(RpcTimeoutError) as excinfo:
        cluster.run(stop=proc_event)
    assert excinfo.value.errno == ETIMEDOUT
    assert isinstance(excinfo.value, LiteError)
    # 3 attempts with doubling windows: well under 10 ms of simulated time.
    assert cluster.sim.now < 10000.0


def test_keepalive_marks_dead_peer_and_onesided_fails_enodev():
    cluster = Cluster(3, params=_fast_fail_params())
    kernels = lite_boot(cluster)
    client = LiteContext(kernels[0], "c")
    injector = FaultInjector(
        cluster, FaultPlan().crash(cluster.nodes[2].node_id, 500.0)
    ).install()
    injector.arm_lite([kernels[0]], keepalive_interval_us=200.0, miss_limit=2)

    def proc():
        lh = yield from client.lt_malloc(1024, nodes=3)  # lives on node 2
        yield from client.lt_write(lh, 0, b"before-crash")
        # Wait for the crash plus enough keep-alive rounds to detect it.
        yield cluster.sim.timeout(3000.0)
        assert not kernels[0].peer(3, check_alive=False).alive
        try:
            yield from client.lt_write(lh, 0, b"after-crash")
        except LiteError as exc:
            return exc.errno
        return None

    errno_seen = cluster.run_process(proc())
    assert errno_seen == ENODEV
    assert injector.crashes == 1


def test_keepalive_resurrects_restarted_peer():
    cluster = Cluster(2, params=_fast_fail_params())
    kernels = lite_boot(cluster)
    injector = FaultInjector(
        cluster,
        FaultPlan().crash(cluster.nodes[1].node_id, 500.0, restart_at_us=2500.0),
    ).install()
    injector.arm_lite([kernels[0]], keepalive_interval_us=200.0, miss_limit=2)

    def probe():
        yield cluster.sim.timeout(2000.0)
        dead = kernels[0].peer(2, check_alive=False).alive
        yield cluster.sim.timeout(3000.0)
        alive = kernels[0].peer(2, check_alive=False).alive
        return dead, alive

    dead_during, alive_after = cluster.run_process(probe())
    assert dead_during is False
    assert alive_after is True
    assert injector.restarts == 1


def test_rpc_retry_with_duplicate_suppression():
    """Same-token resends are answered once; the handler runs once."""
    params = _fast_fail_params().copy(qp_retry_cnt=0)
    cluster = Cluster(2, params=params)
    kernels = lite_boot(cluster)
    client = LiteContext(kernels[0], "c")
    server = LiteContext(kernels[1], "s")
    calls = []

    def handler(data):
        calls.append(data)
        return b"ok:" + data

    cluster.sim.process(rpc_server_loop(server, 1, handler))
    # Drop everything client->server for a short window: the first
    # attempt dies, the retry lands after the window closes.
    FaultInjector(
        cluster,
        FaultPlan().packet_loss(1.0, start_us=90.0, end_us=400.0,
                                src=cluster.nodes[0].node_id),
        seed=5,
    ).install()

    def proc():
        yield cluster.sim.timeout(10.0)
        # Warm up ring binding while the fabric is clean.
        reply = yield from client.lt_rpc(2, 1, b"warm", max_reply=64,
                                         timeout=500.0, retries=3)
        assert reply == b"ok:warm"
        yield cluster.sim.timeout(80.0)  # -> ~100us, inside the loss window
        reply = yield from client.lt_rpc(2, 1, b"retry-me", max_reply=64,
                                         timeout=300.0, retries=4)
        return reply

    assert cluster.run_process(proc()) == b"ok:retry-me"
    assert calls.count(b"retry-me") == 1  # duplicates never reach the handler
    assert kernels[0].rpc.calls_retried >= 1


def test_ctrl_retry_answered_from_reply_cache():
    """A lost control reply: ``ctrl_request`` resends the same token and
    the server answers from its reply cache, so ``lt_malloc`` allocates
    on the remote node once, not twice; resends of a request still being
    served are dropped."""
    params = _fast_fail_params()
    cluster = Cluster(2, params=params)
    kernels = lite_boot(cluster)
    for kernel in kernels:
        kernel.enable_fault_tolerance()
    client = LiteContext(kernels[0], "c")
    server_memory = cluster.nodes[1].memory
    # Drop everything server->client until after the first reply left.
    FaultInjector(
        cluster,
        FaultPlan().packet_loss(1.0, start_us=0.0, end_us=100.0,
                                src=cluster.nodes[1].node_id),
        seed=5,
    ).install()
    before = server_memory.allocated_bytes

    def proc():
        yield cluster.sim.timeout(10.0)
        lh = yield from client.lt_malloc(64 * 1024,
                                         nodes=kernels[1].lite_id)
        return lh

    lh = cluster.run_process(proc())
    # The first attempt's window had to expire: the reply came from the
    # resend, and the handler ran once.
    assert cluster.sim.now > params.lite_ctrl_timeout_us
    assert server_memory.allocated_bytes - before == 64 * 1024
    cluster.run_process(client.lt_write(lh, 0, b"abc"))
    assert cluster.run_process(client.lt_read(lh, 0, 3)) == b"abc"

    # Resends that arrive while the first copy's handler still runs are
    # dropped, and its one reply serves them all.
    before = server_memory.allocated_bytes
    reply = cluster.run_process(kernels[0].ctrl_request(
        kernels[1].lite_id, {"type": MsgType.ALLOC, "size": 4096},
        timeout=1.0, retries=4))
    assert len(reply["chunks"]) == 1
    assert server_memory.allocated_bytes - before == 4096


# ---------------------------------------------------------------------------
# Zero-cost-when-disabled: empty plan is byte-identical
# ---------------------------------------------------------------------------
def _kv_trace(install_empty_injector: bool):
    # Byte-identity needs identical id streams in both runs: each
    # cluster's ids come from its own simulator, so back-to-back
    # clusters see the same control-message lengths and timing.
    cluster = Cluster(3)
    kernels = lite_boot(cluster)
    if install_empty_injector:
        FaultInjector(cluster, FaultPlan(), seed=1).install()
    servers = [LiteKVServer(kernels[1], 0), LiteKVServer(kernels[2], 1)]

    def setup():
        for server in servers:
            yield from server.start()
        yield cluster.sim.timeout(1)

    cluster.run_process(setup())
    client = LiteKVClient(kernels[0], servers)
    trace = []

    def proc():
        for index in range(20):
            key = b"k%d" % (index % 7)
            yield from client.put(key, b"v%d" % index)
            value = yield from client.get(key)
            trace.append((cluster.sim.now, value))

    cluster.run_process(proc())
    return trace, cluster


def test_empty_plan_is_byte_identical():
    trace_plain, cluster_plain = _kv_trace(False)
    trace_injected, cluster_injected = _kv_trace(True)
    assert trace_plain == trace_injected  # timestamps exactly equal
    assert cluster_injected.fabric.fault is None
    assert cluster_plain.sim.now == cluster_injected.sim.now


# ---------------------------------------------------------------------------
# Applications under chaos
# ---------------------------------------------------------------------------
def test_kv_store_survives_one_percent_loss():
    cluster = Cluster(3)
    kernels = lite_boot(cluster)
    FaultInjector(
        cluster, FaultPlan().packet_loss(0.01), seed=11
    ).install()
    servers = [LiteKVServer(kernels[1], 0), LiteKVServer(kernels[2], 1)]

    def setup():
        for server in servers:
            yield from server.start()
        yield cluster.sim.timeout(1)

    cluster.run_process(setup())
    client = LiteKVClient(kernels[0], servers,
                          rpc_timeout_us=20000.0, rpc_retries=4)
    expected = {}

    def proc():
        for index in range(40):
            key = b"key-%d" % (index % 11)
            value = b"value-%d" % index
            yield from client.put(key, value)
            expected[key] = value
        for key, value in expected.items():
            got = yield from client.get(key)
            assert got == value, (key, got, value)

    cluster.run_process(proc())


def test_kv_store_survives_server_crash_with_restart():
    cluster = Cluster(2, params=_fast_fail_params())
    kernels = lite_boot(cluster)
    server_node = cluster.nodes[1].node_id
    injector = FaultInjector(
        cluster, FaultPlan().crash(server_node, 800.0, restart_at_us=3000.0),
        seed=3,
    ).install()
    servers = [LiteKVServer(kernels[1], 0)]

    def setup():
        yield from servers[0].start()
        yield cluster.sim.timeout(1)

    cluster.run_process(setup())
    client = LiteKVClient(kernels[0], servers,
                          rpc_timeout_us=2000.0, rpc_retries=6)

    def proc():
        for index in range(30):
            yield from client.put(b"k%d" % index, b"v%d" % index)
            yield cluster.sim.timeout(100.0)  # spread across the outage
        for index in range(30):
            got = yield from client.get(b"k%d" % index)
            assert got == b"v%d" % index

    cluster.run_process(proc())
    assert injector.crashes == 1 and injector.restarts == 1


def test_mapreduce_completes_under_random_loss_plan():
    corpus = generate_corpus(12, 120, vocab_size=200, seed=4)
    truth = Counter()
    for document in corpus:
        truth.update(wordcount_map(document))

    cluster = Cluster(3)
    kernels = lite_boot(cluster)
    plan = FaultPlan.random(21, [node.node_id for node in cluster.nodes],
                            duration_us=0.0, crashes=0, loss_rate=0.005)
    FaultInjector(cluster, plan, seed=21).install()
    engine = LiteMR(kernels, total_threads=4,
                    rpc_timeout_us=50000.0, rpc_retries=4)
    result = cluster.run_process(engine.run(corpus))
    assert result == truth
