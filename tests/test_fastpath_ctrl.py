"""The control plane and LITE-Log on the run-to-completion commit.

LITE's management calls travel as RC ``SEND``s between kernels and a
LITE-Log commit is ``LT_fetch-add`` + ``LT_write`` (paper §4.1, §8.1):
the two shapes ``verbs/fastpath.py`` learned last (docs/INTERNALS.md
§13).  A control SEND tries the commit once, at post time, like the
data plane's WRs.  Each scenario runs with the fast path on and with
``sim.fastpath_enabled = False`` and must agree on every simulated
instant, the cluster snapshot, the CPU ledger and the bytes in the log.
"""

import base64
import dataclasses
import gc
import json
import sys

import pytest

from repro.apps.litelog import LiteLog, LogWriter
from repro.cluster import Cluster
from repro.core import LiteContext, Permission, lite_boot
from repro.core.protocol import MsgType, decode_ctrl, encode_ctrl
from repro.determinism import reset_global_counters
from repro.stats import snapshot
from repro.verbs.fastpath import fp_stats


def _malloc_free(cluster, kernels, out):
    ctx = LiteContext(kernels[0], "ctl")
    sim = cluster.sim
    for index in range(200):
        lh = yield from ctx.lt_malloc(4096, name=f"buf{index}",
                                      nodes=kernels[1].lite_id)
        out.append(sim.now)
        yield from ctx.lt_free(lh)
        out.append(sim.now)


def _map_grant(cluster, kernels, out):
    """MAP, GRANT, UNMAP_NOTIFY and FREE_NOTIFY requests and replies."""
    sim = cluster.sim
    owner = LiteContext(kernels[0], "owner")
    owner_elsewhere = LiteContext(kernels[1], "owner")
    reader = LiteContext(kernels[2], "reader")
    for index in range(40):
        name = f"m{index}"
        lh = yield from owner.lt_malloc(4096, name=name,
                                        nodes=kernels[1].lite_id)
        yield from owner_elsewhere.lt_grant(name, "reader", Permission.READ)
        mapped = yield from reader.lt_map(name, Permission.READ)
        out.append((sim.now, mapped.size))
        yield from reader.lt_unmap(mapped)
        mapped = yield from reader.lt_map(name, Permission.READ)
        yield from owner.lt_free(lh)
        out.append((sim.now, mapped.mapping.valid))


def _locks_barriers(cluster, kernels, out):
    """LOCK_WAIT / LOCK_RELEASE and BARRIER requests from six workers."""
    sim = cluster.sim
    home = kernels[0].lite_id
    creator = LiteContext(kernels[0], "creator")
    yield from creator.lt_create_lock("L", owner_id=home)

    def worker(index):
        ctx = LiteContext(kernels[index % len(kernels)], f"w{index}")
        lock = yield from ctx.lt_open_lock("L")
        for step in range(8):
            yield from ctx.lt_lock(lock)
            yield sim.timeout(1.0)
            yield from ctx.lt_unlock(lock)
            yield from ctx.lt_barrier(f"b{step}", 6, owner_id=home)
            out.append((index, step, sim.now))

    yield sim.all_of([sim.process(worker(index)) for index in range(6)])


def _fragments(cluster, kernels, out):
    """LT_send messages larger than a receive slot: each is fragmented
    into ``ordered=True`` SENDs posted back to back at one instant."""
    sim = cluster.sim
    # Kernel level: no syscall timer is pending at the post, and one
    # message is in flight at a time, so the first fragment finds the
    # horizon and the QP clear and commits; its siblings queue behind it.
    sender = LiteContext(kernels[0], "sender", kernel_level=True)
    receiver = LiteContext(kernels[1], "receiver", kernel_level=True)
    for index in range(6):
        yield from sender.lt_send(kernels[1].lite_id,
                                  bytes([index]) * (3000 * (index + 1)))
        out.append(sim.now)
        out.append((yield from receiver.lt_recv_msg()))
        out.append(sim.now)
        yield sim.timeout(50.0)  # the last fragments' ACKs drain


def _cold_first_message(cluster, kernels, out):
    """The first control SENDs on cold QPs: the RNIC SRAM misses."""
    ctx = LiteContext(kernels[0], "cold")
    lh = yield from ctx.lt_malloc(4096, nodes=kernels[1].lite_id)
    out.append((cluster.sim.now, lh.size))


def _log_writers(n_writers, commits):
    def scenario(cluster, kernels, out):
        sim = cluster.sim
        owner = LiteContext(kernels[0], "owner")
        log = yield from LiteLog.create(owner, "L", 1 << 20,
                                        home_node=kernels[1].lite_id)

        def writer(index):
            ctx = LiteContext(kernels[index % len(kernels)], f"w{index}")
            mine = yield from LiteLog.open(ctx, "L")
            handle = LogWriter(mine, index + 1)
            for step in range(commits):
                handle.append(bytes([index]) * (10 + step % 50))
                offset = yield from handle.commit()
                out.append((index, sim.now, offset))

        yield sim.all_of([sim.process(writer(index))
                          for index in range(n_writers)])
        out.append((yield from log.verify()))
        tail = yield from log.read_tail()
        out.append((yield from owner.lt_read(log.log_lh, 0, tail)))

    return scenario


def _run(scenario, fastpath: bool):
    reset_global_counters()
    before = {name: getattr(fp_stats, name) for name in fp_stats.__slots__}
    cluster = Cluster(3)
    cluster.sim.fastpath_enabled = fastpath
    kernels = lite_boot(cluster)
    out = []
    cluster.run_process(scenario(cluster, kernels, out))
    cluster.sim.run()
    delta = {name: getattr(fp_stats, name) - before[name]
             for name in fp_stats.__slots__}
    ledger = [sorted(node.cpu.busy_time.items()) for node in cluster.nodes]
    return (cluster.sim.now, out, dataclasses.asdict(snapshot(cluster)),
            ledger), delta


@pytest.mark.parametrize("scenario,wrs,counted", [
    (_malloc_free, 800, ()),            # request + reply, malloc and free
    (_map_grant, 0, ()),                # map, grant, unmap and free notices
    (_locks_barriers, 0, ()),           # contended: waits and releases
    (_fragments, 0, ("commits", "rej_pred")),  # fragment behind sibling
    (_cold_first_message, 0, ("rej_miss",)),  # SRAM misses: generator
    (_log_writers(1, 200), 400, ()),    # tail reserve + commit point
    (_log_writers(6, 40), 0, ())],      # contended: mostly declined
    ids=["malloc_free", "map_grant", "locks_barriers", "fragments",
         "cold_qp", "log_1_writer", "log_6_writers"])
def test_control_plane_and_litelog_equivalence(scenario, wrs, counted):
    fast, delta = _run(scenario, True)
    slow, off = _run(scenario, False)
    assert fast[0] == slow[0], "final simulated time diverged"
    assert fast[1] == slow[1], "per-op instants / log bytes diverged"
    assert fast[2] == slow[2], "cluster snapshot diverged"
    assert fast[3] == slow[3], "CPU ledger diverged"
    assert off["attempts"] == 0
    assert delta["mismodels"] == 0
    assert sum(delta[name] for name in (
        "attempts", "chain_attempts", "vec_attempts")) == sum(
            count for name, count in delta.items()
            if name.startswith("rej_") or name.endswith("commits"))
    if wrs:
        # Sequential: every SEND / atomic WR is an attempt at the WR
        # entries (the log's LT_writes ride the plan entry).
        assert delta["attempts"] >= wrs
        assert delta["commits"] >= 0.95 * delta["attempts"]
    for counter in counted:
        assert delta[counter] > 0, f"{counter} never moved"


# Python-level calls (``sys.setprofile`` "call" events: function calls
# and generator resumptions) over 50 kernel-level remote lt_malloc round
# trips with the fast path on, as measured per interpreter version (on
# 3.11: 14,009 when control SENDs committed from a start hop and the
# codec was built per message).  The count is deterministic, so a rise
# of more than 10% in the control plane's host work fails here rather
# than in a timing.
_MALLOC_CALLS = {(3, 10): 12_450, (3, 11): 11_709, (3, 12): 11_559,
                 (3, 13): 11_559}


def test_remote_lt_malloc_python_call_budget():
    reset_global_counters()
    cluster = Cluster(2)
    cluster.sim.fastpath_enabled = True
    kernels = lite_boot(cluster)
    ctx = LiteContext(kernels[0], "budget", kernel_level=True)
    target = kernels[1].lite_id

    def mallocs(count):
        for _ in range(count):
            yield from ctx.lt_malloc(4096, nodes=target)

    cluster.run_process(mallocs(5))  # the cold-QP misses, first-use paths
    calls = 0

    def profile(_frame, event, _arg):
        nonlocal calls
        if event == "call":
            calls += 1

    gc.disable()  # no collector-run finalizer lands inside the window
    sys.setprofile(profile)
    try:
        cluster.run_process(mallocs(50))
    finally:
        sys.setprofile(None)
        gc.enable()
    ceiling = 1.1 * _MALLOC_CALLS.get(sys.version_info[:2],
                                      max(_MALLOC_CALLS.values()))
    assert calls <= ceiling, (
        f"{calls:,} Python-level calls per 50 remote lt_malloc, ceiling "
        f"{ceiling:,.0f}")


def test_encode_ctrl_is_byte_identical_to_json_dumps():
    """The payload length feeds the wire model: the shared encoder must
    emit exactly what ``json.dumps(msg, separators=(",", ":"))`` did, for
    every message type and the fragment envelope."""
    bodies = [
        {},
        {"tok": 1234567, "src": 2, "size": 4096, "name": "buf\u00e9 \u2603"},
        {"chunks": [[1, 1 << 40, 65536, None, None], [2, 0, 1, 77, 1 << 44]],
         "replicas": {"3": [[3, 8, 8, None, None]]}, "perm": 3, "ok": True,
         "err": None, "ratio": 0.1, "nested": {"a": [1.5, -2, "x"]}},
        {"fid": "2:99", "i": 0, "n": 3,
         "data": base64.b64encode(bytes(range(256))).decode()},
    ]
    tags = [value for name, value in vars(MsgType).items()
            if not name.startswith("_")] + ["__frag"]
    assert len(tags) == 19
    for tag in tags:
        for body in bodies:
            msg = dict(body, type=tag)
            wire = encode_ctrl(msg)
            assert wire == json.dumps(msg, separators=(",", ":")).encode()
            assert decode_ctrl(wire) == msg
