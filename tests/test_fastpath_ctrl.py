"""The control plane and LITE-Log on the run-to-completion commit.

LITE's management calls travel as RC ``SEND``s between kernels and a
LITE-Log commit is ``LT_fetch-add`` + ``LT_write`` (paper §4.1, §8.1):
the two shapes ``verbs/fastpath.py`` learned last (docs/INTERNALS.md
§13).  Each scenario runs with the fast path on and with
``sim.fastpath_enabled = False`` and must agree on every simulated
instant, the cluster snapshot, the CPU ledger and the bytes in the log.
"""

import base64
import dataclasses
import json

import pytest

from repro.apps.litelog import LiteLog, LogWriter
from repro.cluster import Cluster
from repro.core import LiteContext, lite_boot
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


@pytest.mark.parametrize("scenario,wrs", [
    (_malloc_free, 800),                # request + reply, malloc and free
    (_log_writers(1, 200), 400),        # tail reserve + commit point
    (_log_writers(6, 40), 0)],          # contended: mostly declined
    ids=["malloc_free", "log_1_writer", "log_6_writers"])
def test_control_plane_and_litelog_equivalence(scenario, wrs):
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
