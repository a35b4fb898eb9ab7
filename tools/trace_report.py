"""Latency-breakdown reports from span traces (§5.2 of the paper).

Usage:
    # Reproduce the paper's §5.2 breakdown for a 64B one-sided LT_write
    # from spans alone (no parameter arithmetic):
    PYTHONPATH=src python tools/trace_report.py --demo write64

    # Report over a previously exported JSONL trace:
    PYTHONPATH=src python tools/trace_report.py trace.jsonl [--op op.lt_write]

    # Export the demo trace for Perfetto / diffing:
    PYTHONPATH=src python tools/trace_report.py --demo write64 \
        --jsonl /tmp/t.jsonl --chrome /tmp/t.json --tree

Demos: ``write64`` (one-sided 64B LT_write), ``read64`` (64B LT_read,
cold then warm), ``rpc64`` (one 64B RPC round-trip).  Each demo runs a
few untraced warm-up ops first so the traced op sees steady-state
caches, then traces exactly the ops being reported.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.cluster import Cluster  # noqa: E402
from repro.core import LiteContext, lite_boot  # noqa: E402
from repro.obs import (  # noqa: E402
    ReplayTrace,
    aggregate_breakdown,
    format_breakdown,
    install_tracer,
    write_chrome_trace,
    write_jsonl,
)

DEMOS = ("write64", "read64", "rpc64")


def _demo_cluster():
    cluster = Cluster(2)
    kernels = lite_boot(cluster)
    contexts = [LiteContext(k, f"trace{k.lite_id}") for k in kernels]
    return cluster, contexts


def run_demo(name: str):
    """Run one canonical traced scenario; returns (tracer, default op)."""
    cluster, (ctx_a, ctx_b) = _demo_cluster()
    state = {}

    def setup():
        state["lh"] = yield from ctx_a.lt_malloc(1 << 20, "demo", nodes=2)
        for _ in range(5):  # untraced warm-up: steady-state caches
            yield from ctx_a.lt_write(state["lh"], 0, b"w" * 64)
            yield from ctx_a.lt_read(state["lh"], 0, 64)

    cluster.run_process(setup())

    if name == "write64":
        tracer = install_tracer(cluster)

        def driver():
            yield from ctx_a.lt_write(state["lh"], 0, b"x" * 64)

        cluster.run_process(driver())
        return tracer, "op.lt_write"

    if name == "read64":
        tracer = install_tracer(cluster)

        def driver():
            yield from ctx_a.lt_read(state["lh"], 0, 64)

        cluster.run_process(driver())
        return tracer, "op.lt_read"

    if name == "rpc64":
        def server():
            call = yield from ctx_b.lt_recv_rpc(7)
            yield from ctx_b.lt_reply_rpc(call, call.input)

        def client():
            yield from ctx_a.lt_rpc(2, 7, b"r" * 64)

        def driver():
            procs = [cluster.sim.process(server()),
                     cluster.sim.process(client())]
            yield cluster.sim.all_of(procs)

        ctx_b.lt_reg_rpc(7)
        tracer = install_tracer(cluster)
        cluster.run_process(driver())
        return tracer, "op.lt_rpc"

    raise SystemExit(f"unknown demo {name!r} (choose from {DEMOS})")


def print_tree(trace) -> None:
    """Indented span forest, in open order."""
    index = trace.children_index()

    def walk(span, depth):
        dur = "?" if span.end is None else f"{span.end - span.start:.3f}"
        extra = f" {span.nbytes}B" if span.nbytes else ""
        print(f"  {'  ' * depth}{span.name} [{dur} us]"
              f" node={span.node} {span.outcome or 'unfinished'}{extra}")
        for child in index.get(span.sid, ()):
            walk(child, depth + 1)

    for root in index.get(None, ()):
        walk(root, 0)


def report(trace, op_name) -> None:
    ops = sorted({s.name for s in trace.op_roots() if s.parent is None})
    targets = [op_name] if op_name else ops
    if not targets:
        print("no op.* spans in trace")
        return
    for target in targets:
        breakdown, n = aggregate_breakdown(trace, target)
        if not n:
            print(f"no finished {target} ops in trace")
            continue
        print(format_breakdown(breakdown, n, title=f"{target} breakdown"))
        print()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("jsonl_in", nargs="?", help="JSONL trace to report on")
    parser.add_argument("--demo", choices=DEMOS,
                        help="run a canonical traced scenario instead")
    parser.add_argument("--op", help="restrict to one op type, e.g. op.lt_write")
    parser.add_argument("--jsonl", help="also export the demo trace as JSONL")
    parser.add_argument("--chrome",
                        help="also export the demo trace as Chrome trace_event")
    parser.add_argument("--tree", action="store_true",
                        help="print the span forest before the breakdown")
    args = parser.parse_args(argv)

    if args.demo:
        tracer, default_op = run_demo(args.demo)
        if args.jsonl:
            write_jsonl(tracer, args.jsonl)
            print(f"wrote {len(tracer.spans)} spans to {args.jsonl}")
        if args.chrome:
            write_chrome_trace(tracer, args.chrome)
            print(f"wrote Chrome trace to {args.chrome}")
        trace = tracer
        op_name = args.op or default_op
    elif args.jsonl_in:
        trace = ReplayTrace.from_jsonl(args.jsonl_in)
        op_name = args.op
    else:
        parser.error("need a JSONL trace path or --demo")
        return 2

    if args.tree:
        print_tree(trace)
        print()
    report(trace, op_name)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
