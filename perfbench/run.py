#!/usr/bin/env python3
"""perfbench: six frozen workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload kv_etc_4c --trace 0
    python3 perfbench/run.py --workload all          # every workload

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` runs the profiled / counter / no-fast-path / sim-trace
passes and reports the per-layer metrics.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  The full record (per-pass raw values, sample counts,
ratio bases, host, git sha) is printed before it and written under
``.perfbench_out/``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench_out")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=11,
                        help="seeds the input generators only (default 11, "
                             "whose inputs are frozen by digest)")
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="keep adding timed passes beyond the fifth "
                             "until this much time has been measured")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink every workload (smoke tests only; "
                             "results at scale != 1 are not comparable)")
    parser.add_argument("--out", default=OUT_DIR,
                        help="directory for result records and span samples")
    return parser.parse_args(argv)


def run_all(args) -> int:
    """Each workload in its own fresh process, so peak RSS is its own."""
    status = 0
    from workloads import WORKLOADS
    for name in WORKLOADS:
        child = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--scale", str(args.scale),
             "--out", args.out],
            env=dict(os.environ, PYTHONHASHSEED="0"))
        status = status or child.returncode
    return status


def run_one(args) -> int:
    from harness import BenchError, END_TO_END, end_to_end, prepare_inputs, \
        provenance
    from layers import per_layer, per_layer_units
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)} or 'all'", file=sys.stderr)
        return 2
    try:
        inputs, digest = prepare_inputs(workload, args.seed, args.scale)
        if args.trace:
            units = per_layer_units()
            metrics, detail, first = per_layer(workload, inputs, args.out)
        else:
            units = END_TO_END
            metrics, detail, first = end_to_end(
                workload, inputs, args.seconds)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    rec = first.rec
    record = {
        "workload": workload.name,
        "trace": args.trace,
        "loop": workload.loop,
        **provenance(args.seed, args.scale, digest),
        **detail,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(
        args.out, f"{workload.name}.trace{args.trace}.seed{args.seed}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")

    print(f"perfbench {workload.name} trace={args.trace} seed={args.seed} "
          f"v{record['workloads_version']} python {record['python']} "
          f"cpus {record['host_cpus']} git {record['git_sha'][:12]}")
    for name, unit in units.items():
        note = detail.get("ratio_bases", {}).get(name)
        print(f"  {name:<34} {metrics[name]:>16.6g} {unit}"
              + (f"   [{note}]" if note else ""))
    if not args.trace:
        print(f"  passes {detail['passes']}, {detail['ops_per_pass']} ops and "
              f"{detail['sim_us_per_pass']:.3f} simulated us per pass; "
              f"sim_p99_us is p{detail['tail_percentile']:g} over "
              f"{detail['latency_samples']} samples; retries "
              f"{detail['retries']}")
        for key, values in detail["per_pass"].items():
            print(f"  per-pass {key}: "
                  + " ".join(f"{value:.6g}" for value in values))
    for check, count in rec.failures.items():
        print(f"  FAILED CHECK {check}: {count}")
    print(f"record: {os.path.relpath(path)}")
    print(json.dumps({
        "correct": rec.failed == 0,
        "attempted": rec.ops,
        "failed": rec.failed,
        "metrics": record["metrics"],
    }))
    return 0


def main() -> int:
    args = parse_args(sys.argv[1:])
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("perfbench: src/repro not found beside perfbench/: nothing "
              "to measure", file=sys.stderr)
        return 2
    if args.workload == "all":
        sys.path.insert(0, os.path.join(ROOT, "src"))
        return run_all(args)
    if os.environ.get("PYTHONHASHSEED") != "0":
        # repro.apps shards keys by hash(bytes): pin the hash seed so
        # simulated results repeat across processes.
        os.execve(sys.executable,
                  [sys.executable, os.path.abspath(__file__)] + sys.argv[1:],
                  dict(os.environ, PYTHONHASHSEED="0"))
    sys.path.insert(0, os.path.join(ROOT, "src"))
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
