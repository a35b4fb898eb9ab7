#!/usr/bin/env python3
"""Does perfbench agree with itself?

    python3 perfbench/selfcheck.py            # two full sets of runs, ~15 min
    python3 perfbench/selfcheck.py --smoke    # schema check at 1/20 size
    python3 perfbench/selfcheck.py --compare DIR_A DIR_B

The default mode measures the same tree as two sets — per workload,
three end-to-end runs each, interleaved A B A B A B, and one traced run
each — and compares them: the medians of the host-time metrics must
agree within the bound BENCHMARK.json gives them; every simulated
metric, counter and stage value must be bit-identical in every run.
(One run per set is not enough on a shared host: a slow spell of 20 s
covers a whole run.)  ``--compare`` applies the same rules to two
directories of result records — one record per workload, or one
subdirectory per repeated run — e.g. from a parent commit and a change
that claims to leave simulated results untouched.  Exits non-zero on
any disagreement.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
SMOKE_SCALE = 0.05
RUNS = 3  # end-to-end runs per workload in each set


def load_benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def run_workload(name: str, trace: int, out_dir: str, scale: float = 1.0,
                 seconds: float = 10.0):
    """One run.py process; returns (last-line result, full record)."""
    child = subprocess.run(
        [sys.executable, RUN, "--workload", name, "--trace", str(trace),
         "--scale", str(scale), "--seconds", str(seconds), "--out", out_dir],
        capture_output=True, text=True)
    if child.returncode:
        raise SystemExit(f"{name} trace={trace} exited {child.returncode}:\n"
                         f"{child.stdout}{child.stderr}")
    result = json.loads(child.stdout.rstrip().rsplit("\n", 1)[-1])
    with open(os.path.join(out_dir, record_name(name, trace))) as fh:
        return result, json.load(fh)


def record_name(name: str, trace: int, seed: int = 11) -> str:
    return f"{name}.trace{trace}.seed{seed}.json"


def load_records(directory: str, name: str, trace: int) -> list:
    """The records of one workload in ``directory`` and in its
    immediate subdirectories (one per repeated run)."""
    found = []
    for pattern in (record_name(name, trace),
                    os.path.join("*", record_name(name, trace))):
        for path in sorted(glob.glob(os.path.join(directory, pattern))):
            with open(path) as fh:
                found.append(json.load(fh))
    return found


def host_time_metric(name: str, unit: str) -> bool:
    """Measured on the host clock (noisy) rather than simulated or
    counted (exact)."""
    return (unit in ("s", "x", "1/s", "MB") or name.endswith(".calls")
            or name.endswith("host_us_per_op"))


def compare_records(set_a: list, set_b: list, bounds: dict) -> list:
    """Print one row per metric; return the names that disagree.

    Each set holds one record per repeated run.  Host-time metrics
    compare the medians over the runs against the metric's bound;
    everything else must be one and the same value in every record.
    """
    bad = []
    first = set_a[0]
    tag = f"{first['workload']} trace={first['trace']}"
    identity = {(r["workloads_version"], r["seed"], r["scale"],
                 r["input_digest"]) for r in set_a + set_b}
    if len(identity) != 1:
        print(f"{tag}: records are of different workload versions, seeds, "
              f"scales or inputs — not comparable")
        return [f"{tag} inputs"]
    for metric, entry in first["metrics"].items():
        values = [[r["metrics"][metric]["value"] for r in records]
                  for records in (set_a, set_b)]
        if not host_time_metric(metric, entry["unit"]):
            rule = "exact"
            ok = len(set(values[0] + values[1])) == 1
        elif metric in bounds:
            rule = f"within {bounds[metric]:.0%}"
        else:
            continue  # per-layer host times: reported, never gated
        medians = [statistics.median(side) for side in values]
        if rule != "exact":
            ok = abs(medians[1] - medians[0]) <= bounds[metric] * medians[0]
        spread = ""
        pooled = [[v for r in records
                   for v in r.get("per_pass", {}).get(metric, ())]
                  for records in (set_a, set_b)]
        if all(pooled):
            spread = "  pass quartiles " + " | ".join(
                "{0:.6g}..{2:.6g}".format(*statistics.quantiles(side, n=4))
                for side in pooled)
        print(f"{tag:<26} {metric:<30} {medians[0]:<14.8g} "
              f"{medians[1]:<14.8g} {rule:<11} "
              f"{'ok' if ok else 'DISAGREE'}{spread}")
        if not ok:
            bad.append(f"{tag} {metric}")
    return bad


def compare_dirs(dir_a: str, dir_b: str) -> int:
    spec = load_benchmark()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    bad = []
    for workload in spec["workloads"]:
        for trace in (0, 1):
            sets = [load_records(d, workload["name"], trace)
                    for d in (dir_a, dir_b)]
            if not all(sets):
                print(f"{workload['name']} trace={trace}: no record in both "
                      f"directories, skipped")
                continue
            bad += compare_records(sets[0], sets[1], bounds)
    if bad:
        print(f"selfcheck: {len(bad)} disagreement(s): " + "; ".join(bad))
        return 1
    print("selfcheck: the two sets agree")
    return 0


def full(out_root: str) -> int:
    """Two sets of RUNS end-to-end runs per workload, interleaved so
    a slow spell of the host falls on both, plus one traced run each."""
    spec = load_benchmark()
    sets = [os.path.join(out_root, "selfcheck_a"),
            os.path.join(out_root, "selfcheck_b")]
    for workload in spec["workloads"]:
        name = workload["name"]
        for index in range(RUNS):
            for out_dir in sets:
                run_workload(name, 0, os.path.join(out_dir, f"run{index}"),
                             seconds=spec["run_seconds"])
        for out_dir in sets:
            run_workload(name, 1, out_dir)
        print(f"ran {name}: 2 x {RUNS} end-to-end runs, 2 traced",
              flush=True)
    return compare_dirs(*sets)


def smoke(out_root: str) -> int:
    """Names, units and schema against BENCHMARK.json, at 1/20 size."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from harness import END_TO_END
    from layers import LAYERS, per_layer_units
    from workloads import WORKLOADS

    spec = load_benchmark()
    problems = []

    def expect(condition: bool, message: str) -> None:
        if not condition:
            problems.append(message)

    expect(set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"},
           f"BENCHMARK.json keys: {sorted(spec)}")
    expect([w["name"] for w in spec["workloads"]] == list(WORKLOADS),
           "BENCHMARK.json workloads differ from perfbench/workloads.py")
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    expect(declared[0] == END_TO_END,
           "BENCHMARK.json end_to_end differs from harness.END_TO_END")
    expect(declared[1] == per_layer_units(),
           "BENCHMARK.json per_layer differs from layers.per_layer_units()")
    expect(len(declared[1]) <= 128, "more than 128 per-layer metrics")
    for metric in spec["end_to_end"]:
        expect(set(metric) == {"name", "unit", "better", "bound"}
               and metric["better"] in ("lower", "higher")
               and 0 < metric["bound"] <= 0.25,
               f"end_to_end entry {metric}")
    # No run attempts as many as 1e6 ops, so this bound admits no failure.
    expect({m["name"]: m["bound"] for m in spec["end_to_end"]}
           .get("ok_frac", 1) <= 1e-6, "ok_frac's bound admits a failed op")

    out_dir = os.path.join(out_root, "smoke")
    for name in WORKLOADS:
        for trace in (0, 1):
            result, record = run_workload(name, trace, out_dir,
                                          scale=SMOKE_SCALE, seconds=0.0)
            tag = f"{name} trace={trace}"
            expect(set(result) == {"correct", "attempted", "failed",
                                   "metrics"}, f"{tag}: keys {sorted(result)}")
            expect(result["correct"] is True and result["failed"] == 0
                   and result["attempted"] >= 1, f"{tag}: not correct")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(got == declared[trace],
                   f"{tag}: metric names/units differ from BENCHMARK.json: "
                   f"{sorted(set(got) ^ set(declared[trace]))}")
            for key in ("host_cpus", "python", "git_sha", "workloads_version",
                        "seed", "input_digest"):
                expect(key in record, f"{tag}: record lacks {key}")
            if trace:
                layered = sum(
                    record["metrics"][f"{layer}.self_s"]["value"]
                    for layer in LAYERS)
                expect(abs(layered / record["profiled_wall_s"] - 1.0) <= 0.01,
                       f"{tag}: layer self_s sums to {layered:.4f} s of "
                       f"{record['profiled_wall_s']:.4f} s profiled")
            print(f"smoke {tag}: ok", flush=True)
    for problem in problems:
        print(f"smoke: {problem}")
    print("smoke: " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--compare", nargs=2, metavar="DIR")
    args = parser.parse_args()
    out_root = os.path.join(ROOT, ".perfbench_out")
    if args.compare:
        return compare_dirs(*args.compare)
    return smoke(out_root) if args.smoke else full(out_root)


if __name__ == "__main__":
    sys.exit(main())
