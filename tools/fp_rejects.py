#!/usr/bin/env python3
"""Print docs/INTERNALS.md §13's per-workload fast-path table.

One pass of each perfbench workload at the frozen seed, set-up
included, read straight from ``repro.verbs.fastpath.fp_stats``:
attempts and commits per entry family and every declined attempt under
the first entry condition that failed (the ``rej_*`` counters).

    python3 tools/fp_rejects.py [workload ...]
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main(names) -> int:
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]
    from harness import prepare_inputs, run_pass
    from workloads import DEFAULT_SEED, WORKLOADS

    from repro.verbs.fastpath import fp_stats

    print("| workload | attempts WR / chain / plan | commits WR / chain / "
          "plan | table builds | rejects, by first failing check |")
    print("|---|---|---|---|---|")
    for name in names or WORKLOADS:
        workload = WORKLOADS[name]
        inputs, _digest = prepare_inputs(workload, DEFAULT_SEED, 1.0)
        run_pass(workload, inputs).release()  # resets fp_stats first
        stats = {slot: getattr(fp_stats, slot) for slot in fp_stats.__slots__}
        rejects = sorted(((count, slot[4:]) for slot, count in stats.items()
                          if slot.startswith("rej_") and count), reverse=True)
        attempts = [stats[key] for key in
                    ("attempts", "chain_attempts", "vec_attempts")]
        commits = [stats[key] for key in
                   ("commits", "chain_commits", "vec_commits")]
        assert sum(attempts) == sum(commits) + sum(c for c, _ in rejects)
        print("| `{}` | {} | {} | {:,} | {} |".format(
            name,
            " / ".join(f"{value:,}" for value in attempts),
            " / ".join(f"{value:,}" for value in commits),
            stats["table_builds"],
            " · ".join(f"{reason} {count:,}" for count, reason in rejects)
            or "—"))
    return 0


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != "0":
        # repro.apps shards by hash(bytes); pin it as perfbench/run.py does.
        os.execve(sys.executable, [sys.executable] + sys.argv,
                  dict(os.environ, PYTHONHASHSEED="0"))
    sys.exit(main(sys.argv[1:]))
