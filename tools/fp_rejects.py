#!/usr/bin/env python3
"""Print docs/INTERNALS.md §13's fast-path coverage map.

One pass of each perfbench workload at the frozen seed, read from the
``fastpath`` section of its clusters' snapshots, set-up and timed
region (``Snapshot.delta``) as separate rows: attempts and commits,
every declined attempt under the first entry condition that failed
(the ``rej_*`` counters), and — the column the next uncovered shape is
read off — the work requests that ran the generator path without any
attempt, by opcode.

    python3 tools/fp_rejects.py [--min-setup-commits N] [workload ...]

``--min-setup-commits`` (CI) exits 1 when a listed workload's set-up
makes fewer than N commits.
"""

import argparse
import dataclasses
import os
import sys
from collections import Counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def install_probe(unattempted: Counter) -> None:
    """Count, by opcode, the WRs whose ``QueuePair._execute`` runs with
    no commit attempt behind them: not posted through ``post_send`` on
    an RC QP (the start-hop attempt) and not declined beforehand at
    LITE's post time (``try_fast_post``, called by the data plane in
    ``core/rdma.py`` and by the control SENDs in ``core/kernel.py``)."""
    from repro.core import kernel, rdma
    from repro.verbs.qp import QueuePair

    declined = {}  # id(wr) -> wr, for WRs LITE tried at post time
    post, execute = rdma.try_fast_post, QueuePair._execute
    assert kernel.try_fast_post is post

    def try_fast_post(qp, wr, window=None):
        result = post(qp, wr, window)
        if result is None:
            declined[id(wr)] = wr  # held until its generator path runs
        return result

    def _execute(self, wr, dst, predecessor=None, attempt=False):
        if not attempt and declined.pop(id(wr), None) is not wr:
            unattempted[wr.opcode.value] += 1
        return execute(self, wr, dst, predecessor, attempt)

    rdma.try_fast_post = kernel.try_fast_post = try_fast_post
    QueuePair._execute = _execute


def row(name, phase, stats, unattempted) -> str:
    rejects = sorted(((count, slot[4:]) for slot, count in stats.items()
                      if slot.startswith("rej_") and count), reverse=True)
    assert stats["attempts"] == stats["commits"] + sum(c for c, _ in rejects)
    return "| `{}` {} | {:,} | {:,} | {:,} | {} | {} |".format(
        name, phase, stats["attempts"], stats["commits"],
        stats["table_builds"],
        " · ".join(f"{reason} {count:,}" for count, reason in rejects) or "—",
        " · ".join(f"{opcode} {count:,}" for opcode, count
                   in sorted(unattempted.items()) if count) or "—")


def main(argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--min-setup-commits", type=int, default=0)
    parser.add_argument("workloads", nargs="*")
    args = parser.parse_args(argv)

    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]
    from harness import prepare_inputs, run_pass
    from workloads import DEFAULT_SEED, WORKLOADS

    from repro.stats import snapshot

    def total(snaps) -> dict:
        """The fast-path counters of ``snaps``, summed by name."""
        out = Counter()
        for snap in snaps:
            out.update(dataclasses.asdict(snap.fastpath))
        return out

    unattempted = Counter()
    install_probe(unattempted)
    print("| workload, phase | attempts | commits | table builds | rejects, "
          "by first failing check | generator-path WRs never attempted, by "
          "opcode |")
    print("|---|---|---|---|---|---|")
    failed = 0
    for name in args.workloads or WORKLOADS:
        workload = WORKLOADS[name]
        inputs, _digest = prepare_inputs(workload, DEFAULT_SEED, 1.0)
        start, setup_unattempted = [], Counter()

        def boundary(state):
            start.extend(snapshot(cluster) for cluster in state.clusters)
            setup_unattempted.update(unattempted)

        unattempted.clear()
        done = run_pass(workload, inputs, before=boundary)
        end = [snapshot(cluster) for cluster in done.state.clusters]
        done.release()
        setup = total(start)
        timed = total(snap.delta(base) for snap, base in zip(end, start))
        print(row(name, "set-up", setup, setup_unattempted))
        print(row(name, "timed", timed, unattempted - setup_unattempted))
        if setup["commits"] < args.min_setup_commits:
            print(f"{name}: {setup['commits']:,} set-up commits, fewer "
                  f"than {args.min_setup_commits:,}", file=sys.stderr)
            failed = 1
    return failed


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
