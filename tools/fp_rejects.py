#!/usr/bin/env python3
"""Print docs/INTERNALS.md §13's fast-path coverage map.

One pass of each perfbench workload at the frozen seed, read straight
from ``repro.verbs.fastpath.fp_stats``, set-up and timed region as
separate rows: attempts and commits per entry family, every declined
attempt under the first entry condition that failed (the ``rej_*``
counters), and — the column the next uncovered shape is read off — the
work requests that ran the generator path without any attempt, by
opcode.

    python3 tools/fp_rejects.py [--min-setup-commits N] [workload ...]

``--min-setup-commits`` (CI) exits 1 when a listed workload's set-up
commits fewer WR-entry attempts than N.
"""

import argparse
import os
import sys
from collections import Counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def install_probe(unattempted: Counter) -> None:
    """Count, by opcode, the WRs whose ``QueuePair._execute`` runs with
    no commit attempt behind them: not posted through ``post_send`` on
    an RC QP (the start-hop attempt) and not declined beforehand by one
    of LITE's post-time entries (``try_fast_post``, called by the data
    plane in ``core/rdma.py`` and by the control SENDs in
    ``core/kernel.py``; ``try_fast_chain``)."""
    from repro.core import kernel, rdma
    from repro.verbs.qp import QueuePair
    from repro.verbs.wr import SendWR

    tried = set()  # wr_ids a LITE entry declined (LITE never sets wr_id)
    post, chain, execute = (rdma.try_fast_post, rdma.try_fast_chain,
                            QueuePair._execute)
    assert kernel.try_fast_post is post

    def try_fast_post(qp, wr, window=None):
        tried.add(wr.wr_id)
        return post(qp, wr, window)

    def try_fast_chain(*args):
        done = chain(*args)
        if done is None:  # the caller builds the WR next, with this id
            tried.add(SendWR._next_id + 1)
        return done

    def _execute(self, wr, dst, predecessor=None, doorbell_wait=None,
                 doorbell_fire=None, attempt=False):
        if not attempt and wr.wr_id not in tried:
            unattempted[wr.opcode.value] += 1
        return execute(self, wr, dst, predecessor, doorbell_wait,
                       doorbell_fire, attempt)

    rdma.try_fast_post = kernel.try_fast_post = try_fast_post
    rdma.try_fast_chain = try_fast_chain
    QueuePair._execute = _execute


def row(name, phase, stats, unattempted) -> str:
    rejects = sorted(((count, slot[4:]) for slot, count in stats.items()
                      if slot.startswith("rej_") and count), reverse=True)
    attempts = [stats[key] for key in
                ("attempts", "chain_attempts", "vec_attempts")]
    commits = [stats[key] for key in
               ("commits", "chain_commits", "vec_commits")]
    assert sum(attempts) == sum(commits) + sum(c for c, _ in rejects)
    return "| `{}` {} | {} | {} | {:,} | {} | {} |".format(
        name, phase,
        " / ".join(f"{value:,}" for value in attempts),
        " / ".join(f"{value:,}" for value in commits),
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

    from repro.verbs.fastpath import fp_stats

    unattempted = Counter()
    install_probe(unattempted)
    print("| workload, phase | attempts WR / chain / plan | commits WR / "
          "chain / plan | table builds | rejects, by first failing check | "
          "generator-path WRs never attempted, by opcode |")
    print("|---|---|---|---|---|---|")
    failed = 0
    for name in args.workloads or WORKLOADS:
        workload = WORKLOADS[name]
        inputs, _digest = prepare_inputs(workload, DEFAULT_SEED, 1.0)
        setup, setup_unattempted = {}, Counter()

        def boundary(_state):
            setup.update({slot: getattr(fp_stats, slot)
                          for slot in fp_stats.__slots__})
            setup_unattempted.update(unattempted)

        unattempted.clear()
        run_pass(workload, inputs, before=boundary).release()  # resets fp_stats
        timed = {slot: getattr(fp_stats, slot) - setup[slot]
                 for slot in fp_stats.__slots__}
        print(row(name, "set-up", setup, setup_unattempted))
        print(row(name, "timed", timed, unattempted - setup_unattempted))
        if setup["commits"] < args.min_setup_commits:
            print(f"{name}: {setup['commits']:,} set-up WR commits, fewer "
                  f"than {args.min_setup_commits:,}", file=sys.stderr)
            failed = 1
    return failed


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != "0":
        # repro.apps shards by hash(bytes); pin it as perfbench/run.py does.
        os.execve(sys.executable, [sys.executable] + sys.argv,
                  dict(os.environ, PYTHONHASHSEED="0"))
    sys.exit(main(sys.argv[1:]))
