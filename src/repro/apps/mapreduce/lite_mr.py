"""LITE-MR: distributed MapReduce on LITE (paper §8.2).

Ported from Phoenix: mapper/reducer threads are spread over worker
nodes, a master node enforces the Phoenix job-splitting policy, and all
network communication is LT_read + LT_RPC:

- map outputs become named LMRs, one per finalized buffer, and only
  their *identifiers* travel through the master;
- reducers (and mergers) pull the actual bytes straight from the
  mapper nodes with one-sided LT_read — no data ever routes through
  the master;
- each worker keeps a per-node index (the split-index change from
  Phoenix that §8.2 credits for beating shared-memory Phoenix in the
  map and reduce phases).
"""

from __future__ import annotations

import json
from collections import Counter
from typing import Dict, List, Sequence, Tuple

from ...core import LiteContext, Permission, rpc_server_loop
from ...sim import Store
from .common import (
    MrCosts,
    decode_counts,
    encode_counts,
    map_task,
    merge_counts,
    partition_counts,
    split_tasks,
)

__all__ = ["LiteMR"]

_FUNC_WORKER = 10
_OPEN_PERM = Permission.READ | Permission.WRITE


class _Worker:
    """One worker node: maps, reduces and merges on command."""

    def __init__(self, kernel, worker_index: int, n_threads: int,
                 n_partitions: int, costs: MrCosts, job: str):
        self.ctx = LiteContext(kernel, f"litemr-w{worker_index}")
        self.sim = kernel.sim
        self.index = worker_index
        self.n_threads = max(1, n_threads)
        self.n_partitions = n_partitions
        self.costs = costs
        self.job = job
        self.documents: List[bytes] = []
        self._out_counter = 0
        self._server = None

    def start(self) -> None:
        """Spawn this worker's RPC service loop, once."""
        if self._server is None:
            self._server = self.sim.process(
                rpc_server_loop(self.ctx, _FUNC_WORKER, self._dispatch),
                name=f"litemr-worker{self.index}",
            )

    def _dispatch(self, request: bytes):
        command = json.loads(request.decode())
        kind = command["cmd"]
        if kind == "map":
            reply = yield from self._do_map(command)
        elif kind == "reduce":
            reply = yield from self._do_reduce(command)
        elif kind == "merge":
            reply = yield from self._do_merge(command)
        else:
            raise ValueError(f"unknown LITE-MR command {kind!r}")
        return json.dumps(reply).encode()

    # -- buffer helpers ------------------------------------------------
    def _publish(self, counts: Counter, label: str):
        """Serialize a counter into a fresh named LMR (generator)."""
        blob = encode_counts(counts)
        self._out_counter += 1
        name = f"{self.job}:{label}:{self.index}:{self._out_counter}"
        yield from self.ctx.kernel.node.cpu.execute(
            len(blob) * self.costs.serialize_us_per_byte, tag="litemr-ser"
        )
        lh = yield from self.ctx.lt_malloc(
            max(len(blob), 1), name=name, default_perm=_OPEN_PERM
        )
        if blob:
            yield from self.ctx.lt_write(lh, 0, blob)
        return {"name": name, "size": len(blob)}

    def _fetch(self, identifier: Dict):
        """Map + one-sided read of a published buffer (generator)."""
        lh = yield from self.ctx.lt_map(identifier["name"], _OPEN_PERM)
        blob = b""
        if identifier["size"]:
            blob = yield from self.ctx.lt_read(lh, 0, identifier["size"])
        yield from self.ctx.kernel.node.cpu.execute(
            len(blob) * self.costs.serialize_us_per_byte, tag="litemr-ser"
        )
        yield from self.ctx.lt_unmap(lh)
        return decode_counts(blob)

    # -- phases -----------------------------------------------------------
    def _do_map(self, command: Dict):
        cpu = self.ctx.kernel.node.cpu
        costs = self.costs
        tasks = Store(self.sim)
        for span in split_tasks(len(self.documents), self.n_threads * 4):
            tasks.put(span)
        finalized = [Counter() for _ in range(self.n_partitions)]

        def map_thread():
            while len(tasks) > 0:
                lo, hi = yield tasks.get()
                local, nbytes = map_task(self.documents[lo:hi])
                yield from cpu.execute(
                    nbytes * costs.map_us_per_byte, tag="litemr-map"
                )
                # Per-node index: no cross-node contention factor.
                yield from cpu.execute(
                    len(local) * costs.combine_us_per_pair, tag="litemr-map"
                )
                for part_index, part in enumerate(
                    partition_counts(local, self.n_partitions)
                ):
                    finalized[part_index].update(part)

        threads = [self.sim.process(map_thread()) for _ in range(self.n_threads)]
        yield self.sim.all_of(threads)
        outputs = []
        for part_index, counts in enumerate(finalized):
            identifier = yield from self._publish(counts, f"map-p{part_index}")
            identifier["partition"] = part_index
            outputs.append(identifier)
        return {"outputs": outputs}

    def _do_reduce(self, command: Dict):
        cpu = self.ctx.kernel.node.cpu
        parts = []
        for identifier in command["inputs"]:
            counts = yield from self._fetch(identifier)
            parts.append(counts)
        merged = merge_counts(parts)
        yield from cpu.execute(
            len(merged) * self.costs.reduce_us_per_pair, tag="litemr-reduce"
        )
        identifier = yield from self._publish(merged, f"red-p{command['partition']}")
        return {"output": identifier}

    def _do_merge(self, command: Dict):
        cpu = self.ctx.kernel.node.cpu
        left = yield from self._fetch(command["left"])
        right = yield from self._fetch(command["right"])
        merged = merge_counts([left, right])
        yield from cpu.execute(
            (len(left) + len(right)) * self.costs.merge_us_per_pair,
            tag="litemr-merge",
        )
        identifier = yield from self._publish(merged, "merge")
        return {"output": identifier}


class LiteMR:
    """The distributed job driver (runs at the master node)."""

    _job_counter = 0

    def __init__(self, kernels, n_workers: int = None, total_threads: int = 8,
                 n_partitions: int = 8, costs: MrCosts = None,
                 rpc_timeout_us: float = None, rpc_retries: int = 0):
        if len(kernels) < 2:
            raise ValueError("LITE-MR needs a master plus at least one worker")
        LiteMR._job_counter += 1
        self.job = f"mrjob{LiteMR._job_counter}"
        self.costs = costs if costs is not None else MrCosts()
        self.master_kernel = kernels[0]
        worker_kernels = kernels[1:]
        if n_workers is not None:
            worker_kernels = worker_kernels[:n_workers]
        self.master = LiteContext(self.master_kernel, "litemr-master")
        threads_each = max(1, total_threads // len(worker_kernels))
        self.workers = [
            _Worker(kernel, index, threads_each, n_partitions, self.costs, self.job)
            for index, kernel in enumerate(worker_kernels)
        ]
        self.n_partitions = n_partitions
        self.phase_times: Dict[str, float] = {}
        self.result: Counter = Counter()
        # Failure policy for master->worker RPCs (None = wait forever).
        self.rpc_timeout_us = rpc_timeout_us
        self.rpc_retries = rpc_retries

    def _worker_id(self, worker: _Worker) -> int:
        return worker.ctx.lite_id

    def _rpc(self, worker: _Worker, command: Dict):
        reply = yield from self.master.lt_rpc(
            self._worker_id(worker), _FUNC_WORKER,
            json.dumps(command).encode(), max_reply=256 * 1024,
            timeout=self.rpc_timeout_us, retries=self.rpc_retries,
        )
        return json.loads(reply.decode())

    def run(self, documents: Sequence[bytes]):
        """Execute WordCount over ``documents`` (generator; returns Counter).
        Repeatable: every call counts only its own ``documents``."""
        sim = self.master.sim
        # Input is pre-distributed across workers (HDFS-style locality).
        n_workers = len(self.workers)
        for index, worker in enumerate(self.workers):
            worker.documents = documents[index::n_workers]
            worker.start()
        yield sim.timeout(1.0)  # let server loops register

        # ---- map ------------------------------------------------------
        start = sim.now
        procs = [
            sim.process(self._rpc(worker, {"cmd": "map"}))
            for worker in self.workers
        ]
        replies = yield sim.all_of(procs)
        by_partition: Dict[int, List[Dict]] = {
            index: [] for index in range(self.n_partitions)
        }
        for reply in replies.values():
            for identifier in reply["outputs"]:
                by_partition[identifier["partition"]].append(identifier)
        self.phase_times["map"] = sim.now - start

        # ---- reduce ----------------------------------------------------
        start = sim.now
        procs = []
        for part_index in range(self.n_partitions):
            worker = self.workers[part_index % len(self.workers)]
            procs.append(
                sim.process(
                    self._rpc(
                        worker,
                        {"cmd": "reduce", "partition": part_index,
                         "inputs": by_partition[part_index]},
                    )
                )
            )
        replies = yield sim.all_of(procs)
        runs = [replies[index]["output"] for index in range(len(procs))]
        self.phase_times["reduce"] = sim.now - start

        # ---- merge (2-way rounds across workers) -----------------------
        start = sim.now
        round_robin = 0
        while len(runs) > 1:
            procs = []
            leftover = runs[-1] if len(runs) % 2 else None
            for index in range(0, len(runs) - 1, 2):
                worker = self.workers[round_robin % len(self.workers)]
                round_robin += 1
                procs.append(
                    sim.process(
                        self._rpc(
                            worker,
                            {"cmd": "merge", "left": runs[index],
                             "right": runs[index + 1]},
                        )
                    )
                )
            replies = yield sim.all_of(procs)
            runs = [replies[index]["output"] for index in range(len(procs))]
            if leftover is not None:
                runs.append(leftover)
        self.phase_times["merge"] = sim.now - start

        # Master pulls the final result.
        final = runs[0]
        lh = yield from self.master.lt_map(final["name"], _OPEN_PERM)
        blob = yield from self.master.lt_read(lh, 0, final["size"])
        self.result = decode_counts(blob)
        self.phase_times["total"] = sum(
            self.phase_times[phase] for phase in ("map", "reduce", "merge")
        )
        return self.result
