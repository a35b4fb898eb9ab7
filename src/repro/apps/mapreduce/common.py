"""Shared MapReduce machinery: WordCount kernels, costs, serialization.

All three systems (Phoenix, LITE-MR, Hadoop-sim) run the *same* real
computation — Python Counters over the same corpus — and the same
per-byte/per-pair compute-cost model, so their run-time differences come
only from where threads run and which network stack moves the data.
"""

from __future__ import annotations

import zlib
from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

__all__ = ["MrCosts", "wordcount_map", "map_task", "partition_counts",
           "encode_counts", "decode_counts", "merge_counts",
           "split_tasks"]


@dataclass
class MrCosts:
    """Compute-cost model (µs), identical across systems."""

    map_us_per_byte: float = 0.012        # tokenize + hash: ~80 MB/s/core
    combine_us_per_pair: float = 0.05
    reduce_us_per_pair: float = 0.08
    merge_us_per_pair: float = 0.04
    serialize_us_per_byte: float = 0.002  # counter <-> bytes
    # Phoenix's single shared tree-structured index is touched on every
    # token insert, contended across threads (§8.2): the whole map-side
    # path (tokenize + insert + combine) pays this factor.
    phoenix_index_factor: float = 1.45
    # Hadoop framework: per-task scheduling/JVM overhead + spill-to-disk.
    hadoop_task_overhead_us: float = 1800.0
    hadoop_spill_us_per_byte: float = 0.010   # ~100 MB/s effective disk


def wordcount_map(document: bytes) -> Counter:
    """The real map function: tokenize and count."""
    return Counter(document.split())


def map_task(documents: Sequence[bytes]) -> Tuple[Counter, int]:
    """One map task, as every system runs it: (counts, input bytes).

    Documents fold straight into the task's counter in one C-level pass
    each; the byte count is what the cost model charges for.
    """
    local: Counter = Counter()
    nbytes = 0
    for document in documents:
        local.update(document.split())
        nbytes += len(document)
    return local, nbytes


def partition_counts(counts: Counter, n_partitions: int) -> List[Counter]:
    """Split a counter into reduce partitions by the CRC-32 of each
    (bytes) word, so placement does not depend on the process."""
    parts = [Counter() for _ in range(n_partitions)]
    for word, count in counts.items():
        parts[zlib.crc32(word) % n_partitions][word] = count
    return parts


def encode_counts(counts: Counter) -> bytes:
    """Serialize word counts (word<TAB>count per line)."""
    lines = [b"%s\t%d" % (word, count) for word, count in sorted(counts.items())]
    return b"\n".join(lines)


def decode_counts(blob: bytes) -> Counter:
    """Inverse of :func:`encode_counts`."""
    counts: Counter = Counter()
    if not blob:
        return counts
    for line in blob.split(b"\n"):
        word, _tab, count = line.rpartition(b"\t")
        counts[word] = int(count)
    return counts


def merge_counts(parts: Sequence[Counter]) -> Counter:
    """Sum a sequence of word-count counters."""
    total: Counter = Counter()
    for part in parts:
        total.update(part)
    return total


def split_tasks(n_items: int, n_tasks: int) -> List[Tuple[int, int]]:
    """Split [0, n_items) into up to n_tasks contiguous (start, end) spans."""
    if n_items <= 0:
        return []
    n_tasks = min(n_tasks, n_items)
    base, extra = divmod(n_items, n_tasks)
    spans = []
    start = 0
    for index in range(n_tasks):
        size = base + (1 if index < extra else 0)
        spans.append((start, start + size))
        start += size
    return spans
