"""Fixed-bucket latency histograms, built from span durations.

Buckets have fixed, pre-computed log2 bounds so two identical runs
produce byte-identical histograms (no adaptive resizing).  Percentiles
interpolate linearly inside a bucket, which is exact enough for the
p50/p99 figures the paper reports.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterable, Optional, Tuple

__all__ = ["HistogramSnapshot"]

# Log2 bucket upper bounds in microseconds: 0.125 us .. ~16.8 s.  The
# final implicit bucket catches anything beyond the last bound.
_BUCKET_BOUNDS: Tuple[float, ...] = tuple(0.125 * (2 ** k) for k in range(28))


class HistogramSnapshot:
    """Immutable latency histogram (microseconds), delta-able."""

    __slots__ = ("counts", "total", "count", "min", "max")

    def __init__(self, counts: Tuple[int, ...], total: float, count: int,
                 min_value: Optional[float], max_value: Optional[float]):
        self.counts = counts
        self.total = total
        self.count = count
        self.min = min_value
        self.max = max_value

    @classmethod
    def from_samples(cls, samples: Iterable[float]) -> "HistogramSnapshot":
        """Bucket ``samples``: each lands in the first bucket whose
        upper bound is >= the value."""
        samples = list(samples)
        counts = [0] * (len(_BUCKET_BOUNDS) + 1)
        for value in samples:
            counts[bisect_left(_BUCKET_BOUNDS, value)] += 1
        return cls(tuple(counts), sum(samples, 0.0), len(samples),
                   min(samples, default=None), max(samples, default=None))

    def delta(self, baseline: "HistogramSnapshot") -> "HistogramSnapshot":
        """Observations accumulated since ``baseline``.

        min/max are not subtractable; the delta keeps the current values
        (they bound the delta's observations from outside).
        """
        counts = tuple(a - b for a, b in zip(self.counts, baseline.counts))
        return HistogramSnapshot(
            counts, self.total - baseline.total, self.count - baseline.count,
            self.min, self.max,
        )

    @property
    def mean(self) -> float:
        """Mean observed value (0.0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def percentile(self, p: float) -> float:
        """Approximate percentile via in-bucket linear interpolation."""
        if self.count == 0:
            return 0.0
        rank = (p / 100.0) * self.count
        cumulative = 0
        for index, bucket_count in enumerate(self.counts):
            if bucket_count == 0:
                continue
            if cumulative + bucket_count >= rank:
                lo = _BUCKET_BOUNDS[index - 1] if index > 0 else 0.0
                hi = (
                    _BUCKET_BOUNDS[index]
                    if index < len(_BUCKET_BOUNDS)
                    else (self.max if self.max is not None else lo * 2)
                )
                within = (rank - cumulative) / bucket_count
                return lo + (hi - lo) * within
            cumulative += bucket_count
        return self.max if self.max is not None else 0.0

    def __repr__(self) -> str:
        return (
            f"HistogramSnapshot(n={self.count}, mean={self.mean:.3f}, "
            f"p50={self.percentile(50):.3f}, p99={self.percentile(99):.3f})"
        )
