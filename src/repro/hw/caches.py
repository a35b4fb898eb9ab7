"""On-RNIC SRAM cache models.

The RNIC keeps three kinds of state in its (small) SRAM: memory-region
key records (lkey/rkey), cached page-table entries for registered
regions, and per-QP connection state.  Each is modelled as an LRU cache
with a fixed entry budget; a miss costs a host-memory fetch over PCIe.

These caches are the mechanism behind the paper's Figures 4, 5 and the
QP-count scalability discussion (§2.4): LITE sidesteps all three by
registering a single physical-address MR and sharing K×N QPs.
"""

from __future__ import annotations

from itertools import islice
from typing import Hashable, Iterable, Sequence

__all__ = ["LruCache", "LruDict", "CacheStats"]


class CacheStats:
    """Hit/miss counters, resettable between benchmark phases."""

    __slots__ = ("hits", "misses", "evictions", "installs")

    def __init__(self):
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.installs = 0

    def reset(self) -> None:
        """Zero all counters."""
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.installs = 0

    @property
    def accesses(self) -> int:
        """Total lookups."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups that hit (1.0 when untouched)."""
        total = self.accesses
        return self.hits / total if total else 1.0

    def __repr__(self) -> str:
        return (
            f"CacheStats(hits={self.hits}, misses={self.misses}, "
            f"hit_rate={self.hit_rate:.3f})"
        )


class LruCache:
    """Fixed-capacity LRU over hashable keys.

    ``access`` returns True on a hit.  On a miss the entry is installed
    (the RNIC always fills after fetching from host memory), evicting the
    least-recently-used entry if full.

    Recency order rides the intrinsic insertion order of a plain dict:
    a hit is an O(1) delete + reinsert (move-to-end), the LRU victim is
    ``next(iter(dict))``.  Figure 4/5/14 sweeps call :meth:`access`
    millions of times, and plain-dict operations beat ``OrderedDict``'s
    linked-list bookkeeping on every one of them.
    """

    __slots__ = ("capacity", "name", "_entries", "stats")

    def __init__(self, capacity: int, name: str = "cache"):
        if capacity < 1:
            raise ValueError(f"cache capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.name = name
        self._entries: "dict[Hashable, None]" = {}
        self.stats = CacheStats()

    def access(self, key: Hashable) -> bool:
        """Look up ``key``; True on hit (misses auto-install)."""
        entries = self._entries
        stats = self.stats
        if key in entries:
            # Move-to-end: delete + reinsert lands the key at the back
            # of the dict's insertion order (most recently used).
            del entries[key]
            entries[key] = None
            stats.hits += 1
            return True
        stats.misses += 1
        if len(entries) >= self.capacity:
            del entries[next(iter(entries))]
            stats.evictions += 1
        entries[key] = None
        stats.installs += 1
        return False

    def access_many(self, keys: Iterable[Hashable]) -> "tuple[int, int]":
        """Bulk :meth:`access`; returns ``(hits, misses)``.

        State- and stats-equivalent to looping :meth:`access` over
        ``keys`` (same final LRU order, same per-key evictions), but the
        counters are updated once at the end instead of per key.
        """
        entries = self._entries
        capacity = self.capacity
        hits = misses = evictions = installs = 0
        for key in keys:
            if key in entries:
                del entries[key]
                entries[key] = None
                hits += 1
                continue
            misses += 1
            if len(entries) >= capacity:
                del entries[next(iter(entries))]
                evictions += 1
            entries[key] = None
            installs += 1
        stats = self.stats
        stats.hits += hits
        stats.misses += misses
        stats.evictions += evictions
        stats.installs += installs
        return hits, misses

    def contains(self, key: Hashable) -> bool:
        """Probe without updating recency or stats."""
        return key in self._entries

    def contains_all(self, keys: Iterable[Hashable]) -> bool:
        """Probe many keys without updating recency or stats."""
        entries = self._entries
        for key in keys:
            if key not in entries:
                return False
        return True

    def predict_misses(self, keys: "Sequence[Hashable]") -> "int | None":
        """How many of ``keys`` :meth:`access_many` would miss; no update.

        ``keys`` must be distinct.  Returns None when the answer depends
        on the access itself: an early miss's install could evict a page
        that is resident now before its own turn comes.  The victims of
        the access's evictions are a prefix of the current LRU order, so
        the count is exact whenever that prefix holds none of ``keys``.
        """
        entries = self._entries
        misses = 0
        for key in keys:
            if key not in entries:
                misses += 1
        evictions = len(entries) + misses - self.capacity
        if misses and evictions > 0 and misses < len(keys):
            wanted = set(keys)
            for victim in islice(entries, evictions):
                if victim in wanted:
                    return None
        return misses

    def invalidate(self, key: Hashable) -> bool:
        """Drop one entry (e.g., MR deregistration); True if present."""
        if key in self._entries:
            del self._entries[key]
            return True
        return False

    def invalidate_many(self, keys: Iterable[Hashable]) -> int:
        """Drop every listed entry; returns how many were present.

        O(len(keys)) — callers that know the doomed keys (MR
        deregistration knows its page ids) should prefer this over
        :meth:`invalidate_where`, which scans the whole cache.
        """
        entries = self._entries
        count = 0
        for key in keys:
            if key in entries:
                del entries[key]
                count += 1
        return count

    def invalidate_where(self, predicate) -> int:
        """Drop all entries matching ``predicate(key)``; returns count."""
        doomed = [key for key in self._entries if predicate(key)]
        for key in doomed:
            del self._entries[key]
        return len(doomed)

    def clear(self) -> None:
        """Drop every entry (stats retained)."""
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:
        return (
            f"LruCache({self.name}, {len(self._entries)}/{self.capacity}, "
            f"{self.stats!r})"
        )


class LruDict:
    """Bounded key→value mapping with O(1) insertion-order eviction.

    The value-carrying sibling of :class:`LruCache`, used for the
    software-side duplicate-suppression caches (RPC reply cache, control
    reply cache).  Unlike :class:`LruCache`, lookups do NOT bump
    recency: eviction is pure insertion order, so replacing the old
    ``while len(...) >= MAX: pop(next(iter(...)))`` loops with
    :meth:`put` keeps the victim sequence — and therefore every
    duplicate-suppression outcome — bit-identical.  Overwriting an
    existing key keeps its original position (plain-dict assignment
    semantics, matching the legacy code).
    """

    __slots__ = ("capacity", "name", "_entries", "stats")

    def __init__(self, capacity: int, name: str = "cache"):
        if capacity < 1:
            raise ValueError(f"cache capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.name = name
        self._entries: dict = {}
        self.stats = CacheStats()

    def get(self, key: Hashable, default=None):
        """Value for ``key`` (no recency bump; counts hit/miss)."""
        value = self._entries.get(key, default)
        if value is default:
            self.stats.misses += 1
        else:
            self.stats.hits += 1
        return value

    def put(self, key: Hashable, value) -> None:
        """Install ``key`` → ``value``, evicting oldest entries if full."""
        entries = self._entries
        if key in entries:
            entries[key] = value
            return
        stats = self.stats
        while len(entries) >= self.capacity:
            del entries[next(iter(entries))]
            stats.evictions += 1
        entries[key] = value
        stats.installs += 1

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries

    def invalidate_many(self, keys: Iterable[Hashable]) -> int:
        """Drop every listed entry; returns how many were present.

        Mirrors :meth:`LruCache.invalidate_many`: surviving entries
        keep their relative insertion order, so the eviction sequence
        after a batch invalidation matches deleting the same keys from
        a plain dict one by one.
        """
        entries = self._entries
        count = 0
        for key in keys:
            if key in entries:
                del entries[key]
                count += 1
        return count

    def clear(self) -> None:
        """Drop every entry (stats retained)."""
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:
        return (
            f"LruDict({self.name}, {len(self._entries)}/{self.capacity}, "
            f"{self.stats!r})"
        )
