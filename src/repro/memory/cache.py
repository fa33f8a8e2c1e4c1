"""Set-associative cache with LRU replacement.

Used for the L1 data cache (per SM, sizeable and bypassable — the
Figure 2 sweep), the L2 slice, and the small constant cache.  The model
is a tag store only: hit/miss behaviour and statistics, no data.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class CacheStats:
    """Hit/miss counters; ``weighted_*`` honour sampling weights."""

    accesses: float = 0.0
    hits: float = 0.0
    misses: float = 0.0

    def merge(self, other: "CacheStats") -> None:
        """Accumulate *other* into this instance."""
        self.accesses += other.accesses
        self.hits += other.hits
        self.misses += other.misses


def _geometry(size_bytes: int, line_bytes: int, assoc: int) -> tuple[int, int]:
    """``(n_sets, index_shift)`` of a cache geometry (0 sets = bypassed)."""
    n_lines = size_bytes // line_bytes
    n_sets = max(1, n_lines // assoc) if n_lines else 0
    return n_sets, max(1, n_sets.bit_length() - 1)


def _set_index(line, index_shift: int, n_sets: int):
    """Hashed set index (XOR-folded), as GPU caches use to avoid
    pathological conflicts on power-of-two strides — e.g. the 4 KB-apart
    weight rows of a fully-connected layer.  Works elementwise on numpy
    arrays too; the hot paths below inline the same expression."""
    return (line ^ (line >> index_shift)) % n_sets


class Cache:
    """A set-associative LRU tag store.

    A ``size_bytes`` of 0 models a bypassed cache: every access misses
    and nothing is allocated (the paper's "No L1" configuration).
    ``evictions`` counts lines displaced by allocations (never sampled
    or weighted: it is a structural count, not a traffic statistic).
    ``version`` is a membership version: every call that may allocate,
    evict or flush a line bumps it, so while it is unchanged the set of
    resident lines is too, and a :meth:`count_missing` answer for the
    same addresses still holds.  A hit's LRU move changes no membership
    and leaves it alone.
    """

    def __init__(
        self, name: str, size_bytes: int, line_bytes: int = 128, assoc: int = 8
    ) -> None:
        if size_bytes < 0:
            raise ValueError("cache size must be non-negative")
        if line_bytes <= 0 or (line_bytes & (line_bytes - 1)):
            raise ValueError("line_bytes must be a positive power of two")
        self.name = name
        self.size_bytes = size_bytes
        self.line_bytes = line_bytes
        self.assoc = max(1, assoc)
        self.n_sets, self._index_shift = _geometry(size_bytes, line_bytes, self.assoc)
        # Each set is an LRU-ordered dict of tags (most recent last):
        # insertion order is the recency order, membership is O(1), and
        # evicting the first key equals popping an LRU list's head.
        self._sets: list[dict[int, None]] = [{} for _ in range(self.n_sets)]
        # line_bytes is a power of two (checked above): tag extraction
        # is a shift, measurably cheaper than division on the hot path.
        self._line_shift = line_bytes.bit_length() - 1
        self.stats = CacheStats()
        self.evictions = 0
        self.version = 0

    @staticmethod
    def holds(lines, size_bytes: int, line_bytes: int = 128, assoc: int = 8) -> bool:
        """Would a fresh cache of this geometry take the distinct line
        numbers *lines* without evicting one?

        True exactly when no set receives more than ``assoc`` of them
        under this geometry's XOR-folded index — then any replay of
        *lines*, in any order and with repeats, leaves
        :attr:`evictions` at 0.  A bypassed geometry holds no line.
        Computed from the geometry alone: no cache is allocated.  The
        lines must be distinct (a footprint is), so one ``bincount``
        does; deduplicating with ``np.unique`` would also import
        ``numpy.ma``, about 0.7 MB of resident memory.
        """
        lines = np.asarray(lines, dtype=np.int64)
        assoc = max(1, assoc)
        n_sets, shift = _geometry(size_bytes, line_bytes, assoc)
        if not n_sets:
            return len(lines) == 0
        if len(lines) <= assoc:
            return True
        return int(np.bincount(_set_index(lines, shift, n_sets)).max()) <= assoc

    @property
    def enabled(self) -> bool:
        """False when the cache is bypassed (zero capacity)."""
        return self.n_sets > 0

    def access(self, addr: int, weight: float = 1.0, allocate: bool = True) -> bool:
        """Look up the line containing *addr*; returns True on hit.

        Args:
            addr: Byte address.
            weight: Sampling weight added to the counters.
            allocate: Allocate on miss (write-through no-allocate stores
                pass False).
        """
        stats = self.stats
        stats.accesses += weight
        n_sets = self.n_sets
        if not n_sets:  # bypassed
            stats.misses += weight
            return False
        tag = addr >> self._line_shift
        entry = self._sets[(tag ^ (tag >> self._index_shift)) % n_sets]
        if tag in entry:
            # Move to MRU position (re-insertion puts the key last).
            del entry[tag]
            entry[tag] = None
            stats.hits += weight
            return True
        stats.misses += weight
        if allocate:
            if len(entry) >= self.assoc:
                del entry[next(iter(entry))]
                self.evictions += 1
            entry[tag] = None
            self.version += 1
        return False

    def access_many(self, addrs, weight: float = 1.0) -> list[int]:
        """Allocate-on-miss lookup of every address in *addrs*, in order.

        Returns the missing addresses (as plain ints, original order).
        Statistics and LRU state end up exactly as an ``access()`` call
        per address would leave them: the counters take one ``+=
        weight`` per address in the same sequence, so sampled float
        weights accumulate bit-identically.
        """
        stats = self.stats
        n_sets = self.n_sets
        missed: list[int] = []
        if not n_sets:  # bypassed
            for addr in addrs:
                stats.accesses += weight
                stats.misses += weight
                missed.append(int(addr))
            return missed
        line_shift = self._line_shift
        shift = self._index_shift
        sets = self._sets
        assoc = self.assoc
        evictions = 0
        for addr in addrs:
            stats.accesses += weight
            addr = int(addr)
            tag = addr >> line_shift
            entry = sets[(tag ^ (tag >> shift)) % n_sets]
            if tag in entry:
                del entry[tag]
                entry[tag] = None
                stats.hits += weight
            else:
                stats.misses += weight
                if len(entry) >= assoc:
                    del entry[next(iter(entry))]
                    evictions += 1
                entry[tag] = None
                missed.append(addr)
        self.evictions += evictions
        if missed:
            self.version += 1
        return missed

    def bulk_warm(self, addrs) -> tuple[int, int]:
        """Replay *addrs* as zero-weight allocate-on-miss accesses.

        Exactly equivalent to ``access(a, weight=0.0)`` per address, in
        order — the warm path of
        :meth:`repro.gpu.sm.SmWave.warm_shared_input` — but resolved
        per *set* with array arithmetic: zero-weight accesses leave
        every statistic unchanged (``x + 0.0 == x`` for the non-negative
        counters), so the only observable effect is the final tag/LRU
        state.  For a set that starts empty and sees at most ``assoc``
        distinct tags, no access can ever evict, so every access either
        inserts or moves its tag to MRU and the final state is simply the distinct tags ordered by last occurrence —
        computed here from numpy set-index/tag arrays without touching
        Python per access.  Sets that start non-empty or overflow the
        associativity fall back to the scalar replay (their evictions
        depend on the full access order).

        Returns ``(vectorized_sets, scalar_sets)`` for observability.
        """
        n_sets = self.n_sets
        if not n_sets or len(addrs) == 0:
            return 0, 0
        self.version += 1
        shift = self._index_shift
        if len(addrs) < 256:
            # Tiny replays: numpy's unique/lexsort fixed cost outruns
            # the win; do the plain in-order replay (same end state).
            sets = self._sets
            assoc = self.assoc
            line_shift = self._line_shift
            touched = set()
            for addr in addrs:
                tag = int(addr) >> line_shift
                s = (tag ^ (tag >> shift)) % n_sets
                touched.add(s)
                entry = sets[s]
                if tag in entry:
                    del entry[tag]
                    entry[tag] = None
                else:
                    if len(entry) >= assoc:
                        del entry[next(iter(entry))]
                        self.evictions += 1
                    entry[tag] = None
            return 0, len(touched)
        arr = np.asarray(addrs, dtype=np.int64)
        tags = arr >> self._line_shift
        # Distinct tags ordered by *last* occurrence: first occurrence
        # in the reversed stream is the last in the original.
        rev_uniq, rev_first = np.unique(tags[::-1], return_index=True)
        last_pos = len(tags) - 1 - rev_first
        uidx = (rev_uniq ^ (rev_uniq >> shift)) % n_sets
        order = np.lexsort((last_pos, uidx))
        utag = rev_uniq[order]
        uset, counts = np.unique(uidx[order], return_counts=True)
        sets = self._sets
        assoc = self.assoc
        fast = 0
        overflow: list[int] = []
        pos = 0
        for s, c in zip(uset.tolist(), counts.tolist()):
            entry = sets[s]
            if c <= assoc and not entry:
                for tag in utag[pos:pos + c].tolist():
                    entry[tag] = None
                fast += 1
            else:
                overflow.append(s)
            pos += c
        if overflow:
            ov = set(overflow)
            idx = (tags ^ (tags >> shift)) % n_sets
            for tag, s in zip(tags.tolist(), idx.tolist()):
                if s not in ov:
                    continue
                entry = sets[s]
                if tag in entry:
                    del entry[tag]
                    entry[tag] = None
                else:
                    if len(entry) >= assoc:
                        del entry[next(iter(entry))]
                        self.evictions += 1
                    entry[tag] = None
        return fast, len(overflow)

    def contains(self, addr: int) -> bool:
        """Non-mutating presence probe (no stats, no LRU update)."""
        n_sets = self.n_sets
        if not n_sets:
            return False
        line = int(addr) >> self._line_shift
        return line in self._sets[(line ^ (line >> self._index_shift)) % n_sets]

    def count_missing(self, addrs, limit: int | None = None) -> int:
        """How many of *addrs* are absent (bulk ``contains``; no stats,
        no LRU update).  The answer holds while :attr:`version` does.

        With *limit*, the scan stops as soon as the count exceeds it and
        returns the (partial, ``> limit``) count — for callers that only
        compare against a threshold, e.g. the MSHR throttle check, where
        a wide all-miss access would otherwise probe every address.
        """
        n_sets = self.n_sets
        if not n_sets:
            return len(addrs)
        line_shift = self._line_shift
        shift = self._index_shift
        sets = self._sets
        missing = 0
        if limit is not None:
            for addr in addrs:
                line = int(addr) >> line_shift
                if line not in sets[(line ^ (line >> shift)) % n_sets]:
                    missing += 1
                    if missing > limit:
                        return missing
            return missing
        for addr in addrs:
            line = int(addr) >> line_shift
            if line not in sets[(line ^ (line >> shift)) % n_sets]:
                missing += 1
        return missing

    def flush(self) -> None:
        """Invalidate every line (stats are preserved)."""
        for entry in self._sets:
            entry.clear()
        self.version += 1

    def resident_lines(self) -> int:
        """Number of lines currently allocated."""
        return sum(len(entry) for entry in self._sets)

    def resident_tags(self) -> np.ndarray:
        """Line numbers currently allocated, packed (set order, LRU first)."""
        return np.fromiter(
            (tag for entry in self._sets for tag in entry),
            dtype=np.int64, count=self.resident_lines(),
        )
