"""The per-SM view of the memory hierarchy: L1D -> L2 slice -> DRAM.

The simulator drives one streaming multiprocessor (DESIGN.md section 6);
its hierarchy couples a private L1D (sizeable/bypassable, Figure 2) with
MSHRs, a slice of the shared L2 (capacity / num_SMs) and one DRAM
channel share.  Constant loads go through a small constant cache, and
shared-memory accesses complete at a fixed scratchpad latency.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.memory.cache import Cache
from repro.memory.dram import Dram
from repro.memory.mshr import MshrFile

#: Transaction/line size in bytes, matching the coalescer granularity.
LINE_BYTES = 128
#: L1D associativity (the L1D size sweeps; its geometry does not).
L1_ASSOC = 4


class MemoryHierarchy:
    """L1D + MSHR + L2 slice + DRAM for one simulated SM."""

    def __init__(
        self,
        l1_size: int,
        l2_size: int,
        mshr_entries: int = 32,
        l1_assoc: int = L1_ASSOC,
        l2_assoc: int = 16,
        lat_l1: int = 28,
        lat_l2: int = 270,
        lat_shared: int = 24,
        lat_const: int = 18,
        dram_latency: int = 460,
        dram_bytes_per_cycle: float = 8.0,
        const_size: int = 2048,
    ) -> None:
        self.l1 = Cache("L1D", l1_size, LINE_BYTES, l1_assoc)
        self.l2 = Cache("L2", l2_size, LINE_BYTES, l2_assoc)
        self.const_cache = Cache("CC", const_size, 64, 4)
        self.mshr = MshrFile(mshr_entries)
        self.dram = Dram(dram_latency, dram_bytes_per_cycle)
        self.lat_l1 = lat_l1
        self.lat_l2 = lat_l2
        self.lat_shared = lat_shared
        self.lat_const = lat_const
        # Aggregate traffic counters (weighted).
        self.load_transactions = 0.0
        self.store_transactions = 0.0
        self.shared_accesses = 0.0
        self.const_accesses = 0.0
        #: The L1-missing line count the last throttled :meth:`load`
        #: computed.  Its probe stops once the count exceeds the free
        #: entries, so this is a lower bound on the missing lines (exact
        #: when it equals the access's width).
        self.throttle_bound = 0

    # ------------------------------------------------------------------
    def load(self, now: int, tx_addrs: Sequence[int], weight: float) -> int | None:
        """Service a coalesced global load; may throttle on MSHRs.

        Returns the cycle the load's data is ready, or ``None`` when the
        access was throttled (MSHRs exhausted) and must replay.  The
        MSHR check runs *before* any cache/DRAM side effects so a
        throttled access can replay without perturbing state or
        double-counting statistics: it only releases the fills due by
        *now* and sets :attr:`throttle_bound`.
        """
        mshr = self.mshr
        # Throttle when the file cannot take this access
        # (``MshrFile.refuses``).  An access that fits the free entries
        # even if every line missed skips the miss count (a non-mutating
        # L1 probe per transaction) outright; otherwise the count stops
        # once it exceeds the free entries, so a doomed probe of a wide
        # access stops at the threshold instead of scanning it all.  A
        # count of every line was refused already.
        width = len(tx_addrs)
        if mshr.refuses(now, width):
            missing = self.l1.count_missing(tx_addrs, mshr.capacity - mshr.in_use)
            if missing == width or mshr.refuses(now, missing):
                self.throttle_bound = missing
                return None
        l1 = self.l1
        ready = now + self.lat_l1
        # Probe (and fill) the L1 for the whole transaction vector at
        # once, then walk only the misses through L2/DRAM.  The L1 never
        # depends on L2/DRAM side effects, so splitting the interleaved
        # per-address walk into two passes leaves every tag store, MSHR
        # reservation and counter in the exact same state.
        missed = l1.access_many(tx_addrs, weight)
        if missed:
            l2_access = self.l2.access
            for addr in missed:
                # L1 miss: fill through L2 (or DRAM) holding an MSHR
                # entry.
                if l2_access(addr, weight):
                    completion = now + self.lat_l2
                else:
                    completion = self.dram.service(now, LINE_BYTES, weight)
                mshr.reserve(addr >> 7, completion, now)  # // LINE_BYTES
                if completion > ready:
                    ready = completion
        misses = len(missed)
        if misses > self.mshr.capacity:
            # The access is wider than the MSHR file: the LSU replays it
            # in capacity-sized waves, serializing the extra groups.
            waves = -(-misses // self.mshr.capacity) - 1
            ready += waves * self.lat_l1
            self.mshr.hold_until(int(ready))
        self.load_transactions += len(tx_addrs) * weight
        return ready

    def store(self, now: int, tx_addrs: Sequence[int], weight: float) -> int:
        """Service a global store (write-through, no L1 allocate).

        Returns the cycle the store retires (stores never throttle)."""
        for addr in tx_addrs:
            addr = int(addr)
            self.l1.access(addr, weight, allocate=False)
            if not self.l2.access(addr, weight):
                self.dram.service(now, LINE_BYTES, weight)
        self.store_transactions += len(tx_addrs) * weight
        return now + 1

    def shared(self, now: int, weight: float) -> int:
        """Shared-memory access: fixed scratchpad latency."""
        self.shared_accesses += weight
        return now + self.lat_shared

    def const(self, now: int, weight: float) -> tuple[int, bool]:
        """Constant-bank access; returns (ready_cycle, was_miss)."""
        self.const_accesses += weight
        # The constant bank is tiny; model a single hot line per kernel.
        hit = self.const_cache.access(0, weight)
        if hit:
            return now + self.lat_const, False
        return now + self.lat_l2, True

    def warm_l2(self, tx_addrs) -> tuple[int, int]:
        """Vectorized zero-weight L2 pre-touch of *tx_addrs* (in order).

        The vector engine's batch front for shared-input warming: state-
        identical to ``l2.access(tx, weight=0.0)`` per transaction (see
        :meth:`repro.memory.cache.Cache.bulk_warm`), with the scalar
        replay kept as the fallback for sets whose eviction behaviour
        depends on the full access order.  MSHRs and DRAM are never
        involved in warming, so no throttle fallback is needed here.

        Returns ``(vectorized_sets, scalar_sets)``.
        """
        return self.l2.bulk_warm(tx_addrs)
