"""Unit tests for the memory system: coalescer, caches, MSHRs, DRAM."""

from __future__ import annotations

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memory import Cache, Dram, MemoryHierarchy, MshrFile, coalesce
from repro.memory.coalescer import TRANSACTION_BYTES


class TestCoalescer:
    def test_contiguous_warp_access_is_one_transaction(self):
        addrs = np.arange(32, dtype=np.int64) * 4 + 1024
        assert len(coalesce(addrs)) == 1

    def test_broadcast_is_one_transaction(self):
        addrs = np.full(32, 4096, dtype=np.int64)
        assert len(coalesce(addrs)) == 1

    def test_fully_strided_access_is_32_transactions(self):
        addrs = np.arange(32, dtype=np.int64) * 4096
        assert len(coalesce(addrs)) == 32

    def test_two_line_split(self):
        addrs = np.arange(32, dtype=np.int64) * 8  # 256 bytes
        assert len(coalesce(addrs)) == 2

    def test_vector_load_straddles_boundary(self):
        addrs = np.array([TRANSACTION_BYTES - 4], dtype=np.int64)
        assert len(coalesce(addrs, width_bytes=8)) == 2

    def test_empty_access(self):
        assert coalesce(np.array([], dtype=np.int64)).size == 0

    def test_transactions_are_line_aligned(self):
        addrs = np.array([5, 200, 999], dtype=np.int64)
        txs = coalesce(addrs)
        assert all(t % TRANSACTION_BYTES == 0 for t in txs)


class TestCache:
    def test_miss_then_hit(self):
        cache = Cache("t", 4096)
        assert cache.access(0) is False
        assert cache.access(64) is True  # same 128B line
        assert cache.stats.hits == 1 and cache.stats.misses == 1

    def test_zero_size_bypasses(self):
        cache = Cache("t", 0)
        assert not cache.enabled
        for _ in range(4):
            assert cache.access(0) is False
        assert cache.stats.misses == 4

    def test_lru_eviction(self):
        # Direct-mapped-ish: 2 lines total, assoc 2 -> one set.
        cache = Cache("t", 256, line_bytes=128, assoc=2)
        cache.access(0)
        cache.access(128)
        cache.access(0)  # refresh line 0 -> line 128 is now LRU
        cache.access(256)  # evicts 128
        assert cache.access(0) is True
        assert cache.access(128) is False

    def test_no_allocate_on_store_probe(self):
        cache = Cache("t", 4096)
        cache.access(0, allocate=False)
        assert cache.access(0) is False  # still not resident

    def test_capacity_respected(self):
        cache = Cache("t", 1024, line_bytes=128, assoc=2)
        for i in range(64):
            cache.access(i * 128)
        assert cache.resident_lines() <= 1024 // 128

    def test_hashed_index_spreads_power_of_two_strides(self):
        # 4KB-strided rows (FC weight rows) must not all collide.
        cache = Cache("t", 64 * 1024, line_bytes=128, assoc=4)
        for lane in range(32):
            cache.access(lane * 4096)
        hits = sum(cache.access(lane * 4096) for lane in range(32))
        assert hits >= 24  # nearly all resident despite the stride

    def test_flush_clears_contents_but_keeps_stats(self):
        cache = Cache("t", 4096)
        cache.access(0)
        cache.flush()
        assert cache.resident_lines() == 0
        assert cache.stats.accesses == 1

    def test_weighted_stats(self):
        cache = Cache("t", 4096)
        cache.access(0, weight=10.0)
        assert cache.stats.misses == 10.0

    def test_invalid_geometry_rejected(self):
        with pytest.raises(ValueError):
            Cache("t", -1)
        with pytest.raises(ValueError):
            Cache("t", 1024, line_bytes=100)


class TestMshr:
    def test_reserve_and_drain(self):
        mshr = MshrFile(entries=2)
        assert mshr.reserve(1, ready_cycle=100, now=0)
        assert mshr.reserve(2, ready_cycle=50, now=0)
        assert mshr.in_use == 2
        assert not mshr.reserve(3, ready_cycle=80, now=0)
        mshr.drain(60)
        assert mshr.in_use == 1
        assert mshr.reserve(3, ready_cycle=80, now=60)

    def test_merge_same_line(self):
        mshr = MshrFile(entries=1, max_merges=2)
        assert mshr.reserve(7, 100, 0)
        assert mshr.reserve(7, 100, 0)  # merge
        assert not mshr.reserve(7, 100, 0)  # merge limit
        assert mshr.in_use == 1

    def test_next_release_ordering(self):
        mshr = MshrFile(entries=4)
        mshr.reserve(1, 300, 0)
        mshr.reserve(2, 100, 0)
        assert mshr.next_release() == 100

    def test_zero_entries_rejected(self):
        with pytest.raises(ValueError):
            MshrFile(0)


class TestDram:
    def test_latency_applied(self):
        dram = Dram(latency=100, bytes_per_cycle=128.0)
        assert dram.service(0) == 101

    def test_bandwidth_queues_requests(self):
        dram = Dram(latency=0, bytes_per_cycle=1.0)
        first = dram.service(0, size_bytes=128)
        second = dram.service(0, size_bytes=128)
        assert second >= first + 128

    def test_traffic_accounting(self):
        dram = Dram()
        dram.service(0, 128, weight=2.0)
        assert dram.bytes_served == 256
        assert dram.requests == 2.0


class TestHierarchy:
    def _hier(self, l1=32 * 1024, mshr=4):
        return MemoryHierarchy(l1_size=l1, l2_size=256 * 1024, mshr_entries=mshr)

    def test_l1_hit_faster_than_miss(self):
        hier = self._hier()
        addrs = np.array([0], dtype=np.int64)
        first = hier.load(0, addrs, 1.0)
        second = hier.load(0, addrs, 1.0)
        assert second < first

    def test_throttle_when_mshrs_full(self):
        hier = self._hier(mshr=2)
        # Two outstanding misses fill the file.
        hier.load(0, np.array([0], dtype=np.int64), 1.0)
        hier.load(0, np.array([128], dtype=np.int64), 1.0)
        ready = hier.load(0, np.array([256], dtype=np.int64), 1.0)
        assert ready is None

    def test_throttle_leaves_no_side_effects(self):
        hier = self._hier(mshr=1)
        hier.load(0, np.array([0], dtype=np.int64), 1.0)
        before = hier.l2.stats.accesses
        ready = hier.load(0, np.array([128], dtype=np.int64), 1.0)
        assert ready is None
        assert hier.l2.stats.accesses == before

    def test_wide_access_on_empty_file_proceeds(self):
        # An access wider than the whole MSHR file must not deadlock.
        hier = self._hier(mshr=2)
        addrs = np.arange(8, dtype=np.int64) * 4096
        ready = hier.load(0, addrs, 1.0)
        assert ready is not None

    def test_no_l1_all_misses_counted(self):
        hier = self._hier(l1=0)
        addrs = np.array([0], dtype=np.int64)
        hier.load(0, addrs, 1.0)
        hier.load(1000, addrs, 1.0)
        assert hier.l1.stats.misses == 2.0
        assert hier.l2.stats.accesses == 2.0

    def test_store_is_write_through_no_allocate(self):
        hier = self._hier()
        addrs = np.array([512], dtype=np.int64)
        hier.store(0, addrs, 1.0)
        assert not hier.l1.contains(512)
        assert hier.l2.contains(512)

    def test_shared_and_const_latencies(self):
        hier = self._hier()
        assert hier.shared(10, 1.0) == 10 + hier.lat_shared
        ready, missed = hier.const(10, 1.0)
        assert missed  # cold
        ready2, missed2 = hier.const(ready, 1.0)
        assert not missed2
        assert ready2 - ready == hier.lat_const


def _cache_state(cache: Cache) -> tuple:
    """Tags in LRU order per set, counters and versions of *cache*."""
    return (
        [list(entry) for entry in cache._sets], vars(cache.stats).copy(),
        cache.evictions, cache.version,
    )


def _hier_state(hier: MemoryHierarchy) -> tuple:
    """Every structure and counter of *hier* but ``throttle_bound``."""
    mshr = hier.mshr
    return (
        _cache_state(hier.l1), _cache_state(hier.l2), _cache_state(hier.const_cache),
        dict(mshr._inflight), list(mshr._releases), mshr._hold_until, mshr._held,
        vars(hier.dram).copy(), hier.load_transactions,
        hier.store_transactions, hier.shared_accesses, hier.const_accesses,
    )


_LINE = st.integers(0, 47)
_TXS = st.lists(_LINE, min_size=1, max_size=10, unique=True)


@st.composite
def _throttle_case(draw):
    """A hierarchy history (fills, merges and wide-access holds) plus
    one more load at a later cycle."""
    return (
        draw(st.sampled_from([0, 1024, 4096])),  # bypassed, 2 sets, 8 sets
        draw(st.integers(1, 6)),  # MSHR entries
        draw(st.lists(_LINE, max_size=16)),  # lines warmed into the L1
        draw(st.lists(st.tuples(st.integers(0, 400), _TXS), max_size=10)),
        draw(st.integers(0, 600)),
        draw(st.lists(_LINE, min_size=1, max_size=12, unique=True)),
    )


class TestAdmissionRule:
    """``MshrFile.refuses`` is the one throttle decision: ``load`` takes
    it, and a throttled ``load`` only releases the fills already due."""

    @settings(max_examples=300, deadline=None)
    @given(_throttle_case())
    def test_load_decides_by_the_rule(self, case):
        l1_size, entries, warm, history, delay, probe = case
        hier = MemoryHierarchy(l1_size=l1_size, l2_size=64 * 1024, mshr_entries=entries)
        hier.l1.bulk_warm([line * 128 for line in warm])
        now = 0
        for step, lines in history:
            now += step
            hier.load(now, [line * 128 for line in lines], 1.0)
        now += delay
        txs = [line * 128 for line in probe]
        exact = hier.l1.count_missing(txs)
        # The reference: the state before the load, with the fills due
        # by `now` released.
        drained = copy.deepcopy(hier)
        drained.mshr.drain(now)
        in_use = drained.mshr.in_use
        throttles = in_use > 0 and exact > entries - in_use

        ready = hier.load(now, txs, 0.5)
        assert (ready is None) == throttles
        assert drained.mshr.refuses(now, exact) == throttles
        if ready is None:
            # A refusal means an entry is in flight or a wide access
            # holds the file, so a throttled warp always has a wake.
            assert hier.mshr.next_release() is not None
            bound = hier.throttle_bound
            assert bound <= exact
            assert bound == exact or bound < len(txs)
            assert drained.mshr.refuses(now, bound)
            assert _hier_state(hier) == _hier_state(drained)

    def test_bound_is_the_count_that_stopped_the_probe(self):
        hier = MemoryHierarchy(l1_size=32 * 1024, l2_size=256 * 1024, mshr_entries=4)
        hier.load(0, [0, 128, 256], 1.0)  # three entries in flight
        assert hier.load(1, [4096 * i for i in range(1, 9)], 1.0) is None
        assert hier.throttle_bound == 2  # one entry free: stops at 2 of 8
        assert hier.mshr.refuses(1, hier.throttle_bound)

    def test_empty_file_admits_any_width(self):
        mshr = MshrFile(2)
        assert not mshr.refuses(0, 100)
        mshr.reserve(7, ready_cycle=10, now=0)
        assert mshr.refuses(0, 2)
        assert not mshr.refuses(0, 1)
        assert not mshr.refuses(10, 100)  # the fill released at cycle 10


_OPS = ("access", "store", "many", "warm", "flush", "probe")


class TestCacheVersion:
    @settings(max_examples=200, deadline=None)
    @given(
        st.sampled_from([0, 512, 1024, 4096]),
        st.lists(
            st.tuples(
                st.sampled_from(_OPS),
                st.lists(st.integers(0, 63), max_size=12),
                st.integers(1, 30),
            ),
            max_size=16,
        ),
    )
    def test_version_changes_with_membership(self, size, ops):
        cache = Cache("t", size, line_bytes=128, assoc=2)
        for op, lines, repeat in ops:
            addrs = [line * 128 for line in lines]
            if op == "access":
                steps = [lambda a=a: cache.access(a) for a in addrs]
            elif op == "store":
                steps = [lambda a=a: cache.access(a, allocate=False) for a in addrs]
            elif op == "many":
                steps = [lambda: cache.access_many(addrs)]
            elif op == "warm":
                # Repeats reach bulk_warm's vectorized path (>= 256).
                steps = [lambda: cache.bulk_warm(addrs * repeat)]
            elif op == "flush":
                steps = [cache.flush]
            else:
                steps = [lambda: cache.count_missing(addrs, repeat)]
            for step in steps:
                tags, version = set(cache.resident_tags().tolist()), cache.version
                step()
                if set(cache.resident_tags().tolist()) != tags:
                    assert cache.version != version

    def test_hits_and_probes_keep_the_version(self):
        cache = Cache("t", 4096)
        cache.access(0)
        version = cache.version
        assert cache.access(0) and cache.access_many([0, 64]) == []
        assert cache.count_missing([0, 128]) == 1 and not cache.contains(128)
        assert cache.version == version
