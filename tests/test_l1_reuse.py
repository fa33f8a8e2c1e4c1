"""Reuse of eviction-free wave simulations across L1D sizes.

A resident wave whose L1 never evicted replays bit-identically at every
other non-zero L1D size that holds its footprint (DESIGN.md section 8),
so :class:`repro.gpu.simulator.L1Memo` serves those sizes without
simulating.  These tests pin:

* the hold predicate :meth:`repro.memory.cache.Cache.holds` against a
  literal replay into a fresh cache (hypothesis), including set counts
  that are not powers of two;
* per-kernel bit-identity of an executor-driven L1D sweep against
  ``dedup=False`` runs, with the reuse asserted to have fired (light
  tier-1 networks here, all seven under ``pytest -m slow``);
* the cases that must never reuse: a wave that evicted, a bypassed L1
  and ``dedup=False``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.suite import NETWORK_ORDER
from repro.gpu import simulator
from repro.gpu.config import SimOptions
from repro.gpu.simulator import L1Memo, simulate_kernel, simulate_network
from repro.kernels.compile import compiled_network
from repro.memory.cache import Cache
from repro.platforms import make_config
from repro.runs import Executor, RunSpec

SIZES_KB = (0, 64, 128, 256)
SCHEDULERS = ("gto", "lrr", "tlv")
LIGHT = SimOptions().light()


def _stats(result) -> list[dict]:
    return [k.stats.to_dict() for k in result.kernels]


def _gp102(kb: int):
    return make_config("gp102", l1_kb=kb)


# ----------------------------------------------------------------------
# the hold predicate
# ----------------------------------------------------------------------
@st.composite
def geometry_and_lines(draw, unique=True):
    # 24 KB is TX1's L1D: 48 sets at 4 ways, not a power of two; 3 KB
    # gives 6 sets, 256 B fewer lines than ways (one set).
    size = draw(st.sampled_from([256, 1024, 3 * 1024, 8 * 1024, 24 * 1024, 64 * 1024]))
    assoc = draw(st.sampled_from([1, 2, 4, 8]))
    capacity = max(assoc, size // 128)
    # A line space a few times the capacity, so sets overflow often
    # enough to exercise both answers.
    lines = draw(st.lists(
        st.integers(min_value=0, max_value=4 * capacity + 64),
        max_size=2 * capacity + 8, unique=unique,
    ))
    return size, assoc, lines


class TestHoldPredicate:
    @given(geometry_and_lines())
    @settings(max_examples=300, deadline=None)
    def test_holds_iff_fresh_replay_never_evicts(self, case):
        size, assoc, lines = case
        cache = Cache("t", size, 128, assoc)
        # Replay forwards then backwards: re-touches change LRU order,
        # never whether a set overflows.
        for line in lines + lines[::-1]:
            cache.access(line * 128)
        assert Cache.holds(lines, size, 128, assoc) == (cache.evictions == 0)

    @given(geometry_and_lines(unique=False))
    @settings(max_examples=100, deadline=None)
    def test_eviction_count_agrees_across_access_paths(self, case):
        size, assoc, lines = case
        addrs = [line * 128 for line in lines]
        single = Cache("a", size, 128, assoc)
        for addr in addrs:
            single.access(addr)
        bulk = Cache("b", size, 128, assoc)
        bulk.access_many(addrs)
        warm = Cache("c", size, 128, assoc)
        warm.bulk_warm(addrs)
        assert single.evictions == bulk.evictions == warm.evictions
        assert sorted(bulk.resident_tags().tolist()) == sorted(
            single.resident_tags().tolist()
        )

    def test_non_power_of_two_set_count_uses_the_cache_index(self):
        # TX1's 24 KB L1D: 48 sets.  Five lines that all index set 0
        # overflow 4 ways; the same lines fit a 64 KB (128-set) L1D.
        probe = Cache("tx1", 24 * 1024, 128, 4)
        assert probe.n_sets == 48
        same_set = [line for line in range(20000)
                    if (line ^ (line >> probe._index_shift)) % 48 == 0][:5]
        assert not Cache.holds(same_set, 24 * 1024, 128, 4)
        assert Cache.holds(same_set[:4], 24 * 1024, 128, 4)
        assert Cache.holds(same_set, 64 * 1024, 128, 4)

    def test_bigger_cache_can_overflow_where_a_smaller_one_held(self):
        # The XOR fold shifts by log2(sets), so doubling the size does
        # not split sets: these five lines sit in five 64 KB sets but
        # one 128 KB set.  Hence the fit check runs at every size.
        lines = [0, 257, 514, 771, 1028]
        assert Cache.holds(lines, 64 * 1024, 128, 4)
        assert not Cache.holds(lines, 128 * 1024, 128, 4)

    def test_bypassed_geometry_holds_nothing(self):
        assert not Cache.holds([1], 0, 128, 4)
        assert Cache.holds(np.array([], dtype=np.int64), 0, 128, 4)


# ----------------------------------------------------------------------
# bit-identity of executor-driven L1D sweeps
# ----------------------------------------------------------------------
def _assert_sweep_matches_dedup_off(networks) -> Executor:
    executor = Executor()
    for network in networks:
        for scheduler in SCHEDULERS:
            options = SimOptions(scheduler=scheduler).light()
            for kb in SIZES_KB:
                executor.run(RunSpec(network, _gp102(kb), options))
    for network in networks:
        for scheduler in SCHEDULERS:
            options = SimOptions(scheduler=scheduler).light()
            for kb in SIZES_KB:
                swept = executor.run(RunSpec(network, _gp102(kb), options))
                reference = simulate_network(network, _gp102(kb), options, dedup=False)
                assert _stats(swept) == _stats(reference), (network, scheduler, kb)
    return executor


class TestSweepEquivalence:
    def test_light_sweep_matches_dedup_off(self):
        executor = _assert_sweep_matches_dedup_off(["cifarnet", "gru", "squeezenet"])
        # Not vacuous: larger sizes were served from smaller ones.
        assert executor.l1_memo.reused > 0

    @pytest.mark.slow
    def test_light_sweep_matches_dedup_off_all_networks(self):
        executor = _assert_sweep_matches_dedup_off(NETWORK_ORDER)
        assert executor.l1_memo.reused > 0


# ----------------------------------------------------------------------
# when the memo must not serve
# ----------------------------------------------------------------------
def _pool10():
    return next(k for k in compiled_network("squeezenet") if k.name == "pool10")


class TestNoReuse:
    def test_evicting_wave_is_simulated_again(self, monkeypatch):
        # squeezenet pool10 evicts at 64 KB (light fidelity), so its run
        # is never recorded and the 128 KB launch simulates afresh.
        hierarchies = []
        make = simulator._make_hierarchy

        def spy(config):
            hierarchies.append(make(config))
            return hierarchies[-1]

        monkeypatch.setattr(simulator, "_make_hierarchy", spy)
        memo = L1Memo()
        kernel = _pool10()
        simulate_kernel(kernel, _gp102(64), LIGHT, _l1_memo=memo)
        assert hierarchies[-1].l1.evictions == 661
        reused = simulate_kernel(kernel, _gp102(128), LIGHT, _l1_memo=memo)
        assert memo.reused == 0 and len(hierarchies) == 2
        fresh = simulate_kernel(kernel, _gp102(128), LIGHT)
        assert reused.stats.to_dict() == fresh.stats.to_dict()

    def test_recorded_footprint_that_does_not_fit_is_not_reused(self):
        # alexnet conv1-3 never evicts at 256 KB but does at 128 KB and
        # 64 KB: the fit check must send the smaller sizes back to the
        # simulator rather than replay the 256 KB numbers.
        memo = L1Memo()
        kernel = next(k for k in compiled_network("alexnet") if k.name == "conv1-3")
        simulate_kernel(kernel, _gp102(256), LIGHT, _l1_memo=memo)
        key = L1Memo.key(kernel, _gp102(256), LIGHT)
        recorded = memo.get(key, _gp102(512))
        assert recorded is not None
        memo.reused = 0
        for kb in (128, 64):
            assert not Cache.holds(recorded.l1_lines, kb * 1024, 128, 4)
            assert memo.get(key, _gp102(kb)) is None
            small = simulate_kernel(kernel, _gp102(kb), LIGHT, _l1_memo=memo)
            fresh = simulate_kernel(kernel, _gp102(kb), LIGHT)
            assert small.stats.to_dict() == fresh.stats.to_dict()
        assert memo.reused == 0

    def test_bypassed_l1_neither_records_nor_reuses(self):
        memo = L1Memo()
        simulate_network("cifarnet", _gp102(0), LIGHT, l1_memo=memo)
        assert memo._runs == {}
        simulate_network("cifarnet", _gp102(64), LIGHT, l1_memo=memo)
        simulate_network("cifarnet", _gp102(0), LIGHT, l1_memo=memo)
        assert memo.reused == 0

    def test_dedup_off_never_consults_the_memo(self):
        memo = L1Memo()
        simulate_network("cifarnet", _gp102(64), LIGHT, dedup=False, l1_memo=memo)
        simulate_network("cifarnet", _gp102(128), LIGHT, dedup=False, l1_memo=memo)
        assert memo._runs == {} and memo.reused == 0
