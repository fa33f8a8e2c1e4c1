"""Vector-engine (fast-3) building blocks vs their scalar references.

The whole-network bit-identity gate lives in
``test_engine_equivalence.py``; this file pins the pieces the vector
engine (:mod:`repro.gpu.sm`) is assembled from, each against the
scalar path it replaces:

* the engine's identity: its version string and wave class;
* the inlined LRR/TLV policies: the seed's scheduler generators are
  never driven;
* :meth:`repro.memory.cache.Cache.bulk_warm` vs a zero-weight scalar
  replay on randomized (hypothesis) address sequences — small and
  large, empty and pre-populated sets, with and without overflow;
* the decoded program's global-access index vs the flat decoded
  tuples, and the numpy-safety of address-term evaluation on
  randomized values.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpu.config import SimOptions
from repro.gpu.decode import K_GMEM, decode_program
from repro.gpu.engine import engine_version, wave_class
from repro.gpu.scheduler import LrrScheduler, TlvScheduler
from repro.gpu.simulator import simulate_network
from repro.gpu.sm import SmWave
from repro.isa.program import expand_program
from repro.kernels.addressing import Term
from repro.kernels.compile import compiled_network
from repro.memory.cache import Cache
from repro.platforms import GP102


class TestEngineRegistry:
    def test_version_strings(self):
        assert engine_version() == "fast-3"

    def test_wave_classes(self):
        assert wave_class() is SmWave


class TestInlinedPolicies:
    @pytest.mark.parametrize("scheduler", ["lrr", "tlv"])
    def test_policies_inlined(self, monkeypatch, scheduler):
        # The vector engine inlines every policy: the seed's scheduler
        # generators are the oracle's alone.
        def forbidden(*args, **kwargs):
            raise AssertionError("vector engine called a scheduler object")

        for cls in (LrrScheduler, TlvScheduler):
            monkeypatch.setattr(cls, "order", forbidden)
            monkeypatch.setattr(cls, "notify_issue", forbidden)
        options = SimOptions(scheduler=scheduler).light()
        result = simulate_network("gru", GP102, options)
        assert result.kernels


def _replay_scalar(cache: Cache, addrs) -> None:
    for addr in addrs:
        cache.access(int(addr), weight=0.0)


def _cache_state(cache: Cache) -> list[list[int]]:
    return [list(entry) for entry in cache._sets]


def _stats_tuple(cache: Cache) -> tuple[float, float, float]:
    return (cache.stats.accesses, cache.stats.hits, cache.stats.misses)


@st.composite
def warm_case(draw):
    size_kb = draw(st.sampled_from([1, 2, 8]))
    assoc = draw(st.sampled_from([2, 4, 8]))
    # Small address space so hypothesis finds set collisions, repeats
    # and associativity overflows without thousands of examples.
    addr = st.integers(min_value=0, max_value=1 << 14)
    prefill = draw(st.lists(addr, max_size=40))
    warm = draw(st.lists(addr, max_size=120))
    return size_kb * 1024, assoc, prefill, warm


class TestBulkWarm:
    @given(warm_case())
    @settings(max_examples=150, deadline=None)
    def test_matches_zero_weight_scalar_replay(self, case):
        size, assoc, prefill, warm = case
        vec = Cache("vec", size, line_bytes=128, assoc=assoc)
        ref = Cache("ref", size, line_bytes=128, assoc=assoc)
        for addr in prefill:  # weighted traffic: sets start non-empty
            vec.access(addr)
            ref.access(addr)
        vec.bulk_warm(warm)
        _replay_scalar(ref, warm)
        assert _cache_state(vec) == _cache_state(ref)
        assert _stats_tuple(vec) == _stats_tuple(ref)

    def test_large_sequence_takes_numpy_path(self):
        # >= 256 addresses: the array path, including per-set overflow
        # fallbacks where one set sees more tags than its ways.
        import random

        rng = random.Random(20260808)
        warm = [rng.randrange(0, 1 << 18) for _ in range(4000)]
        vec = Cache("vec", 8 * 1024, line_bytes=128, assoc=4)
        ref = Cache("ref", 8 * 1024, line_bytes=128, assoc=4)
        fast, scalar = vec.bulk_warm(warm)
        _replay_scalar(ref, warm)
        assert _cache_state(vec) == _cache_state(ref)
        assert _stats_tuple(vec) == (0.0, 0.0, 0.0)
        assert fast + scalar > 0 and scalar > 0  # both paths exercised

    def test_bypassed_cache_is_noop(self):
        cache = Cache("off", 0)
        assert cache.bulk_warm([1, 2, 3]) == (0, 0)
        assert _stats_tuple(cache) == (0.0, 0.0, 0.0)


class TestSoA:
    @pytest.mark.parametrize("network", ["cifarnet", "lstm"])
    def test_matches_flat_tuples(self, network):
        # gmem_pcs is the index the wave walks to build its transaction
        # tables: exactly the positions of global/local access records.
        options = SimOptions().light()
        for kernel in compiled_network(network):
            decoded = decode_program(
                expand_program(
                    kernel.program, options.max_trips, options.max_outer_trips
                )
            )
            gmem = [i for i, row in enumerate(decoded.instrs) if row[0] == K_GMEM]
            assert decoded.gmem_pcs == tuple(gmem)

    @given(
        value=st.integers(min_value=0, max_value=1 << 30),
        pre=st.integers(min_value=1, max_value=512),
        div=st.integers(min_value=1, max_value=512),
        mod=st.one_of(st.none(), st.integers(min_value=1, max_value=512)),
        coef=st.integers(min_value=-64, max_value=64),
    )
    @settings(max_examples=200, deadline=None)
    def test_term_apply_numpy_matches_scalar(self, value, pre, div, mod, coef):
        # Thread terms are evaluated on int64 lane arrays
        # (DecodedProgram.thread_part); numpy floor semantics must equal
        # Python's on the nonnegative symbol values the simulator feeds in.
        term = Term("bx", coef, pre=pre, div=div, mod=mod)
        scalar = term.apply(value)
        vec = term.apply(np.array([value, value], dtype=np.int64))
        assert int(vec[0]) == int(vec[1]) == scalar
