"""Vector-engine (fast-3) building blocks vs their scalar references.

The whole-network bit-identity gate lives in
``test_engine_equivalence.py``; this file pins the pieces the vector
engine (:mod:`repro.gpu.sm`) is assembled from, each against the
scalar path it replaces:

* the engine registry (selection precedence, version strings, wave
  classes, seed delegation);
* the inlined LRR/TLV policies: the seed's scheduler generators are
  never driven, and the solo-warp batch fires under every policy;
* the per-warp precomputed transaction tables vs
  :func:`repro.gpu.sm._gmem_txs` on real suite kernels (both the numpy
  broadcast path and the small-wave scalar fallback);
* :meth:`repro.memory.cache.Cache.bulk_warm` vs a zero-weight scalar
  replay on randomized (hypothesis) address sequences — small and
  large, empty and pre-populated sets, with and without overflow;
* the structure-of-arrays decode view vs the flat decoded tuples, and
  the numpy-safety of address-term evaluation on randomized values.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpu import engine as engine_registry
from repro.gpu import seed_engine
from repro.gpu.config import SimOptions
from repro.gpu.decode import K_ALU, K_CTRL, K_GMEM, decode_program
from repro.gpu.occupancy import compute_occupancy
from repro.gpu.scheduler import LrrScheduler, TlvScheduler
from repro.gpu.simulator import _GUARD_DECODED, _make_hierarchy, simulate_network
from repro.gpu.sm import SmWave, _gmem_txs
from repro.isa.program import expand_program
from repro.kernels.addressing import Term
from repro.kernels.compile import compiled_network
from repro.memory.cache import Cache
from repro.obs.tracer import capture_trace
from repro.platforms import GP102


@pytest.fixture
def reset_engine():
    yield
    engine_registry.set_engine(None)


class TestEngineRegistry:
    def test_default_is_vector(self, monkeypatch):
        monkeypatch.delenv(engine_registry.ENGINE_ENV, raising=False)
        assert engine_registry.get_engine() == "vector"

    def test_env_selects_engine(self, monkeypatch):
        monkeypatch.setenv(engine_registry.ENGINE_ENV, "seed")
        assert engine_registry.get_engine() == "seed"

    def test_set_engine_beats_env(self, monkeypatch, reset_engine):
        monkeypatch.setenv(engine_registry.ENGINE_ENV, "seed")
        engine_registry.set_engine("vector")
        assert engine_registry.get_engine() == "vector"
        engine_registry.set_engine(None)
        assert engine_registry.get_engine() == "seed"

    def test_invalid_names_rejected(self, monkeypatch):
        with pytest.raises(ValueError, match="unknown engine"):
            engine_registry.set_engine("warp-drive")
        monkeypatch.setenv(engine_registry.ENGINE_ENV, "nonesuch")
        with pytest.raises(ValueError, match="REPRO_ENGINE"):
            engine_registry.get_engine()

    def test_version_strings(self):
        assert engine_registry.engine_version("seed") == "seed-1"
        assert engine_registry.engine_version("vector") == "fast-3"

    def test_wave_classes(self):
        assert engine_registry.wave_class("vector") is SmWave
        with pytest.raises(ValueError):
            engine_registry.wave_class("seed")
        with pytest.raises(ValueError, match="unknown engine"):
            engine_registry.wave_class("fast")

    def test_seed_engine_delegation(self, reset_engine):
        # With the seed engine forced, the simulator facade must hand
        # the whole run to the frozen driver — identical numbers.
        options = SimOptions().light()
        oracle = seed_engine.simulate_network("gru", GP102, options)
        engine_registry.set_engine("seed")
        via_facade = simulate_network("gru", GP102, options)
        assert len(oracle.kernels) == len(via_facade.kernels)
        for ka, kb in zip(oracle.kernels, via_facade.kernels):
            assert ka.stats.__dict__ == kb.stats.__dict__


class TestInlinedPolicies:
    @pytest.mark.parametrize("scheduler", ["lrr", "tlv"])
    def test_policies_inlined_and_batched(self, monkeypatch, scheduler):
        # The vector engine inlines every policy: the seed's scheduler
        # generators are the oracle's alone.  The solo-warp batch fires
        # under LRR and TLV as under GTO.
        def forbidden(*args, **kwargs):
            raise AssertionError("vector engine called a scheduler object")

        for cls in (LrrScheduler, TlvScheduler):
            monkeypatch.setattr(cls, "order", forbidden)
            monkeypatch.setattr(cls, "notify_issue", forbidden)
        options = SimOptions(scheduler=scheduler).light()
        with capture_trace(warps=False) as tracer:
            result = simulate_network("gru", GP102, options)
        assert result.kernels
        assert tracer.metrics.counter("engine.vector.batched_issues").value > 0


def _make_wave(kernel, options):
    """Mirror ``simulate_kernel``'s wave setup for one kernel."""
    expanded = expand_program(
        kernel.program, options.max_trips, options.max_outer_trips
    )
    decoded = decode_program(expanded)
    occupancy = compute_occupancy(kernel, GP102)
    sim_blocks = occupancy.blocks
    if options.max_sim_blocks is not None:
        sim_blocks = max(1, min(sim_blocks, options.max_sim_blocks))
    wave = SmWave(
        kernel, decoded, _GUARD_DECODED, sim_blocks,
        GP102, options, _make_hierarchy(GP102),
    )
    return wave, decoded


class TestPtxPrecompute:
    @pytest.mark.parametrize("network", ["alexnet", "gru"])
    def test_tables_match_scalar_helper(self, network):
        # Every (warp, pc) entry must equal what the scalar engine
        # would compute lazily at issue time.  alexnet's large grids
        # exercise the numpy broadcast path; gru's point kernels (and
        # any wave under 24 blocks) exercise the scalar fallback.
        options = SimOptions()
        saw_vector_path = False
        for kernel in compiled_network(network):
            wave, decoded = _make_wave(kernel, options)
            ptx = wave._ensure_ptx()
            if len(wave.blocks) >= 24:
                saw_vector_path = True
            gpcs = decoded.soa().gmem_pcs
            dec = decoded.instrs
            for w in wave.warps:
                if w.dprog is not decoded or not w.n_active:
                    assert ptx[w.warp_id] == {}
                    continue
                for pc in gpcs:
                    assert ptx[w.warp_id][pc] == _gmem_txs(w, pc, dec[pc][4]), (
                        f"{kernel.name} warp {w.warp_id} pc {pc}"
                    )
        assert saw_vector_path == (network == "alexnet")

    def test_light_options_use_scalar_fallback(self):
        # Light fidelity caps waves at 2 blocks — always under the
        # vectorization threshold, still value-identical.
        options = SimOptions().light()
        kernel = compiled_network("cifarnet")[0]
        wave, decoded = _make_wave(kernel, options)
        assert len(wave.blocks) < 24
        ptx = wave._ensure_ptx()
        dec = decoded.instrs
        for w in wave.warps:
            if w.dprog is not decoded or not w.n_active:
                continue
            for pc in decoded.soa().gmem_pcs:
                assert ptx[w.warp_id][pc] == _gmem_txs(w, pc, dec[pc][4])


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
        options = SimOptions().light()
        for kernel in compiled_network(network):
            decoded = decode_program(
                expand_program(
                    kernel.program, options.max_trips, options.max_outer_trips
                )
            )
            soa = decoded.soa()
            assert soa is decoded.soa()  # cached
            assert soa.n == decoded.n == len(decoded.instrs)
            gmem = []
            for i, row in enumerate(decoded.instrs):
                kind, _, dst, weight, _, pipe, interval, rf_reads, fetch = row
                assert soa.kind[i] == kind
                assert soa.dst[i] == dst
                assert soa.weight[i] == weight
                assert soa.pipe[i] == pipe
                assert soa.interval[i] == interval
                assert soa.rf_reads[i] == rf_reads
                assert bool(soa.fetch[i]) == bool(fetch)
                expect_ok = (
                    kind in (K_ALU, K_CTRL) and interval <= 1 and not fetch
                )
                assert bool(soa.batch_ok[i]) == expect_ok
                if kind == K_GMEM:
                    gmem.append(i)
            assert list(soa.gmem_pcs) == gmem

    @given(
        value=st.integers(min_value=0, max_value=1 << 30),
        pre=st.integers(min_value=1, max_value=512),
        div=st.integers(min_value=1, max_value=512),
        mod=st.one_of(st.none(), st.integers(min_value=1, max_value=512)),
        coef=st.integers(min_value=-64, max_value=64),
    )
    @settings(max_examples=200, deadline=None)
    def test_term_apply_numpy_matches_scalar(self, value, pre, div, mod, coef):
        # The ptx precompute evaluates address terms on int64 arrays;
        # numpy floor semantics must equal Python's on the nonnegative
        # symbol values the simulator feeds in.
        term = Term("bx", coef, pre=pre, div=div, mod=mod)
        scalar = term.apply(value)
        vec = term.apply(np.array([value, value], dtype=np.int64))
        assert int(vec[0]) == int(vec[1]) == scalar
