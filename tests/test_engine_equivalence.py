"""The optimized engine vs the frozen seed engine: bit-identical results.

The issue loop in :mod:`repro.gpu.sm` (the engine every simulation
runs) is an optimization of the seed engine's per-cycle warp scan
(:mod:`repro.gpu.seed_engine`), not a remodel: every KernelStats field
must match exactly — cycles, per-pipe issue counts, sampled stall
attribution, cache/DRAM traffic and register-file activity.  These
tests pin that contract per scheduler, calling the seed oracle directly.

The light-options cases run in tier-1; the full-fidelity sweep over all
seven networks, and AlexNet with the L1 bypassed under every policy, are
``slow`` (``pytest -m slow``).
"""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

from repro.gpu import seed_engine, simulator
from repro.gpu.config import SimOptions
from repro.gpu.simulator import simulate_network
from repro.platforms import GK210, GP102
from repro.runs.store import result_to_payload

from repro.core.suite import NETWORK_ORDER


def _assert_identical(a, b) -> None:
    assert len(a.kernels) == len(b.kernels)
    for ka, kb in zip(a.kernels, b.kernels):
        assert ka.stats.__dict__ == kb.stats.__dict__, ka.kernel.name


class TestLightEquivalence:
    @pytest.mark.parametrize("scheduler", ["gto", "lrr", "tlv"])
    @pytest.mark.parametrize("network", ["gru", "cifarnet"])
    def test_matches_seed_engine(self, network, scheduler):
        options = SimOptions(scheduler=scheduler).light()
        seed = seed_engine.simulate_network(network, GP102, options)
        result = simulate_network(network, GP102, options)
        _assert_identical(seed, result)

    @pytest.mark.parametrize("tlv_group", [1, 3])
    def test_tlv_small_groups_match_seed_engine(self, tlv_group):
        # Small active groups churn TLV's promote/demote path and the
        # pending-list entry its list cursor skips after a promotion.
        options = SimOptions(scheduler="tlv", tlv_group=tlv_group).light()
        seed = seed_engine.simulate_network("cifarnet", GP102, options)
        result = simulate_network("cifarnet", GP102, options)
        _assert_identical(seed, result)

    def test_matches_seed_engine_gk210(self):
        options = SimOptions().light()
        seed = seed_engine.simulate_network("squeezenet", GK210, options)
        result = simulate_network("squeezenet", GK210, options)
        _assert_identical(seed, result)

    # MSHR-throttled retries: with the L1 bypassed nearly every load
    # throttles, and its missing count never goes stale; with 4 MSHRs
    # the L1 keeps filling between retries, so the engine's retry lane
    # also falls through to a fresh probe.
    @pytest.mark.parametrize("scheduler", ["gto", "lrr", "tlv"])
    @pytest.mark.parametrize(
        "config",
        [replace(GP102, l1_size=0), replace(GP102, mshr_entries=4)],
        ids=["l1-0kb", "mshr-4"],
    )
    def test_matches_seed_engine_mshr_throttled(self, config, scheduler):
        options = SimOptions(scheduler=scheduler).light()
        seed = seed_engine.simulate_network("squeezenet", config, options)
        result = simulate_network("squeezenet", config, options)
        _assert_identical(seed, result)


class TestDedupEquivalence:
    """The canonical-signature dedup gate: replicating a simulated
    kernel's stats onto signature-identical launches must be
    *bit-identical* to simulating every launch from scratch.

    On/off equality does not show that the wave key is sound.  With
    the region bases dropped from ``wave_class`` (so launches whose
    concrete address streams differ share one wave), ResNet runs 39
    waves instead of 47 at light and at default fidelity, and AlexNet
    22 instead of 23 at light, yet the ``dedup=True`` and
    ``dedup=False`` payloads of all seven networks stay byte-equal at
    both fidelities.  The soundness gate is
    ``tests/test_canonical.py::TestWaveClass::test_suite_classes_expand_identically``,
    which compares the expanded dynamic streams of every pair of
    launches that share a class."""

    @pytest.mark.parametrize("network", NETWORK_ORDER)
    def test_dedup_on_matches_dedup_off(self, network):
        options = SimOptions().light()
        off = simulate_network(network, GP102, options, dedup=False)
        on = simulate_network(network, GP102, options, dedup=True)
        _assert_identical(off, on)
        assert off.unique_kernels == on.unique_kernels
        assert on.unique_kernels <= len(on.kernels)

    def test_dedup_cross_engine_matches_seed(self):
        # Dedup x engine: the seed oracle (which always dedups at the
        # signature level) must agree with the optimized engine both
        # with and without the dedup gate.
        options = SimOptions().light()
        seed = seed_engine.simulate_network("resnet", GP102, options)
        on = simulate_network("resnet", GP102, options, dedup=True)
        off = simulate_network("resnet", GP102, options, dedup=False)
        _assert_identical(seed, on)
        _assert_identical(seed, off)

    def test_unique_kernel_count_is_signature_count(self):
        result = simulate_network("resnet", GP102, SimOptions().light())
        sigs = {k.kernel.signature() for k in result.kernels}
        assert result.unique_kernels == len(sigs)
        # ResNet repeats its residual blocks — dedup must actually bite.
        assert result.unique_kernels < len(result.kernels)

    def test_extent_only_variants_share_one_wave(self, monkeypatch):
        # Each stage's projection shortcut (and res2a_branch2c) runs
        # res*a_branch2a's program over the same bases, as relu_res*a
        # runs relu_res*a_branch2a's: 55 signatures, 47 waves.
        waves: list[str] = []
        real = simulator._run_wave

        def counted(kernel, *args, **kwargs):
            waves.append(kernel.name)
            return real(kernel, *args, **kwargs)

        monkeypatch.setattr(simulator, "_run_wave", counted)
        options = SimOptions().light()
        on = simulate_network("resnet", GP102, options)
        assert on.unique_kernels == 55
        assert len(waves) == 47
        assert "res3a_branch1" not in waves and "relu_res3a" not in waves
        off = simulate_network("resnet", GP102, options, dedup=False)
        assert len(waves) == 47 + len(off.kernels)
        assert json.dumps(result_to_payload(on)) == json.dumps(result_to_payload(off))


@pytest.mark.slow
@pytest.mark.parametrize("network", NETWORK_ORDER)
class TestFullFidelityEquivalence:
    def test_matches_seed_engine(self, network):
        options = SimOptions()
        seed = seed_engine.simulate_network(network, GP102, options)
        result = simulate_network(network, GP102, options)
        _assert_identical(seed, result)

    @pytest.mark.parametrize("scheduler", ["lrr", "tlv"])
    def test_matches_seed_engine_scheduler(self, network, scheduler):
        options = SimOptions(scheduler=scheduler)
        seed = seed_engine.simulate_network(network, GP102, options)
        result = simulate_network(network, GP102, options)
        _assert_identical(seed, result)

    def test_dedup_on_matches_dedup_off_full(self, network):
        options = SimOptions()
        off = simulate_network(network, GP102, options, dedup=False)
        on = simulate_network(network, GP102, options, dedup=True)
        _assert_identical(off, on)


@pytest.mark.slow
@pytest.mark.parametrize("scheduler", ["gto", "lrr", "tlv"])
def test_alexnet_bypassed_l1_matches_seed_engine(scheduler):
    # AlexNet's FC layers throttle on the MSHRs tens of thousands of
    # times per policy once the L1 is bypassed.
    config = replace(GP102, l1_size=0)
    options = SimOptions(scheduler=scheduler).light()
    seed = seed_engine.simulate_network("alexnet", config, options)
    result = simulate_network("alexnet", config, options)
    _assert_identical(seed, result)
