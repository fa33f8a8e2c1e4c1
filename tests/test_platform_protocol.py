"""Conformance tests for the capability-based Platform protocol.

Every registered platform — GPU, FPGA or NPU — must expose the same
surface (``name``, ``kind``, ``memory_budget()``, ``compute_budget()``,
``make_config()``); the deprecated pre-protocol lookups are gone.
"""

from __future__ import annotations

import dataclasses
import warnings

import pytest

from repro.gpu.config import GpuConfig
from repro.platforms import (
    GP102,
    KINDS,
    S2NPU,
    Platform,
    list_platforms,
    make_config,
    platform,
    register_platform,
    unregister_platform,
)
from repro.platforms.accel import AcceleratorConfig


class TestProtocolConformance:
    @pytest.mark.parametrize("name", list_platforms())
    def test_every_registered_platform_conforms(self, name):
        entry = platform(name)
        assert isinstance(entry, Platform)
        assert entry.kind in KINDS
        assert entry.name.lower() == name
        memory = entry.memory_budget()
        assert memory.per_tile_bytes > 0
        assert memory.tiles > 0
        assert memory.dram_gb_per_s > 0
        assert memory.total_bytes == memory.per_tile_bytes * memory.tiles
        compute = entry.compute_budget()
        assert compute.peak_macs_per_cycle > 0
        assert compute.peak_gmacs_per_s > 0

    @pytest.mark.parametrize("name", list_platforms())
    def test_make_config_identity_and_budget_agreement(self, name):
        entry = platform(name)
        config = entry.make_config()
        # no overrides -> the canonical instance (identity caching works)
        assert make_config(name) is config
        assert config.name == entry.name
        if isinstance(config, AcceleratorConfig):
            assert config.tile_memory_bytes == entry.memory_budget().per_tile_bytes
            assert config.tiles == entry.memory_budget().tiles

    def test_kind_filters_partition_the_registry(self):
        by_kind = [set(list_platforms(kind=kind)) for kind in KINDS]
        union = set().union(*by_kind)
        assert union == set(list_platforms())
        assert sum(len(s) for s in by_kind) == len(union)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown platform kind"):
            list_platforms(kind="asic")

    def test_make_config_overrides(self):
        gpu = make_config("gp102", l1_kb=128)
        assert gpu.l1_size == 128 * 1024
        assert gpu is not GP102 and GP102.l1_size == 64 * 1024
        npu = make_config("s2npu", l1_kb=64)
        assert npu.tile_memory_bytes == 64 * 1024
        assert S2NPU.tile_memory_bytes == 128 * 1024
        named = make_config("s2npu", tiles=8)
        assert named.tiles == 8

    def test_negative_l1_rejected(self):
        with pytest.raises(ValueError):
            make_config("gp102", l1_kb=-1)
        with pytest.raises(ValueError):
            make_config("zcu102", l1_kb=-1)


class TestRegistration:
    def test_raw_configs_wrap_into_platforms(self):
        gpu = dataclasses.replace(GP102, name="TestGpu")
        npu = dataclasses.replace(S2NPU, name="TestNpu")
        try:
            wrapped_gpu = register_platform(gpu)
            wrapped_npu = register_platform(npu)
            assert isinstance(wrapped_gpu, Platform)
            assert wrapped_gpu.kind == "gpu"
            assert wrapped_npu.kind == "npu"
            assert make_config("testgpu") is gpu
            assert make_config("testnpu") is npu
        finally:
            unregister_platform("testgpu")
            unregister_platform("testnpu")

    def test_duplicate_registration_needs_replace(self):
        entry = dataclasses.replace(S2NPU, name="TestDup")
        try:
            register_platform(entry)
            with pytest.raises(ValueError, match="already registered"):
                register_platform(entry)
            register_platform(entry, replace=True)
        finally:
            unregister_platform("testdup")

    def test_builtins_cannot_be_unregistered(self):
        for name in ("gp102", "s2npu", "zcu102"):
            with pytest.raises(ValueError, match="built-in"):
                unregister_platform(name)


class TestDeprecatedShims:
    @pytest.mark.parametrize("name", ["get_platform", "resolve_platform"])
    def test_deprecated_lookups_are_gone(self, name):
        import repro.platforms
        import repro.platforms.registry

        assert not hasattr(repro.platforms, name)
        assert not hasattr(repro.platforms.registry, name)
        assert name not in repro.platforms.__all__
        with pytest.raises(ImportError):
            exec(f"from repro.platforms import {name}", {})

    def test_no_in_repo_callers_of_deprecated_api(self):
        """The engine/campaign/serve layers must be migrated: resolving
        a platform through the supported surface never warns."""
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            from repro.campaign.expand import CampaignPoint
            from repro.serve.devices import build_fleet

            build_fleet("gp102,s2npu")
            point = CampaignPoint(
                network="cifarnet", platform="s2npu", l1_kb=None,
                scheduler="gto", fidelity="light", batch=1,
            )
            assert point.resolved_l1_kb() == 128


class TestHeterogeneousFlow:
    def test_accelerator_configs_flow_through_runspec(self):
        from repro.gpu.config import SimOptions
        from repro.runs import RunSpec

        spec = RunSpec("cifarnet", make_config("zcu102"), SimOptions().light())
        assert "ZCU102" in spec.describe()
        assert spec.key() != RunSpec(
            "cifarnet", make_config("s2npu"), SimOptions().light()
        ).key()

    def test_gpu_platform_budgets_match_table2(self):
        gpu = platform("gp102")
        memory = gpu.memory_budget()
        assert memory.tiles == 28
        assert memory.per_tile_bytes == (64 + 96) * 1024
        assert gpu.compute_budget().peak_macs_per_cycle == 3584

    def test_config_is_gpu_or_accelerator(self):
        for name in list_platforms():
            config = make_config(name)
            assert isinstance(config, (GpuConfig, AcceleratorConfig))
