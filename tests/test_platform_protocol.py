"""Conformance tests for the platform registry.

A platform is its frozen execution config: every registered entry —
GPU, FPGA or NPU — is a ``GpuConfig`` or an ``AcceleratorConfig`` with a
``name`` and a ``kind``, resolved through ``make_config()``; the
adapter layer and the deprecated lookups are gone.
"""

from __future__ import annotations

import dataclasses
import json
import warnings

import pytest

from repro.cli import main
from repro.gpu.config import GpuConfig
from repro.platforms import (
    GP102,
    KINDS,
    S2NPU,
    list_platforms,
    make_config,
    register_platform,
    unregister_platform,
)
from repro.platforms.accel import AcceleratorConfig


def _platform_rows(capsys) -> dict[str, dict]:
    """``repro platforms --json``, keyed by registry name."""
    assert main(["platforms", "--json"]) == 0
    return {row["name"]: row for row in json.loads(capsys.readouterr().out)}


class TestProtocolConformance:
    @pytest.mark.parametrize("name", list_platforms())
    def test_every_registered_platform_conforms(self, name):
        config = make_config(name)
        assert config.kind in KINDS
        assert config.name.lower() == name
        assert config.num_sms > 0
        assert config.l1_size > 0
        assert config.dram_gb_per_s > 0
        assert config.clock_ghz > 0

    @pytest.mark.parametrize("name", list_platforms())
    def test_make_config_identity_and_budget_agreement(self, name, capsys):
        config = make_config(name)
        # no overrides -> the registered instance (identity caching works)
        assert make_config(name) is config
        row = _platform_rows(capsys)[name]
        assert row["display_name"] == config.name
        assert row["kind"] == config.kind
        assert row["tiles"] == config.num_sms
        if isinstance(config, AcceleratorConfig):
            assert row["tile_kb"] * 1024 == config.tile_memory_bytes
            assert row["macs_per_cycle"] == (
                config.mac_rows * config.mac_cols * config.tiles
            )

    def test_kind_filters_partition_the_registry(self):
        by_kind = [set(list_platforms(kind=kind)) for kind in KINDS]
        union = set().union(*by_kind)
        assert union == set(list_platforms())
        assert sum(len(s) for s in by_kind) == len(union)

    def test_gpu_kind_stays_out_of_run_keys(self):
        assert GP102.kind == "gpu"
        assert "kind" not in dataclasses.asdict(GP102)

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
        both = make_config("gp102", l1_kb=0, num_sms=4)
        assert (both.l1_size, both.num_sms) == (0, 4)

    def test_negative_l1_rejected(self):
        with pytest.raises(ValueError):
            make_config("gp102", l1_kb=-1)
        with pytest.raises(ValueError):
            make_config("zcu102", l1_kb=-1)


class TestRegistration:
    def test_register_platform_takes_and_returns_the_config(self):
        gpu = dataclasses.replace(GP102, name="TestGpu")
        npu = dataclasses.replace(S2NPU, name="TestNpu")
        try:
            assert register_platform(gpu) is gpu
            assert register_platform(npu) is npu
            assert make_config("testgpu") is gpu
            assert make_config("testnpu") is npu
            assert "testgpu" in list_platforms(kind="gpu")
            assert "testnpu" in list_platforms(kind="npu")
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
    @pytest.mark.parametrize("name", [
        "get_platform", "resolve_platform", "platform", "Platform",
        "GpuPlatform", "AcceleratorPlatform", "MemoryBudget", "ComputeBudget",
    ])
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
        # only a GPU's describe() names its L1D size
        small = RunSpec("cifarnet", make_config("zcu102", l1_kb=64), SimOptions())
        assert small.describe() == "cifarnet on ZCU102"
        gpu = RunSpec("cifarnet", make_config("gp102", l1_kb=128), SimOptions())
        assert gpu.describe() == "cifarnet on GP102 (l1=128K)"
        assert spec.key() != RunSpec(
            "cifarnet", make_config("s2npu"), SimOptions().light()
        ).key()

    def test_gpu_platform_budgets_match_table2(self, capsys):
        gp102 = _platform_rows(capsys)["gp102"]
        assert gp102["tiles"] == 28
        assert gp102["tile_kb"] == 64 + 96
        assert gp102["macs_per_cycle"] == 3584
        assert gp102["peak_gmacs"] == pytest.approx(3584 * 1.48)

    def test_config_is_gpu_or_accelerator(self):
        for name in list_platforms():
            config = make_config(name)
            assert isinstance(config, (GpuConfig, AcceleratorConfig))
