"""Shared pytest fixtures.

Simulation-based tests use the ``light`` SimOptions variant (heavier
sampling, fewer resident blocks) so the whole suite stays fast on a
single core; the full-fidelity settings are exercised by the benchmark
harness instead.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.gpu.config import GpuConfig, SimOptions
from repro.platforms import make_config, register_platform, unregister_platform


@pytest.fixture(scope="session")
def light_options() -> SimOptions:
    """Cheap simulation options for unit/integration tests."""
    return SimOptions().light()


@pytest.fixture(scope="session")
def tiny_gpu() -> GpuConfig:
    """A small GPU configuration that keeps waves short in tests."""
    return GpuConfig(
        name="TestGPU",
        num_sms=4,
        cores_per_sm=128,
        clock_ghz=1.0,
        registers_per_sm=65536,
        max_threads_per_sm=2048,
        max_blocks_per_sm=32,
        shared_mem_per_sm=96 * 1024,
        l1_size=32 * 1024,
        l2_size=512 * 1024,
        dram_gb_per_s=100.0,
    )


@pytest.fixture()
def hopeless_platform():
    """A registered NPU whose 64-byte tiles no layer fits: every run on
    it raises ``MappingError`` inside the executor, which reports it as
    ``"cifarnet on Hopeless: MappingError: conv1: a 1-channel, 1-row,
    1-input-channel conv tile still exceeds 64 bytes on Hopeless"``."""
    config = register_platform(
        replace(make_config("s2npu"), name="Hopeless", tile_memory_bytes=64)
    )
    yield config
    unregister_platform(config.name)
