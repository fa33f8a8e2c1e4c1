"""Evaluation platforms (Tables II and IV, plus accelerator backends).

GPU configurations for the paper's three CUDA targets — the Pascal
GP102 GPGPU-Sim model, the Kepler GK210 server GPU and the Maxwell
Tegra X1 mobile GPU — the analytic Xilinx PynQ-Z1 FPGA model used for
the OpenCL energy comparison (Figure 6), and the tile-based accelerator
platforms (ZCU102 FPGA-class, S2NPU SpiNNaker2-class) the
:mod:`repro.mapping` compiler targets.

Every registered platform implements the capability-based
:class:`~repro.platforms.base.Platform` protocol; resolve names with
:func:`make_config`/:func:`platform` and enumerate with
:func:`list_platforms` (optionally by ``kind``).
"""

from repro.platforms.accel import (
    PYNQ_Z1_MAPPED,
    S2NPU,
    ZCU102,
    AcceleratorConfig,
    AcceleratorPlatform,
)
from repro.platforms.base import (
    KINDS,
    ComputeBudget,
    GpuPlatform,
    MemoryBudget,
    Platform,
)
from repro.platforms.pynq import PYNQ_Z1, PynqZ1Model
from repro.platforms.registry import (
    GK210,
    GP102,
    TX1,
    list_platforms,
    make_config,
    platform,
    register_platform,
    unregister_platform,
)

__all__ = [
    "AcceleratorConfig",
    "AcceleratorPlatform",
    "ComputeBudget",
    "GK210",
    "GP102",
    "GpuPlatform",
    "KINDS",
    "MemoryBudget",
    "PYNQ_Z1",
    "PYNQ_Z1_MAPPED",
    "Platform",
    "PynqZ1Model",
    "S2NPU",
    "TX1",
    "ZCU102",
    "list_platforms",
    "make_config",
    "platform",
    "register_platform",
    "unregister_platform",
]
