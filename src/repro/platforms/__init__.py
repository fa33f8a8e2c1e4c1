"""Evaluation platforms (Tables II and IV, plus accelerator backends).

GPU configurations for the paper's three CUDA targets — the Pascal
GP102 GPGPU-Sim model, the Kepler GK210 server GPU and the Maxwell
Tegra X1 mobile GPU — the analytic Xilinx PynQ-Z1 FPGA model used for
the OpenCL energy comparison (Figure 6), and the tile-based accelerator
platforms (ZCU102 FPGA-class, S2NPU SpiNNaker2-class) the
:mod:`repro.mapping` compiler targets.

A platform is its frozen execution config: a
:class:`~repro.gpu.config.GpuConfig` or an :class:`AcceleratorConfig`,
each with a ``name`` and a ``kind`` (see :data:`KINDS`).  Resolve names
with :func:`make_config` and enumerate with :func:`list_platforms`
(optionally by ``kind``).
"""

from repro.platforms.accel import (
    PYNQ_Z1_MAPPED,
    S2NPU,
    ZCU102,
    AcceleratorConfig,
)
from repro.platforms.pynq import PYNQ_Z1, PynqZ1Model
from repro.platforms.registry import (
    GK210,
    GP102,
    KINDS,
    TX1,
    list_platforms,
    make_config,
    register_platform,
    unregister_platform,
)

__all__ = [
    "AcceleratorConfig",
    "GK210",
    "GP102",
    "KINDS",
    "PYNQ_Z1",
    "PYNQ_Z1_MAPPED",
    "PynqZ1Model",
    "S2NPU",
    "TX1",
    "ZCU102",
    "list_platforms",
    "make_config",
    "register_platform",
    "unregister_platform",
]
