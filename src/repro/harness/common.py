"""Shared helpers for the experiment harness modules."""

from __future__ import annotations

from repro.core.suite import BENCHMARK_INFO, CNN_BREAKDOWN_ORDER, NETWORK_ORDER
from repro.gpu.config import GpuConfig
from repro.platforms import GP102

#: Display labels in figure order.
def display(name: str) -> str:
    """Paper-style display name of a network."""
    return BENCHMARK_INFO[name].display_name


#: Networks plotted in the per-layer-type CNN figures (1, 4, 13, 14).
CNNS = CNN_BREAKDOWN_ORDER
#: All seven networks in figure order.
ALL_NETWORKS = NETWORK_ORDER

KB = 1024

#: The Figure 2 sweep: Pascal's default L1D is 64 KB.
L1_SWEEP = (("No L1", 0), ("L1", 64 * KB), ("2xL1", 128 * KB), ("4xL1", 256 * KB))


def sim_platform() -> GpuConfig:
    """The architecture-simulator platform (GPGPU-Sim Pascal GP102)."""
    return GP102
