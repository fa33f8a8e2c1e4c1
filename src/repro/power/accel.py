"""Energy model for tile-based accelerators, plus the model dispatcher.

FPGA and NPU backends carry their own first-order energy parameters on
the :class:`~repro.platforms.accel.AcceleratorConfig` itself — energy
per MAC and energy per DRAM byte, the two terms that dominate tiled
dataflow accelerators — rather than GPUWattch's per-structure access
energies, which have no analogue on a DSP array or a PE mesh.

:class:`AcceleratorPowerModel` exposes the same method surface the
consumers of :class:`~repro.power.gpuwattch.GpuWattchModel` rely on
(``static_watts``, ``dynamic_energy_joules``, ``window_seconds``,
``peak_power``), and :func:`power_model_for` picks the right model for
a config, so the serving profiles, campaign QoR rows and wall-meter
measurements stay platform-agnostic.
"""

from __future__ import annotations

from repro.power.gpuwattch import GpuWattchModel
from repro.profiling.stats import KernelStats


class AcceleratorPowerModel:
    """First-order MAC + DRAM energy accounting for one accelerator."""

    def __init__(self, config):
        self.config = config

    # -- the GpuWattchModel surface the generic consumers use ----------
    @property
    def static_watts(self) -> float:
        """Device idle floor (fabric leakage, mesh clocks, DRAM refresh)."""
        return self.config.idle_watts

    def window_seconds(self, stats: KernelStats) -> float:
        """Wall-clock duration of the window *stats* covers."""
        return stats.cycles / (self.config.clock_ghz * 1e9)

    def dynamic_energy_joules(self, stats: KernelStats) -> float:
        """Activity-proportional energy: MACs plus DRAM traffic."""
        mac_j = stats.issued * self.config.energy_per_mac_pj * 1e-12
        dram_j = stats.dram_bytes * self.config.energy_per_dram_byte_pj * 1e-12
        return mac_j + dram_j

    def stats_power(self, stats: KernelStats) -> float:
        """Average watts over a stats window, capped at the device TDP."""
        window = self.window_seconds(stats)
        if window <= 0:
            return self.static_watts
        watts = self.static_watts + self.dynamic_energy_joules(stats) / window
        return min(watts, self.config.tdp_watts)

    def peak_power(self, result) -> float:
        """Highest per-layer average power of the run, in watts."""
        return max(
            (self.stats_power(k.stats) for k in result.kernels),
            default=self.static_watts,
        )

    def network_energy_joules(self, result) -> float:
        """Total energy of one inference: static x time + activity."""
        total = 0.0
        for kernel in result.kernels:
            stats = kernel.stats
            total += self.static_watts * self.window_seconds(stats)
            total += self.dynamic_energy_joules(stats)
        return total


def power_model_for(config):
    """The power model matching a platform's execution config."""
    if config.kind == "gpu":
        return GpuWattchModel(config)
    return AcceleratorPowerModel(config)
