"""Wattsup wall-meter model for device-level power (Figure 6).

The paper measures embedded boards with a Wattsup meter, which reports
instantaneous watts but not energy; they therefore compute energy as
``peak power x execution time`` (Section IV-B.3).  This module applies
the same procedure to simulated runs: device power = board baseline +
chip dynamic power, sampled per kernel; energy uses the paper's
peak-times-time formula so the comparison methodology matches.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.gpu.simulator import NetworkResult
from repro.power.accel import power_model_for


@dataclass(frozen=True)
class DeviceMeasurement:
    """What the wall meter yields for one benchmark run."""

    platform: str
    network: str
    time_s: float
    peak_watts: float

    @property
    def energy_j(self) -> float:
        """Energy as the paper computes it: peak power x execution time."""
        return self.peak_watts * self.time_s


class WattsupMeter:
    """Board-level meter over one simulated device run.

    Works for any registered platform: GPU configs meter through
    GPUWattch with the board-overhead uplift, accelerator configs
    through their MAC + DRAM model (whose estimate already covers the
    whole board — an FPGA's fabric or an NPU's mesh *is* the device).
    """

    def __init__(self, config, model=None):
        self.config = config
        self.model = model or power_model_for(config)

    def measure(self, result: NetworkResult) -> DeviceMeasurement:
        """Meter one network run on this board."""
        chip_peak = self.model.peak_power(result)
        if self.config.kind == "gpu":
            # Board overhead (VRM losses, memory, SoC uncore) rides on
            # top of the chip estimate; idle_watts is the board's floor.
            board_peak = self.config.idle_watts + 0.9 * chip_peak
        else:
            board_peak = chip_peak
        return DeviceMeasurement(
            platform=self.config.name,
            network=result.network,
            time_s=result.total_time_ms / 1e3,
            peak_watts=board_peak,
        )
