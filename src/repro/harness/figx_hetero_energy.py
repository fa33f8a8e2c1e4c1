"""Figure-6-style energy comparison across heterogeneous accelerators.

The paper's Figure 6 compares one embedded GPU against one FPGA; this
extension experiment spans all three device kinds the platform registry
now covers — the Jetson TX1 (gpu), the ZCU102-class FPGA (fpga, via the
tiling mapper) and the SpiNNaker2-class NPU (npu, same mapper) — using
the same Wattsup methodology: energy = peak power x execution time.

Expected relationships (first-order device physics the models encode):
the wide-DSP FPGA finishes fastest, the near-threshold NPU draws the
least power and wins on energy, and the embedded GPU — paying GDDR
traffic and instruction overheads for every layer — is the least
energy-efficient of the three, just as Figure 6 found against the
much smaller PynQ.
"""

from __future__ import annotations

from repro.harness.common import display
from repro.harness.report import Check
from repro.platforms import S2NPU, TX1, ZCU102
from repro.power.wattsup import DeviceMeasurement, WattsupMeter
from repro.runs import Experiment, RunSpec, RunView
from repro.runs.registry import register
from repro.runs.spec import PlanContext

NETWORKS = ("cifarnet", "squeezenet")

#: The three devices, one per registry kind.
DEVICES = (TX1, ZCU102, S2NPU)


def _plan(ctx: PlanContext) -> tuple[RunSpec, ...]:
    return tuple(
        RunSpec(name, config, ctx.options)
        for name in ctx.nets(NETWORKS)
        for config in DEVICES
    )


def _measure(view: RunView, name: str) -> dict[str, DeviceMeasurement]:
    """Wattsup measurement per device for one network."""
    return {
        config.name: WattsupMeter(config).measure(view.run(name, config))
        for config in DEVICES
    }


def _aggregate(view: RunView) -> dict:
    series: dict[str, dict[str, float]] = {}
    for name in view.nets(NETWORKS):
        measured = view.memo(_measure, view, name)
        baseline = measured["S2NPU"].energy_j
        row: dict[str, float] = {}
        for config in DEVICES:
            m = measured[config.name]
            row[f"{config.name} (norm energy)"] = round(m.energy_j / baseline, 3)
        for config in DEVICES:
            m = measured[config.name]
            row[f"{config.name.lower()}_peak_w"] = round(m.peak_watts, 2)
            row[f"{config.name.lower()}_time_ms"] = round(m.time_s * 1e3, 3)
        series[display(name)] = row
    return series


def _checks(view: RunView, series: dict) -> list[Check]:
    checks: list[Check] = []
    for name in view.nets(NETWORKS):
        m = view.memo(_measure, view, name)
        gpu, fpga, npu = m["TX1"], m["ZCU102"], m["S2NPU"]
        checks.append(
            Check(
                f"{display(name)}: NPU is the most energy-efficient device",
                npu.energy_j < fpga.energy_j < gpu.energy_j,
                f"J: gpu {gpu.energy_j:.4f} > fpga {fpga.energy_j:.4f} "
                f"> npu {npu.energy_j:.4f}",
            )
        )
        checks.append(
            Check(
                f"{display(name)}: embedded GPU pays a large energy premium "
                f"(Figure 6 found 1.3-1.8x vs a far smaller FPGA)",
                gpu.energy_j / npu.energy_j > 5.0,
                f"measured gpu/npu {gpu.energy_j / npu.energy_j:.1f}x",
            )
        )
        checks.append(
            Check(
                f"{display(name)}: near-threshold NPU draws the lowest "
                f"peak power",
                npu.peak_watts < min(gpu.peak_watts, fpga.peak_watts),
                f"W: npu {npu.peak_watts:.2f}, fpga {fpga.peak_watts:.2f}, "
                f"gpu {gpu.peak_watts:.2f}",
            )
        )
        checks.append(
            Check(
                f"{display(name)}: wide-DSP FPGA finishes ahead of the "
                f"embedded GPU",
                fpga.time_s < gpu.time_s,
                f"s: fpga {fpga.time_s:.4f} vs gpu {gpu.time_s:.4f}",
            )
        )
    return checks


EXPERIMENT = register(
    Experiment(
        exp_id="hetero",
        title="Energy Across GPU, FPGA and NPU Backends (Fig. 6 extended)",
        plan=_plan,
        aggregate=_aggregate,
        checks=_checks,
    )
)
