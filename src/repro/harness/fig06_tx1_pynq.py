"""Figure 6: energy on the embedded GPU (TX1) vs the embedded FPGA (PynQ).

Paper: Wattsup-metered peak power x execution time for CifarNet and
SqueezeNet on the Jetson TX1 and the PynQ-Z1, normalized to PynQ.
Measured relationships checked: TX1 draws 2.28x / 3.2x higher peak
power, finishes 1.7x / 1.8x faster, and ends up 1.34x / 1.74x *less*
energy efficient than the FPGA.
"""

from __future__ import annotations

from repro.core.suite import get_network
from repro.harness.common import display
from repro.harness.report import Check
from repro.platforms import TX1, PynqZ1Model
from repro.power.wattsup import WattsupMeter
from repro.runs import Experiment, RunSpec, RunView
from repro.runs.registry import register
from repro.runs.spec import PlanContext

NETWORKS = ("cifarnet", "squeezenet")

#: Paper-measured ratios (TX1 / PynQ) with generous tolerance bands.
PAPER_POWER_RATIO = {"cifarnet": 2.28, "squeezenet": 3.2}
PAPER_SPEED_RATIO = {"cifarnet": 1.7, "squeezenet": 1.8}
PAPER_ENERGY_RATIO = {"cifarnet": 1.34, "squeezenet": 1.74}


def _plan(ctx: PlanContext) -> tuple[RunSpec, ...]:
    return tuple(RunSpec(name, TX1, ctx.options) for name in ctx.nets(NETWORKS))


def _measure(view: RunView, name: str):
    """(wattsup measurement, pynq run) for one network."""
    meter = WattsupMeter(TX1)
    fpga = PynqZ1Model()
    tx1 = meter.measure(view.run(name, TX1))
    pynq = fpga.run_network(get_network(name))
    return tx1, pynq


def _aggregate(view: RunView) -> dict:
    series: dict[str, dict[str, float]] = {}
    for name in view.nets(NETWORKS):
        tx1, pynq = view.memo(_measure, view, name)
        energy_ratio = tx1.energy_j / pynq.energy_j
        series[display(name)] = {
            "TX1 (norm energy)": round(energy_ratio, 3),
            "PynQ (norm energy)": 1.0,
            "tx1_peak_w": round(tx1.peak_watts, 2),
            "pynq_peak_w": round(pynq.peak_watts, 2),
            "tx1_time_s": round(tx1.time_s, 4),
            "pynq_time_s": round(pynq.time_s, 4),
        }
    return series


def _checks(view: RunView, series: dict) -> list[Check]:
    checks: list[Check] = []
    for name in view.nets(NETWORKS):
        tx1, pynq = view.memo(_measure, view, name)
        power_ratio = tx1.peak_watts / pynq.peak_watts
        speed_ratio = pynq.time_s / tx1.time_s
        energy_ratio = tx1.energy_j / pynq.energy_j
        checks.append(
            Check(
                f"{display(name)}: TX1 peak power well above PynQ "
                f"(paper {PAPER_POWER_RATIO[name]}x)",
                1.5 <= power_ratio <= 6.0,
                f"measured ratio {power_ratio:.2f}x",
            )
        )
        checks.append(
            Check(
                f"{display(name)}: TX1 finishes faster than PynQ "
                f"(paper {PAPER_SPEED_RATIO[name]}x)",
                1.1 <= speed_ratio <= 4.0,
                f"measured ratio {speed_ratio:.2f}x",
            )
        )
        checks.append(
            Check(
                f"{display(name)}: PynQ is the more energy-efficient platform "
                f"(paper: TX1 uses {PAPER_ENERGY_RATIO[name]}x more energy)",
                energy_ratio > 1.0,
                f"measured TX1/PynQ energy {energy_ratio:.2f}x",
            )
        )
    checks.append(
        Check(
            "SqueezeNet's TX1 energy penalty exceeds CifarNet's (1.74x vs 1.34x)",
            series["SqueezeNet"]["TX1 (norm energy)"]
            > series["CifarNet"]["TX1 (norm energy)"],
            f"{series['SqueezeNet']['TX1 (norm energy)']:.2f} vs "
            f"{series['CifarNet']['TX1 (norm energy)']:.2f}",
        )
    )
    return checks


EXPERIMENT = register(
    Experiment(
        exp_id="fig06",
        title="Energy on Embedded GPU (TX1) vs Embedded FPGA (PynQ)",
        plan=_plan,
        aggregate=_aggregate,
        checks=_checks,
    )
)
