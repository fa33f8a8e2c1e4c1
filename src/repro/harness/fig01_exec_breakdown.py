"""Figure 1: execution-time breakdown with respect to layer type.

Paper: stacked-percentage bars for CifarNet, AlexNet, SqueezeNet and
ResNet on the GPGPU-Sim platform.  Claims checked: convolution is the
most time-consuming layer type of every CNN (Observation 1); CifarNet
and ResNet spend over 90% of their time in convolution; SqueezeNet's
fire-expand layers outweigh its plain convolutions while its single
longest kernel is still conv10.
"""

from __future__ import annotations

from repro.harness.common import CNNS, display, sim_platform
from repro.harness.report import Check
from repro.runs import Experiment, RunSpec, RunView
from repro.runs.registry import register
from repro.runs.spec import PlanContext


def _plan(ctx: PlanContext) -> tuple[RunSpec, ...]:
    return tuple(RunSpec(name, sim_platform(), ctx.options) for name in ctx.nets(CNNS))


def _fractions(view: RunView, name: str) -> dict[str, float]:
    result = view.run(name, sim_platform())
    by_cat = result.cycles_by_category()
    total = sum(by_cat.values())
    return {cat: cycles / total for cat, cycles in by_cat.items()}


def _aggregate(view: RunView) -> dict:
    series: dict[str, dict[str, float]] = {}
    for name in view.nets(CNNS):
        fractions = view.memo(_fractions, view, name)
        series[display(name)] = {cat: round(frac, 4) for cat, frac in fractions.items()}
    return series


def _checks(view: RunView, series: dict) -> list[Check]:
    checks: list[Check] = []
    for name in view.nets(CNNS):
        fractions = view.memo(_fractions, view, name)
        conv_like = fractions.get("Conv", 0.0)
        if name == "squeezenet":
            conv_like += fractions.get("Fire_Squeeze", 0.0) + fractions.get("Fire_Expand", 0.0)
        checks.append(
            Check(
                f"{display(name)}: convolution-class layers dominate execution time",
                conv_like == max(
                    conv_like,
                    *(frac for cat, frac in fractions.items()
                      if cat not in ("Conv", "Fire_Squeeze", "Fire_Expand")),
                )
                and conv_like > 0.5,
                f"conv-class share = {conv_like:.0%}",
            )
        )
        if name in ("cifarnet", "resnet"):
            checks.append(
                Check(
                    f"{display(name)}: over 90% of time in convolution layers",
                    fractions.get("Conv", 0.0) > 0.90,
                    f"conv share = {fractions.get('Conv', 0.0):.1%}",
                )
            )
        if name == "squeezenet":
            checks.append(
                Check(
                    "SqueezeNet: fire-expand layers take more time than plain conv",
                    fractions.get("Fire_Expand", 0.0) > fractions.get("Conv", 0.0),
                    f"expand={fractions.get('Fire_Expand', 0.0):.0%} "
                    f"conv={fractions.get('Conv', 0.0):.0%}",
                )
            )
            result = view.run(name, sim_platform())
            longest = max(result.kernels, key=lambda k: k.stats.cycles)
            checks.append(
                Check(
                    "SqueezeNet: the single longest kernel is conv10",
                    longest.kernel.node_name == "conv10",
                    f"longest SqueezeNet kernel: {longest.kernel.name}",
                )
            )
    return checks


EXPERIMENT = register(
    Experiment(
        exp_id="fig01",
        title="Execution Time Breakdown w.r.t. Layer Type",
        plan=_plan,
        aggregate=_aggregate,
        checks=_checks,
        render="stack",
    )
)
