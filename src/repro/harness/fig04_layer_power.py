"""Figure 4: average power consumption per layer type.

Paper: stacked-percentage power shares per layer type for the four
CNNs.  Claim checked (Observation 4): although convolution dominates
execution *time*, per-layer-type average *power* is far more balanced —
e.g. CifarNet's pooling layers draw power comparable to its convolution
layers — because every layer type pays cache and memory access energy.
"""

from __future__ import annotations

from repro.harness.common import CNNS, display, sim_platform
from repro.harness.report import Check
from repro.power.gpuwattch import GpuWattchModel
from repro.runs import Experiment, RunSpec, RunView
from repro.runs.registry import register
from repro.runs.spec import PlanContext


def _plan(ctx: PlanContext) -> tuple[RunSpec, ...]:
    return tuple(RunSpec(name, sim_platform(), ctx.options) for name in ctx.nets(CNNS))


def _category_power(view: RunView, name: str) -> dict[str, float]:
    """Average power per layer type of one network's run."""
    platform = sim_platform()
    return GpuWattchModel(platform).category_power(view.run(name, platform))


def _conv_balance(view: RunView, name: str) -> tuple[float, float]:
    """(conv time share, conv power share), unrounded."""
    watts = view.memo(_category_power, view, name)
    total = sum(watts.values())
    time_by_cat = view.run(name, sim_platform()).cycles_by_category()
    time_total = sum(time_by_cat.values())
    return (
        time_by_cat.get("Conv", 0.0) / time_total,
        watts.get("Conv", 0.0) / total,
    )


def _aggregate(view: RunView) -> dict:
    series: dict[str, dict[str, float]] = {}
    for name in view.nets(CNNS):
        watts = view.memo(_category_power, view, name)
        total = sum(watts.values())
        series[display(name)] = {cat: round(w / total, 4) for cat, w in watts.items()}
    return series


def _checks(view: RunView, series: dict) -> list[Check]:
    checks = []
    for name in view.nets(CNNS):
        conv_time_share, conv_power_share = _conv_balance(view, name)
        checks.append(
            Check(
                f"{display(name)}: power is more balanced across layer types than time",
                conv_power_share < conv_time_share,
                f"conv time share={conv_time_share:.0%} vs power share={conv_power_share:.0%}",
            )
        )
    cifar = series["CifarNet"]
    checks.append(
        Check(
            "CifarNet: pooling power is comparable to convolution power",
            cifar.get("Pooling", 0.0) >= 0.4 * cifar.get("Conv", 1.0),
            f"pool={cifar.get('Pooling', 0.0):.0%} conv={cifar.get('Conv', 0.0):.0%}",
        )
    )
    return checks


EXPERIMENT = register(
    Experiment(
        exp_id="fig04",
        title="Average Power Consumption per Layer Type (shares)",
        plan=_plan,
        aggregate=_aggregate,
        checks=_checks,
        render="stack",
    )
)
