"""Figure 15: warp-scheduler sensitivity (GTO vs LRR vs TLV).

Paper: execution time of every network under the three GPGPU-Sim warp
schedulers, normalized to GTO.  Claims checked (Observation 12): the
RNNs show no considerable difference; AlexNet and ResNet improve
significantly under LRR thanks to conv's high data locality; TLV does
not beat LRR on the conv-heavy networks.
"""

from __future__ import annotations

from dataclasses import replace

from repro.gpu.config import WARP_SCHEDULERS
from repro.harness.common import ALL_NETWORKS, display, sim_platform
from repro.harness.report import Check
from repro.runs import Experiment, RunSpec, RunView
from repro.runs.registry import register
from repro.runs.spec import PlanContext


def _plan(ctx: PlanContext) -> tuple[RunSpec, ...]:
    platform = sim_platform()
    return tuple(
        RunSpec(name, platform, replace(ctx.options, scheduler=scheduler))
        for name in ctx.nets(ALL_NETWORKS)
        for scheduler in WARP_SCHEDULERS
    )


def _aggregate(view: RunView) -> dict:
    platform = sim_platform()
    series: dict[str, dict[str, float]] = {}
    for name in view.nets(ALL_NETWORKS):
        cycles = {}
        for scheduler in WARP_SCHEDULERS:
            options = replace(view.ctx.options, scheduler=scheduler)
            cycles[scheduler.upper()] = view.run(name, platform, options).total_cycles
        base = cycles["GTO"]
        series[display(name)] = {s: round(v / base, 4) for s, v in cycles.items()}
    return series


def _checks(view: RunView, series: dict) -> list[Check]:
    return [
        Check(
            "RNNs show no considerable scheduler sensitivity",
            all(
                abs(series[rnn][s] - 1.0) < 0.06
                for rnn in ("GRU", "LSTM")
                for s in ("LRR", "TLV")
            ),
            f"GRU={series['GRU']} LSTM={series['LSTM']}",
        ),
        Check(
            "AlexNet improves significantly under LRR",
            series["AlexNet"]["LRR"] <= 0.90,
            f"AlexNet LRR = {series['AlexNet']['LRR']:.2f}",
        ),
        Check(
            "ResNet improves under LRR",
            series["ResNet"]["LRR"] <= 0.95,
            f"ResNet LRR = {series['ResNet']['LRR']:.2f}",
        ),
        Check(
            "LRR is at least as good as TLV on the conv-heavy networks",
            series["AlexNet"]["LRR"] <= series["AlexNet"]["TLV"]
            and series["ResNet"]["LRR"] <= series["ResNet"]["TLV"],
            "LRR <= TLV for AlexNet and ResNet",
        ),
    ]


EXPERIMENT = register(
    Experiment(
        exp_id="fig15",
        title="Warp Scheduler Sensitivity (normalized to GTO)",
        plan=_plan,
        aggregate=_aggregate,
        checks=_checks,
    )
)
