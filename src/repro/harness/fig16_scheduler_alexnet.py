"""Figure 16: per-layer warp-scheduler sensitivity of AlexNet.

Paper: normalized execution time per AlexNet layer under GTO/LRR/TLV.
Claim checked: LRR's whole-network win comes mainly from the
convolution layers (high data locality means data returns quickly from
cache, so LRR's lack of ready/pending queue shuffling pays off).
"""

from __future__ import annotations

from dataclasses import replace

from repro.gpu.config import WARP_SCHEDULERS
from repro.harness.common import sim_platform
from repro.harness.report import Check
from repro.runs import Experiment, RunSpec, RunView
from repro.runs.registry import register
from repro.runs.spec import PlanContext

NETWORK = "alexnet"


def _plan(ctx: PlanContext) -> tuple[RunSpec, ...]:
    platform = sim_platform()
    return tuple(
        RunSpec(name, platform, replace(ctx.options, scheduler=scheduler))
        for name in ctx.nets((NETWORK,))
        for scheduler in WARP_SCHEDULERS
    )


def _per_sched(view: RunView) -> dict[str, dict[str, float]]:
    platform = sim_platform()
    per_sched: dict[str, dict[str, float]] = {}
    for scheduler in WARP_SCHEDULERS:
        options = replace(view.ctx.options, scheduler=scheduler)
        result = view.run(NETWORK, platform, options)
        per_node: dict[str, float] = {}
        for k in result.kernels:
            per_node[k.kernel.node_name] = per_node.get(k.kernel.node_name, 0.0) + k.stats.cycles
        per_sched[scheduler] = per_node
    return per_sched


def _aggregate(view: RunView) -> dict:
    if NETWORK not in view.nets((NETWORK,)):
        return {}
    per_sched = view.memo(_per_sched, view)
    series: dict[str, dict[str, float]] = {}
    for node, gto_cycles in per_sched["gto"].items():
        series[node] = {
            s.upper(): round(per_sched[s][node] / gto_cycles, 4) for s in WARP_SCHEDULERS
        }
    return series


def _checks(view: RunView, series: dict) -> list[Check]:
    per_sched = view.memo(_per_sched, view)
    conv_nodes = [n for n in series if n.startswith("conv")]
    conv_gain = sum(1.0 - series[n]["LRR"] for n in conv_nodes) / len(conv_nodes)
    pool_nodes = [n for n in series if n.startswith("pool")]
    pool_gain = sum(1.0 - series[n]["LRR"] for n in pool_nodes) / len(pool_nodes)
    total_gto = sum(per_sched["gto"].values())
    conv_contrib = sum(
        per_sched["gto"][n] - per_sched["lrr"][n] for n in conv_nodes
    )
    total_saved = total_gto - sum(per_sched["lrr"].values())
    return [
        Check(
            "convolution layers improve under LRR",
            conv_gain > 0.03,
            f"mean conv improvement = {conv_gain:.1%}",
        ),
        Check(
            "LRR's win is acquired mainly in the convolution layers",
            total_saved > 0 and conv_contrib >= 0.5 * total_saved,
            f"conv contributes {conv_contrib / max(total_saved, 1e-9):.0%} of the savings",
        ),
        Check(
            "dependency-bound pooling layers benefit least from LRR",
            pool_gain <= conv_gain,
            f"pooling mean improvement = {pool_gain:.1%} vs conv {conv_gain:.1%}",
        ),
    ]


EXPERIMENT = register(
    Experiment(
        exp_id="fig16",
        title="Per-Layer Warp Scheduler Sensitivity of AlexNet",
        plan=_plan,
        aggregate=_aggregate,
        checks=_checks,
    )
)
