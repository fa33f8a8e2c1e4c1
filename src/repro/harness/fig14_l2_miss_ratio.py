"""Figure 14: L2 miss *ratio* per layer type with the L1D bypassed.

Paper: conv layers have far lower L2 miss ratios (average under ~1%)
than fully-connected layers (~10%) despite their high absolute miss
counts — i.e. convolution has high data locality (Observation 11), so
on-chip memory mainly helps convolution.
"""

from __future__ import annotations

from dataclasses import replace

from repro.gpu.config import SimOptions
from repro.harness.common import CNNS, display, sim_platform
from repro.harness.report import Check
from repro.runs import Experiment, RunSpec, RunView
from repro.runs.registry import register
from repro.runs.spec import PlanContext


def _options(base: SimOptions) -> SimOptions:
    # Cache reuse across a thread's outputs is part of what this figure
    # measures, so the outer-loop budget is lifted to the inner one
    # (None falls back to max_trips): outer loops of up to 64 trips run
    # exactly, longer ones are still sampled.
    return replace(base, max_outer_trips=None)


def _plan(ctx: PlanContext) -> tuple[RunSpec, ...]:
    platform = sim_platform().with_l1(0)
    return tuple(
        RunSpec(name, platform, _options(ctx.options)) for name in ctx.nets(CNNS)
    )


def _ratios(view: RunView) -> dict[str, dict[str, float]]:
    platform = sim_platform().with_l1(0)
    out: dict[str, dict[str, float]] = {}
    for name in view.nets(CNNS):
        result = view.run(name, platform, _options(view.ctx.options))
        out[name] = {
            cat: stats.l2_miss_ratio
            for cat, stats in result.stats_by_category().items()
            if stats.l2_accesses > 0
        }
    return out


def _aggregate(view: RunView) -> dict:
    return {
        display(name): {cat: round(v, 4) for cat, v in per_cat.items()}
        for name, per_cat in view.memo(_ratios, view).items()
    }


def _checks(view: RunView, series: dict) -> list[Check]:
    ratios = view.memo(_ratios, view)
    conv_ratios = [r["Conv"] for r in ratios.values() if "Conv" in r]
    fc_ratios = [r["FC"] for r in ratios.values() if "FC" in r]
    conv_avg = sum(conv_ratios) / len(conv_ratios)
    fc_avg = sum(fc_ratios) / len(fc_ratios)
    fire_low = all(
        ratios["squeezenet"].get(cat, 0.0)
        <= max(3.0 * ratios["squeezenet"].get("Conv", 1.0), 0.06)
        for cat in ("Fire_Squeeze", "Fire_Expand")
    )
    return [
        Check(
            "conv L2 miss ratio is around 1% on average",
            conv_avg <= 0.04,
            f"average conv miss ratio = {conv_avg:.2%}",
        ),
        Check(
            "FC miss ratio (paper ~10%) is an order of magnitude above conv",
            fc_avg >= 4 * conv_avg,
            f"FC avg = {fc_avg:.1%} vs conv avg = {conv_avg:.2%}",
        ),
        Check(
            "convolution has the lowest miss ratio class in SqueezeNet/ResNet",
            ratios["resnet"].get("Conv", 1.0)
            <= min(v for c, v in ratios["resnet"].items() if c != "Conv") + 0.02
            and fire_low,
            "conv/fire locality beats the elementwise layers",
        ),
    ]


EXPERIMENT = register(
    Experiment(
        exp_id="fig14",
        title="L2 Miss Ratio per Layer Type without L1D",
        plan=_plan,
        aggregate=_aggregate,
        checks=_checks,
    )
)
