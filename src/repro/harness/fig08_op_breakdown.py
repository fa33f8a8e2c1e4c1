"""Figure 8: operation-type breakdown per network.

Paper: dynamic opcode mix of each network.  Claims checked: GRU and
LSTM share one breakdown pattern and the CNNs another; RNNs use add,
ld, mad and set the most; CNNs additionally use shl and mul heavily
(warp-unit index arithmetic).
"""

from __future__ import annotations

from repro.harness.common import ALL_NETWORKS, display
from repro.harness.report import Check
from repro.profiling.instmix import opcode_mix
from repro.runs import Experiment, RunView
from repro.runs.registry import register


def _mixes(view: RunView) -> dict[str, dict[str, float]]:
    return {name: opcode_mix(name) for name in view.nets(ALL_NETWORKS)}


def _aggregate(view: RunView) -> dict:
    series: dict[str, dict[str, float]] = {}
    for name, mix in view.memo(_mixes, view).items():
        series[display(name)] = {
            op: round(frac, 3)
            for op, frac in sorted(mix.items(), key=lambda kv: -kv[1])
            if frac >= 0.005
        }
    return series


def _checks(view: RunView, series: dict) -> list[Check]:
    mixes = view.memo(_mixes, view)

    def top_ops(name: str, n: int = 4) -> set[str]:
        return set(sorted(mixes[name], key=lambda op: -mixes[name][op])[:n])

    rnn_top = top_ops("gru", 5) | top_ops("lstm", 5)
    return [
        Check(
            "RNNs use add, ld, mad and set the most",
            {"add", "ld", "mad", "set"} <= rnn_top,
            f"GRU/LSTM top ops: {sorted(rnn_top)}",
        ),
        Check(
            "CNNs additionally use shl and mul heavily",
            all(
                mixes[cnn].get("shl", 0) >= 0.04 and mixes[cnn].get("mul", 0) >= 0.04
                for cnn in ("cifarnet", "alexnet", "squeezenet", "resnet", "vggnet")
            ),
            "shl/mul share >= 4% in every CNN",
        ),
        Check(
            "RNNs barely use shl (no warp-unit spatial indexing)",
            max(mixes["gru"].get("shl", 0), mixes["lstm"].get("shl", 0))
            < min(mixes[c].get("shl", 1) for c in ("cifarnet", "alexnet", "resnet")),
            f"GRU shl={mixes['gru'].get('shl', 0):.1%}",
        ),
        Check(
            "GRU and LSTM share one mix pattern; CNNs share another",
            len(top_ops("gru") ^ top_ops("lstm")) <= 2
            and len(top_ops("alexnet") ^ top_ops("vggnet")) <= 2,
            "top-4 opcode sets nearly identical within each family",
        ),
    ]


EXPERIMENT = register(
    Experiment(
        exp_id="fig08",
        title="Operation Type Breakdown",
        aggregate=_aggregate,
        checks=_checks,
        render="stack",
        notes="analytic — no simulation required",
    )
)
